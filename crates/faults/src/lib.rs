//! # safedm-faults — common-cause fault injection for redundant execution
//!
//! Validates the safety argument behind SafeDM (DATE 2022, Section III-A):
//! when two redundant cores hold **identical** state, a common-cause fault
//! (CCF) — one physical disturbance hitting both cores the same way — can
//! produce *identical* errors that output comparison cannot detect. When the
//! cores are diverse, the same disturbance lands on different live state and
//! the errors differ, so comparison catches them.
//!
//! The injector models a CCF as a bit flip applied at the same cycle to the
//! *same microarchitectural location* of both cores (a pipeline result latch
//! or an architectural register cell — the "active logic" a voltage droop
//! perturbs). Campaigns classify each injection and cross-reference the
//! SafeDM verdict at the injection cycle.
//!
//! Two findings the campaign quantifies:
//!
//! 1. **The paper's property, exactly:** in a cycle SafeDM flags as lacking
//!    diversity, the cores' states are bit-identical, so an identical flip
//!    keeps the trajectories identical — output comparison can *never*
//!    signal a mismatch ([`CampaignStats::mismatch_with_no_diversity`] is
//!    asserted to be zero). Whatever corrupts, corrupts silently.
//! 2. **A sharper adversary:** a *surgical* single-bit CCF can occasionally
//!    corrupt both cores identically even in a diverse cycle — e.g. when
//!    the staggered cores hold the same logical datum at different pipeline
//!    positions and the flip lands on a bit whose downstream effect is the
//!    same. A physical disturbance (the paper's fault model) perturbs the
//!    whole electrical state and cannot be this selective; the campaign
//!    reports these cases separately
//!    ([`CampaignStats::silent_with_diversity`]).
//!
//! ## Example
//!
//! ```
//! use safedm_faults::{Campaign, CampaignConfig};
//!
//! let kernel = safedm_tacle::kernels::by_name("bitcount").unwrap();
//! let stats = Campaign::new(CampaignConfig {
//!     trials: 4,
//!     seed: 42,
//!     ..CampaignConfig::default()
//! })
//! .run(kernel);
//! assert_eq!(stats.total(), 4);
//! // In flagged (no-diversity) cycles, comparison is provably blind:
//! assert_eq!(stats.mismatch_with_no_diversity, 0);
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safedm_core::{DclsComparator, MonitoredSoc, SafeDmConfig, TraceSample};
use safedm_isa::Reg;
use safedm_soc::{SocConfig, PIPE_WIDTH};
use safedm_tacle::{build_kernel_program, HarnessConfig, Kernel};

/// Where a fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Bit `bit` of architectural register `reg`.
    Register {
        /// Target register.
        reg: Reg,
        /// Bit index (0–63).
        bit: u8,
    },
    /// Bit `bit` of the result latch of pipeline `stage`, slot `slot`.
    /// Lands only when that latch currently holds a value.
    StageResult {
        /// Pipeline stage index (3 = EX … 6 = WB hold results).
        stage: usize,
        /// Slot within the stage.
        slot: usize,
        /// Bit index (0–63).
        bit: u8,
    },
}

/// A common-cause fault: `target` flipped in **both** cores at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonCauseFault {
    /// Injection cycle (SoC cycles after program start).
    pub cycle: u64,
    /// Fault location.
    pub target: FaultTarget,
}

/// Classification of one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Both cores produced the correct result (fault absorbed).
    Masked,
    /// The cores' results differ — output comparison detects the error.
    DetectedMismatch,
    /// A core trapped, hung, or the run timed out — detected by the
    /// machine-level safety net.
    DetectedAnomaly,
    /// Both cores produced the *same wrong* result: the CCF escaped output
    /// comparison. Safe systems must know when this is possible — exactly
    /// what SafeDM's no-diversity flag predicts.
    SilentCorruption,
}

/// Full record of one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionResult {
    /// The injected fault.
    pub fault: CommonCauseFault,
    /// Outcome classification.
    pub outcome: Outcome,
    /// Whether the flip landed in each core (a stage latch may be empty).
    pub landed: [bool; 2],
    /// SafeDM's verdict in the injection cycle: `true` = no diversity.
    pub no_diversity_at_injection: bool,
    /// Zero staggering at the injection cycle.
    pub zero_stagger_at_injection: bool,
    /// Whether the *targeted location* held identical contents in both
    /// cores just before the flip (`None` when the fault landed in fewer
    /// than two cores). Surgical bit-flip CCFs can only escape comparison
    /// when the site was identical; SafeDM's signature-level no-diversity
    /// flag is the conservative superset a physical (whole-core) fault
    /// needs.
    pub site_identical: Option<bool>,
    /// Cycles from injection until a DCLS-style commit-stream comparator
    /// first flagged a divergence (`None` when the streams never diverged
    /// — masked or silent outcomes). The latency the FTTI budget of
    /// Section III-A must cover.
    pub dcls_detect_latency: Option<u64>,
}

fn peek_site(sys: &MonitoredSoc, core: usize, target: FaultTarget) -> Option<u64> {
    match target {
        FaultTarget::Register { reg, .. } => Some(sys.soc().core(core).reg(reg)),
        FaultTarget::StageResult { stage, slot, .. } => {
            sys.soc().core(core).peek_stage_result(stage, slot)
        }
    }
}

fn apply(sys: &mut MonitoredSoc, core: usize, target: FaultTarget) -> bool {
    match target {
        FaultTarget::Register { reg, bit } => {
            sys.soc_mut().core_mut(core).flip_reg_bit(reg, bit);
            true
        }
        FaultTarget::StageResult { stage, slot, bit } => {
            sys.soc_mut().core_mut(core).flip_stage_result_bit(stage, slot, bit)
        }
    }
}

fn classify(
    sys: &MonitoredSoc,
    out: &safedm_core::MonitoredRun,
    result_addr: u64,
    golden: u64,
) -> Outcome {
    if out.run.timed_out || !out.run.all_clean() {
        return Outcome::DetectedAnomaly;
    }
    let r0 = sys.soc().read_dword(0, result_addr);
    let r1 = sys.soc().read_dword(1, result_addr);
    if r0 != r1 {
        Outcome::DetectedMismatch
    } else if r0 == golden {
        Outcome::Masked
    } else {
        Outcome::SilentCorruption
    }
}

fn inject_common(
    prog: &safedm_asm::Program,
    golden: u64,
    fault: CommonCauseFault,
    cores: &[usize],
    max_cycles: u64,
) -> InjectionResult {
    let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
    sys.load_program(prog);
    let result_addr = prog.symbol("result").expect("kernel programs expose `result`");

    let mut landed = [false; 2];
    let mut report_at_injection = None;
    let mut site_identical = None;
    for _ in 0..fault.cycle {
        if sys.soc().all_halted() {
            break;
        }
        sys.step();
    }
    if !sys.soc().all_halted() {
        report_at_injection = Some(sys.step());
        if cores.len() == 2 {
            let s0 = peek_site(&sys, 0, fault.target);
            let s1 = peek_site(&sys, 1, fault.target);
            if let (Some(a), Some(b)) = (s0, s1) {
                site_identical = Some(a == b);
            }
        }
        for &core in cores {
            landed[core] = apply(&mut sys, core, fault.target);
        }
    }
    // Post-injection: a DCLS commit comparator rides along to time the
    // first architectural divergence.
    let mut dcls = DclsComparator::new(4096);
    let mut spent = 0u64;
    let mut detect_latency = None;
    let out = sys.run_with(max_cycles, |sys, _| {
        spent += 1;
        if detect_latency.is_none() {
            dcls.observe(sys.soc().probe(0), sys.soc().probe(1));
            if dcls.mismatch() {
                detect_latency = Some(spent);
            }
        }
    });
    let outcome = classify(&sys, &out, result_addr, golden);
    InjectionResult {
        fault,
        outcome,
        landed,
        no_diversity_at_injection: report_at_injection.is_some_and(|r| r.no_diversity),
        zero_stagger_at_injection: report_at_injection.is_some_and(|r| r.zero_stagger),
        site_identical: if landed == [true, true] { site_identical } else { None },
        dcls_detect_latency: detect_latency,
    }
}

/// Injects `fault` into **both** cores of a monitored redundant run of
/// `prog` and classifies the outcome against `golden` (the fault-free
/// checksum).
///
/// # Panics
///
/// Panics if the program lacks the standard `result` cell.
#[must_use]
pub fn run_injection(
    prog: &safedm_asm::Program,
    golden: u64,
    fault: CommonCauseFault,
    max_cycles: u64,
) -> InjectionResult {
    inject_common(prog, golden, fault, &[0, 1], max_cycles)
}

/// Injects a fault into **one** core only (a non-common-cause transient).
/// Plain redundancy suffices for these: the other core stays correct, so a
/// corrupted result always shows up as a mismatch.
///
/// # Panics
///
/// Panics if the program lacks the standard `result` cell.
#[must_use]
pub fn run_single_core_injection(
    prog: &safedm_asm::Program,
    golden: u64,
    fault: CommonCauseFault,
    core: usize,
    max_cycles: u64,
) -> InjectionResult {
    inject_common(prog, golden, fault, &[core], max_cycles)
}

/// Returns the initial lockstep window `(first_cycle, last_cycle)` of a
/// redundant run of `prog`: the prefix of cycles in which SafeDM reports no
/// diversity *continuously from reset*.
///
/// Note that even in this window the cores are not *architecturally*
/// identical: the harness prologue reads `mhartid`, which necessarily
/// differs. Identical-trajectory arguments therefore apply only once the
/// hartid-derived registers are dead and overwritten (see the
/// `detection_latency_measured_for_mismatches` test for a careful
/// selection). Later no-diversity cycles may also be window-limited *false
/// positives* (identical signatures, different global position).
#[must_use]
pub fn initial_lockstep_window(prog: &safedm_asm::Program, max_cycles: u64) -> Option<(u64, u64)> {
    let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
    sys.load_program(prog);
    let mut trace = Vec::new();
    sys.run_with(max_cycles, |sys, r| trace.push(TraceSample::new(sys, r)));
    let mut start = None;
    let mut end = None;
    for s in &trace {
        if s.no_diversity {
            if start.is_none() {
                start = Some(s.cycle);
            }
            end = Some(s.cycle);
        } else if start.is_some() {
            break;
        }
    }
    start.zip(end)
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of injections.
    pub trials: usize,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Earliest injection cycle.
    pub min_cycle: u64,
    /// Latest injection cycle.
    pub max_cycle: u64,
    /// Per-run cycle budget after injection.
    pub max_cycles: u64,
    /// Restrict faults to pipeline result latches (the physical CCF model);
    /// when false, architectural register cells are also targeted.
    pub stage_latches_only: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            trials: 100,
            seed: 1,
            min_cycle: 50,
            max_cycle: 20_000,
            max_cycles: 80_000_000,
            stage_latches_only: true,
        }
    }
}

/// Aggregate campaign statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Masked injections.
    pub masked: u64,
    /// Detected by output mismatch.
    pub detected_mismatch: u64,
    /// Detected by trap/hang.
    pub detected_anomaly: u64,
    /// Silent corruptions in cycles flagged *no diversity* (expected CCFs).
    pub silent_with_no_diversity: u64,
    /// Silent corruptions in cycles where the *signatures* differed but the
    /// targeted site was identical. A surgical single-bit CCF can slip
    /// through there; a physical whole-core disturbance cannot.
    pub silent_with_diversity: u64,
    /// Silent corruptions whose targeted site held *different* contents in
    /// the two cores (same logical datum at different pipeline positions —
    /// only reachable by a surgical fault model, see the module docs).
    pub silent_site_divergent: u64,
    /// Output **mismatches** from faults injected in a *no-diversity* cycle
    /// that landed in both cores. Zero whenever the flagged cycle was true
    /// lockstep (bit-identical full state evolves identically under an
    /// identical flip); nonzero counts can only come from window-limited
    /// false-positive cycles, where the flag already erred toward caution.
    pub mismatch_with_no_diversity: u64,
    /// Per-trial records.
    pub records: Vec<InjectionResult>,
    /// Sum and count of DCLS detection latencies over detected-mismatch
    /// trials (for the FTTI argument).
    pub detect_latency_sum: u64,
    /// Number of trials contributing to `detect_latency_sum`.
    pub detect_latency_count: u64,
}

impl CampaignStats {
    /// Total trials.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.masked
            + self.detected_mismatch
            + self.detected_anomaly
            + self.silent_with_no_diversity
            + self.silent_with_diversity
            + self.silent_site_divergent
    }

    /// Mean DCLS detection latency over detected mismatches, in cycles.
    #[must_use]
    pub fn mean_detect_latency(&self) -> Option<f64> {
        (self.detect_latency_count > 0)
            .then(|| self.detect_latency_sum as f64 / self.detect_latency_count as f64)
    }

    /// All silent corruptions.
    #[must_use]
    pub fn silent(&self) -> u64 {
        self.silent_with_no_diversity + self.silent_with_diversity + self.silent_site_divergent
    }
}

/// A reproducible common-cause injection campaign over one kernel.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    #[must_use]
    pub fn new(cfg: CampaignConfig) -> Campaign {
        Campaign { cfg }
    }

    /// Draws a random fault.
    fn draw(&self, rng: &mut StdRng) -> CommonCauseFault {
        let cycle = rng.gen_range(self.cfg.min_cycle..=self.cfg.max_cycle);
        let target = if self.cfg.stage_latches_only || rng.gen_bool(0.7) {
            FaultTarget::StageResult {
                stage: rng.gen_range(3..=6), // EX..WB carry result latches
                slot: rng.gen_range(0..PIPE_WIDTH),
                bit: rng.gen_range(0..64),
            }
        } else {
            FaultTarget::Register { reg: Reg::new(rng.gen_range(1..32)), bit: rng.gen_range(0..64) }
        };
        CommonCauseFault { cycle, target }
    }

    /// The full fault list the campaign will inject, drawn up-front from the
    /// seeded RNG. The sequence is identical to what the historical serial
    /// `run` loop drew (faults come off one sequential stream), which is what
    /// lets [`Campaign::run_jobs`] execute injections in parallel while
    /// keeping records byte-identical to the serial campaign.
    #[must_use]
    pub fn planned_faults(&self) -> Vec<CommonCauseFault> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        (0..self.cfg.trials).map(|_| self.draw(&mut rng)).collect()
    }

    /// Folds per-trial records (in trial order) into campaign statistics.
    #[must_use]
    pub fn stats_from_records(records: Vec<InjectionResult>) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for r in records {
            match r.outcome {
                Outcome::Masked => stats.masked += 1,
                Outcome::DetectedMismatch => {
                    stats.detected_mismatch += 1;
                    if r.no_diversity_at_injection && r.landed == [true, true] {
                        stats.mismatch_with_no_diversity += 1;
                    }
                    if let Some(lat) = r.dcls_detect_latency {
                        stats.detect_latency_sum += lat;
                        stats.detect_latency_count += 1;
                    }
                }
                Outcome::DetectedAnomaly => stats.detected_anomaly += 1,
                Outcome::SilentCorruption => {
                    if r.site_identical == Some(false) {
                        stats.silent_site_divergent += 1;
                    } else if r.no_diversity_at_injection {
                        stats.silent_with_no_diversity += 1;
                    } else {
                        stats.silent_with_diversity += 1;
                    }
                }
            }
            stats.records.push(r);
        }
        stats
    }

    /// Runs the campaign on `kernel`.
    #[must_use]
    pub fn run(&self, kernel: &Kernel) -> CampaignStats {
        self.run_jobs(kernel, 1)
    }

    /// Runs the campaign on `kernel` with `jobs` worker threads.
    ///
    /// Faults are planned serially ([`Campaign::planned_faults`]), the
    /// expensive injections run in parallel on a shared pre-built program,
    /// and the records are folded in trial order — the resulting
    /// [`CampaignStats`] (records included) is identical for every `jobs`.
    #[must_use]
    pub fn run_jobs(&self, kernel: &Kernel, jobs: usize) -> CampaignStats {
        let prog = build_kernel_program(kernel, &HarnessConfig::default());
        let golden = (kernel.reference)();
        let faults = self.planned_faults();
        let max_cycles = self.cfg.max_cycles;
        let records = safedm_campaign::par_map(jobs, &faults, |_, &fault| {
            run_injection(&prog, golden, fault, max_cycles)
        });
        Campaign::stats_from_records(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> &'static Kernel {
        safedm_tacle::kernels::by_name("fac").expect("fac exists")
    }

    #[test]
    fn no_fault_run_is_masked_baseline() {
        // Inject past the end of execution: nothing happens.
        let prog = build_kernel_program(kernel(), &HarnessConfig::default());
        let golden = (kernel().reference)();
        let fault = CommonCauseFault {
            cycle: u64::MAX / 2,
            target: FaultTarget::Register { reg: Reg::T0, bit: 0 },
        };
        let r = run_injection(&prog, golden, fault, 80_000_000);
        assert_eq!(r.outcome, Outcome::Masked);
        assert_eq!(r.landed, [false, false]);
    }

    #[test]
    fn identical_state_register_flip_is_silent() {
        // Flip the checksum accumulator in both cores mid-run: both results
        // corrupt identically — the canonical CCF escape.
        let prog = build_kernel_program(kernel(), &HarnessConfig::default());
        let golden = (kernel().reference)();
        let fault = CommonCauseFault {
            cycle: 5_000,
            target: FaultTarget::Register { reg: Reg::A0, bit: 60 },
        };
        let r = run_injection(&prog, golden, fault, 80_000_000);
        assert_eq!(r.outcome, Outcome::SilentCorruption);
    }

    #[test]
    fn single_core_fault_never_silent() {
        let prog = build_kernel_program(kernel(), &HarnessConfig::default());
        let golden = (kernel().reference)();
        for bit in [0u8, 17, 60] {
            let fault = CommonCauseFault {
                cycle: 5_000,
                target: FaultTarget::Register { reg: Reg::A0, bit },
            };
            let r = run_single_core_injection(&prog, golden, fault, 0, 80_000_000);
            assert_ne!(
                r.outcome,
                Outcome::SilentCorruption,
                "single-core fault must be caught by redundancy (bit {bit})"
            );
        }
    }

    #[test]
    fn detection_latency_measured_for_mismatches() {
        let prog = build_kernel_program(kernel(), &HarnessConfig::default());
        let golden = (kernel().reference)();
        let fault = CommonCauseFault {
            cycle: 5_000,
            target: FaultTarget::Register { reg: Reg::A0, bit: 60 },
        };
        let r = run_single_core_injection(&prog, golden, fault, 0, 80_000_000);
        assert_eq!(r.outcome, Outcome::DetectedMismatch);
        let lat = r.dcls_detect_latency.expect("mismatch must be timed");
        assert!(lat > 0 && lat < 80_000_000);
        // Common-cause corruption with *staggered* cores: the final outputs
        // agree (silent w.r.t. result comparison) but the commit *streams*
        // differ during the staggering window — temporal diversity lets the
        // DCLS-style comparator catch it.
        let r = run_injection(&prog, golden, fault, 80_000_000);
        assert_eq!(r.outcome, Outcome::SilentCorruption);
        assert!(!r.no_diversity_at_injection, "fac is staggered by cycle 5000");
        assert!(r.dcls_detect_latency.is_some(), "stream comparison sees the window");
        // The same flip during *true lockstep*: pick a cycle past the
        // prologue (so the hartid-derived register difference is dead and
        // overwritten) where SafeDM reports no diversity AND staggering is
        // zero — the cores are cycle-locked with identical live state.
        // Trajectories stay identical — nothing can detect it, exactly as
        // SafeDM warns.
        let lockstep_cycle = {
            let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
            sys.load_program(&prog);
            let mut trace = Vec::new();
            sys.run_with(80_000_000, |sys, r| trace.push(TraceSample::new(sys, r)));
            trace
                .iter()
                .find(|t| t.no_diversity && t.zero_stagger && t.cycle > 150)
                .map(|t| t.cycle)
                .expect("fac has a post-prologue lockstep cycle")
        };
        let fault = CommonCauseFault {
            // inject_common steps `cycle` times then observes one more
            cycle: lockstep_cycle - 1,
            target: FaultTarget::Register { reg: Reg::A0, bit: 60 },
        };
        let r = run_injection(&prog, golden, fault, 80_000_000);
        assert!(r.no_diversity_at_injection, "selected cycle is lockstep");
        assert_eq!(r.dcls_detect_latency, None, "identical trajectories never diverge");
        assert_ne!(r.outcome, Outcome::DetectedMismatch);
    }

    #[test]
    fn campaign_is_reproducible() {
        let cfg = CampaignConfig { trials: 5, seed: 7, ..CampaignConfig::default() };
        let a = Campaign::new(cfg).run(kernel());
        let b = Campaign::new(cfg).run(kernel());
        assert_eq!(a.masked, b.masked);
        assert_eq!(a.detected_mismatch, b.detected_mismatch);
        assert_eq!(a.silent(), b.silent());
    }

    #[test]
    fn planned_faults_reproducible_and_sized() {
        let cfg = CampaignConfig { trials: 25, seed: 11, ..CampaignConfig::default() };
        let a = Campaign::new(cfg).planned_faults();
        let b = Campaign::new(cfg).planned_faults();
        assert_eq!(a.len(), 25);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let cfg =
            CampaignConfig { trials: 6, seed: 9, max_cycle: 8_000, ..CampaignConfig::default() };
        let serial = Campaign::new(cfg).run(kernel());
        for jobs in [2, 4] {
            let par = Campaign::new(cfg).run_jobs(kernel(), jobs);
            assert_eq!(serial, par, "jobs={jobs} must match the serial campaign");
        }
    }

    #[test]
    fn campaign_counts_sum() {
        let cfg = CampaignConfig { trials: 10, seed: 3, ..CampaignConfig::default() };
        let stats = Campaign::new(cfg).run(kernel());
        assert_eq!(stats.total(), 10);
        assert_eq!(stats.records.len(), 10);
    }
}
