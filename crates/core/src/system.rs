//! [`MonitoredSoc`]: the MPSoC with SafeDM attached, the model equivalent of
//! Fig. 3 of the paper (SafeDM on the APB, observing a redundant core pair).
//! One SafeDM instance with its own APB bank watches each pair, so the same
//! type hosts the paper's two-core setup and the 4-core, two-pair
//! deployment of the De-RISC platform.

use safedm_asm::Program;
use safedm_soc::{ApbRegisterFile, MpSoc, RunResult, SocConfig};

use crate::regs::{self, regmap};
use crate::{CycleReport, SafeDe, SafeDm, SafeDmConfig};

/// One sample of a per-cycle trace (used for the staggering time-series
/// figure), taken by a [`MonitoredSoc::run_with`] observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// SoC cycle.
    pub cycle: u64,
    /// Staggering (committed-instruction diff).
    pub diff: i64,
    /// Zero-staggering cycle.
    pub zero_stagger: bool,
    /// Data signatures matched.
    pub ds_match: bool,
    /// Instruction signatures matched.
    pub is_match: bool,
    /// Lack of diversity.
    pub no_diversity: bool,
}

impl TraceSample {
    /// The sample of the cycle `sys` just stepped, whose pair-0 verdict is
    /// `report`.
    #[must_use]
    pub fn new(sys: &MonitoredSoc, report: &CycleReport) -> TraceSample {
        TraceSample {
            cycle: sys.soc.cycle(),
            diff: sys.monitor().instruction_diff().value(),
            zero_stagger: report.zero_stagger && report.observed,
            ds_match: report.ds_match,
            is_match: report.is_match,
            no_diversity: report.no_diversity,
        }
    }
}

/// Result of a monitored run: the SoC outcome plus pair 0's verdicts.
#[derive(Debug, Clone)]
pub struct MonitoredRun {
    /// The underlying SoC run result.
    pub run: RunResult,
    /// Cycles with zero staggering (Table I, "Zero stag").
    pub zero_stag_cycles: u64,
    /// Cycles without diversity (Table I, "No div").
    pub no_div_cycles: u64,
    /// Total monitored cycles.
    pub cycles_observed: u64,
    /// Whether the monitor's interrupt line ended up asserted.
    pub irq: bool,
}

/// One monitored pair: which cores, the monitor, and its APB bank index.
#[derive(Debug)]
struct Pair {
    cores: (usize, usize),
    dm: SafeDm,
    apb_index: usize,
    /// The bank's guest write count when its commands were last applied;
    /// `None` once a host path may have changed the bank or the monitor.
    applied_writes: Option<u64>,
}

/// The MPSoC with one SafeDM instance per redundant core pair, each
/// mirrored into its own APB slave bank.
///
/// Pair 0 is the primary pair: [`MonitoredSoc::step`] returns its verdict
/// and [`monitor`](MonitoredSoc::monitor), [`apb_bank`](MonitoredSoc::apb_bank)
/// and [`write_ctrl`](MonitoredSoc::write_ctrl) address it;
/// [`MonitoredSoc::pair`] reads any pair.
///
/// After every [`step`](MonitoredSoc::step), each monitor's enable flag,
/// report mode and IRQ equal what applying its bank's CTRL and THRESHOLD
/// ([`regs::apply_commands`]) gives. A step re-applies a bank only when
/// that could change something: when a guest wrote the bank since the last
/// application, or when a host path may have changed the bank or the
/// monitor (construction, [`load_program`](MonitoredSoc::load_program),
/// [`write_ctrl`](MonitoredSoc::write_ctrl),
/// [`write_threshold`](MonitoredSoc::write_threshold),
/// [`monitor_mut`](MonitoredSoc::monitor_mut),
/// [`soc_mut`](MonitoredSoc::soc_mut)). So a host
/// `monitor_mut().set_enabled(..)` that contradicts CTRL is reverted by the
/// next step, as it would be by a per-cycle application.
///
/// # Examples
///
/// ```
/// use safedm_asm::Asm;
/// use safedm_core::{MonitoredSoc, SafeDmConfig};
/// use safedm_isa::Reg;
/// use safedm_soc::SocConfig;
///
/// let mut a = Asm::new();
/// a.li(Reg::T0, 100);
/// let top = a.here("top");
/// a.addi(Reg::T0, Reg::T0, -1);
/// a.bnez(Reg::T0, top);
/// a.ebreak();
/// let prog = a.link(0x8000_0000)?;
///
/// let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
/// sys.load_program(&prog);
/// let out = sys.run(1_000_000);
/// assert!(out.run.all_clean());
/// assert!(out.cycles_observed > 0);
///
/// // Two pairs on four cores, each with its own monitor and APB bank.
/// let cfg = SocConfig { cores: 4, ..SocConfig::default() };
/// let mut sys = MonitoredSoc::with_pairs(cfg, SafeDmConfig::default(), &[(0, 1), (2, 3)]);
/// sys.load_program(&prog);
/// assert!(sys.run(1_000_000).run.all_clean());
/// let (cores, dm, _bank) = sys.pair(1);
/// assert_eq!(cores, (2, 3));
/// assert!(dm.counters().cycles_observed > 0);
/// # Ok::<(), safedm_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct MonitoredSoc {
    soc: MpSoc,
    pairs: Vec<Pair>,
    safede: Option<SafeDe>,
}

/// Byte offset of the first SafeDM register bank inside the APB window.
pub const SAFEDM_APB_OFFSET: u64 = 0;

impl MonitoredSoc {
    /// Byte stride between consecutive pairs' SafeDM APB banks.
    pub const BANK_STRIDE: u64 = 0x100;

    /// Builds the SoC and one monitor on cores 0 and 1: the
    /// `with_pairs(soc_cfg, dm_cfg, &[(0, 1)])` case.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid or the SoC has fewer than
    /// two cores.
    #[must_use]
    pub fn new(soc_cfg: SocConfig, dm_cfg: SafeDmConfig) -> MonitoredSoc {
        MonitoredSoc::with_pairs(soc_cfg, dm_cfg, &[(0, 1)])
    }

    /// Builds the SoC and one monitor per pair, pair `i`'s bank at
    /// [`BANK_STRIDE`](Self::BANK_STRIDE)` × i`, each powered on enabled in
    /// `dm_cfg.report_mode` (see [`regs::power_on`]).
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid, `pairs` is empty, a pair
    /// references a missing core, a core appears in two pairs, or a pair
    /// monitors a core against itself.
    #[must_use]
    pub fn with_pairs(
        soc_cfg: SocConfig,
        dm_cfg: SafeDmConfig,
        pairs: &[(usize, usize)],
    ) -> MonitoredSoc {
        assert!(!pairs.is_empty(), "SafeDM needs at least one redundant pair");
        let mut soc = MpSoc::new(soc_cfg);
        let mut seen = vec![false; soc.core_count()];
        let mut slots = Vec::with_capacity(pairs.len());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert!(a != b, "a pair must reference two distinct cores");
            assert!(
                a < soc.core_count() && b < soc.core_count(),
                "pair ({a},{b}) outside the {}-core SoC",
                soc.core_count()
            );
            assert!(!seen[a] && !seen[b], "core used by two pairs");
            seen[a] = true;
            seen[b] = true;
            let base = soc.config().apb_base + SAFEDM_APB_OFFSET + Self::BANK_STRIDE * i as u64;
            let mut bank = ApbRegisterFile::new(base, regmap::REG_COUNT);
            regs::power_on(&mut bank, dm_cfg.report_mode);
            let apb_index = soc.uncore_mut().add_apb_slave(bank);
            slots.push(Pair {
                cores: (a, b),
                dm: SafeDm::new(dm_cfg),
                apb_index,
                applied_writes: None,
            });
        }
        MonitoredSoc { soc, pairs: slots, safede: None }
    }

    /// Attaches a SafeDE enforcement module (driven each cycle before the
    /// monitors observe).
    pub fn attach_safede(&mut self, safede: SafeDe) {
        self.safede = Some(safede);
    }

    /// Detaches SafeDE, returning it (with its statistics).
    pub fn detach_safede(&mut self) -> Option<SafeDe> {
        self.safede.take()
    }

    /// Loads the redundant program (every core, same image) and resets the
    /// monitors.
    pub fn load_program(&mut self, prog: &Program) {
        self.soc.load_program(prog);
        for p in &mut self.pairs {
            p.dm.reset();
            p.applied_writes = None;
        }
    }

    /// One cycle: SoC, then SafeDE (if attached), then per pair the APB
    /// command application (when the bank may have changed, see the type's
    /// docs) and the SafeDM observation — so a control write (guest or
    /// host) takes effect before the cycle is judged — and, while an APB
    /// read is pending or on the bus, the APB mirror. Returns pair 0's
    /// verdict; the others are in [`SafeDm::last_report`].
    ///
    /// A guest read completes at the start of a cycle and sees the mirror
    /// taken at the end of the cycle before, so it reads exactly what a
    /// mirror taken every cycle would show. Between manual `step` calls the
    /// counter registers of a bank show the last mirror;
    /// [`run`](Self::run) and [`run_with`](Self::run_with) mirror every bank
    /// when they end.
    pub fn step(&mut self) -> CycleReport {
        self.soc.step();
        self.post_step()
    }

    /// Like [`MonitoredSoc::step`], attributing wall-clock time per
    /// component to `prof`: the SoC's `uncore`/`coreN` phases plus a
    /// `monitor` phase covering SafeDE, SafeDM and the APB mirror.
    pub fn step_profiled(&mut self, prof: &mut safedm_obs::SelfProfiler) -> CycleReport {
        self.soc.step_profiled(prof);
        prof.time_named("monitor", || self.post_step())
    }

    fn post_step(&mut self) -> CycleReport {
        if let Some(de) = self.safede.as_mut() {
            de.control(&mut self.soc);
        }
        let readable = self.soc.uncore().apb_read_in_flight();
        let (first, rest) = self.pairs.split_first_mut().expect("at least one pair");
        let report = Self::judge(&mut self.soc, first, readable);
        for p in rest {
            Self::judge(&mut self.soc, p, readable);
        }
        report
    }

    /// One pair's share of [`post_step`](Self::post_step): apply its bank
    /// if it may have changed, observe, and mirror while `readable`.
    fn judge(soc: &mut MpSoc, p: &mut Pair, readable: bool) -> CycleReport {
        let bank = soc.uncore_mut().apb_slave_mut(p.apb_index);
        let writes = bank.write_count();
        if p.applied_writes != Some(writes) {
            regs::apply_commands(&mut p.dm, bank);
            p.applied_writes = Some(writes);
        }
        let report = p.dm.observe(soc.probe(p.cores.0), soc.probe(p.cores.1));
        if readable {
            regs::mirror(&p.dm, soc.uncore_mut().apb_slave_mut(p.apb_index));
        }
        report
    }

    /// Runs until every core halts and its store buffer drains, or
    /// `max_cycles` more cycles pass, handing each stepped cycle and its
    /// pair-0 verdict to `on_cycle`. Then finishes every monitor and
    /// re-mirrors its bank, so the APB registers expose the final state
    /// (episode totals included).
    ///
    /// The observer sees the system by shared reference only: observing a
    /// run cannot steer it.
    pub fn run_with(
        &mut self,
        max_cycles: u64,
        mut on_cycle: impl FnMut(&MonitoredSoc, &CycleReport),
    ) -> MonitoredRun {
        let start = self.soc.cycle();
        while self.soc.cycle() - start < max_cycles && !self.drained() {
            let report = self.step();
            on_cycle(self, &report);
        }
        for p in &mut self.pairs {
            p.dm.finish();
            regs::mirror(&p.dm, self.soc.uncore_mut().apb_slave_mut(p.apb_index));
        }
        let dm = self.monitor();
        MonitoredRun {
            run: RunResult {
                cycles: self.soc.cycle() - start,
                exits: (0..self.soc.core_count()).map(|i| self.soc.core(i).exit()).collect(),
                timed_out: !self.soc.all_halted(),
            },
            zero_stag_cycles: dm.instruction_diff().zero_cycles(),
            no_div_cycles: dm.counters().no_div_cycles,
            cycles_observed: dm.counters().cycles_observed,
            irq: dm.irq_pending(),
        }
    }

    /// [`MonitoredSoc::run_with`] without an observer.
    pub fn run(&mut self, max_cycles: u64) -> MonitoredRun {
        self.run_with(max_cycles, |_, _| {})
    }

    /// Whether every core halted and drained its store buffer.
    fn drained(&self) -> bool {
        self.soc.all_halted()
            && (0..self.soc.core_count()).all(|i| self.soc.core(i).store_buffer_len() == 0)
    }

    /// The underlying SoC.
    #[must_use]
    pub fn soc(&self) -> &MpSoc {
        &self.soc
    }

    /// Mutable SoC access (fault injection, manual stepping setup). The
    /// next step re-applies every bank, which this access could change.
    pub fn soc_mut(&mut self) -> &mut MpSoc {
        for p in &mut self.pairs {
            p.applied_writes = None;
        }
        &mut self.soc
    }

    /// Number of monitored pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Pair `i`: its cores, its monitor and the APB bank mirroring it.
    /// The bank's counter registers show the last mirror: current after
    /// [`run`](Self::run) or [`run_with`](Self::run_with), possibly stale
    /// between manual [`step`](Self::step) calls.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn pair(&self, i: usize) -> ((usize, usize), &SafeDm, &ApbRegisterFile) {
        let p = &self.pairs[i];
        (p.cores, &p.dm, self.soc.uncore().apb_slave(p.apb_index))
    }

    /// Pair 0's monitor.
    #[must_use]
    pub fn monitor(&self) -> &SafeDm {
        &self.pairs[0].dm
    }

    /// Mutable access to pair 0's monitor (host-side presets such as
    /// [`SafeDm::preset_diff`]). Its enable flag, report mode and IRQ
    /// follow pair 0's bank again from the next step on (see the type's
    /// docs); program those through [`write_ctrl`](Self::write_ctrl).
    pub fn monitor_mut(&mut self) -> &mut SafeDm {
        self.pairs[0].applied_writes = None;
        &mut self.pairs[0].dm
    }

    /// The attached SafeDE module, if any.
    #[must_use]
    pub fn safede(&self) -> Option<&SafeDe> {
        self.safede.as_ref()
    }

    /// The APB bank mirroring pair 0's monitor registers (as of the last
    /// mirror, see [`pair`](Self::pair)).
    #[must_use]
    pub fn apb_bank(&self) -> &ApbRegisterFile {
        self.pair(0).2
    }

    /// Host-side write to pair 0's CTRL register (takes effect at the next
    /// cycle's command application, like an RTOS APB write would).
    pub fn write_ctrl(&mut self, value: u64) {
        self.write_reg(regmap::CTRL, value);
    }

    /// Host-side write to pair 0's THRESHOLD register (used by the
    /// interrupt-after-count reporting mode).
    pub fn write_threshold(&mut self, value: u64) {
        self.write_reg(regmap::THRESHOLD, value);
    }

    fn write_reg(&mut self, reg: usize, value: u64) {
        self.soc.uncore_mut().apb_slave_mut(self.pairs[0].apb_index).set_reg(reg, value);
        self.pairs[0].applied_writes = None;
    }
}

// The parallel campaign engine (`safedm-campaign`) moves whole monitored
// systems and their results across worker threads. Keep that possible by
// construction: a non-Send field sneaking into the run types (an Rc-shared
// cache, a raw-pointer probe, a thread-local) breaks every `--jobs N` bench
// at compile time, here, rather than at the first parallel campaign.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MonitoredSoc>();
    assert_send::<MonitoredRun>();
    assert_send::<TraceSample>();
    assert_send::<crate::SafeDm>();
    assert_send::<crate::SafeDmConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportMode;
    use safedm_asm::Asm;
    use safedm_isa::Reg;

    fn loop_prog(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(Reg::T0, iters);
        let top = a.here("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        a.link(0x8000_0000).unwrap()
    }

    fn four_core() -> SocConfig {
        SocConfig { cores: 4, ..SocConfig::default() }
    }

    /// The single-pair system and a two-pair one on four cores.
    fn systems(dm_cfg: SafeDmConfig) -> [MonitoredSoc; 2] {
        [
            MonitoredSoc::new(SocConfig::default(), dm_cfg),
            MonitoredSoc::with_pairs(four_core(), dm_cfg, &[(0, 1), (2, 3)]),
        ]
    }

    #[test]
    fn monitored_run_produces_counts() {
        let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
        sys.load_program(&loop_prog(500));
        let out = sys.run(1_000_000);
        assert!(out.run.all_clean());
        assert!(out.cycles_observed > 0);
        // Identical programs from the same cycle: some zero-staggering at
        // the start, strictly fewer (or equal) no-diversity cycles.
        assert!(out.zero_stag_cycles > 0);
        assert!(out.no_div_cycles <= out.zero_stag_cycles + out.cycles_observed);
    }

    #[test]
    fn apb_bank_mirrors_counters() {
        let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
        sys.load_program(&loop_prog(100));
        let out = sys.run(1_000_000);
        let bank = sys.apb_bank();
        assert_eq!(bank.reg(regmap::CYCLES_OBSERVED), out.cycles_observed);
        assert_eq!(bank.reg(regmap::NO_DIV_CYCLES), out.no_div_cycles);
        assert_eq!(bank.reg(regmap::ZERO_STAG_CYCLES), out.zero_stag_cycles);
    }

    #[test]
    fn trace_records_every_cycle() {
        let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
        sys.load_program(&loop_prog(50));
        let mut trace = Vec::new();
        let out = sys.run_with(1_000_000, |sys, report| trace.push(TraceSample::new(sys, report)));
        assert_eq!(trace.len() as u64, out.run.cycles);
        // A pure-register countdown keeps identical cores in lockstep
        // (shared-code fetches merge): staggering stays zero throughout.
        assert!(trace.iter().all(|s| s.diff == 0));
        assert!(trace.iter().any(|s| s.no_diversity), "lockstep implies no diversity");
    }

    #[test]
    fn safede_attachment_is_intrusive() {
        let baseline = {
            let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
            sys.load_program(&loop_prog(2000));
            sys.run(4_000_000).run.cycles
        };
        let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
        sys.load_program(&loop_prog(2000));
        sys.attach_safede(SafeDe::new(crate::SafeDeConfig {
            threshold: 200,
            ..crate::SafeDeConfig::default()
        }));
        let out = sys.run(4_000_000);
        assert!(out.run.all_clean());
        assert!(
            out.run.cycles > baseline,
            "SafeDE must lengthen the run ({} vs {baseline})",
            out.run.cycles
        );
        assert!(sys.safede().unwrap().stall_cycles() > 0);
    }

    #[test]
    fn two_pairs_monitor_independently() {
        let mut sys =
            MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(0, 1), (2, 3)]);
        sys.load_program(&loop_prog(300));
        assert!(sys.run(10_000_000).run.all_clean());
        assert_eq!(sys.pair_count(), 2);
        for i in 0..2 {
            let (_, dm, bank) = sys.pair(i);
            let c = dm.counters();
            assert!(c.cycles_observed > 0, "pair {i} observed nothing");
            assert_eq!(bank.reg(regmap::CYCLES_OBSERVED), c.cycles_observed);
        }
        // All four cores run the same register-only program in lockstep:
        // both pairs should agree on full no-diversity.
        assert_eq!(sys.pair(0).1.counters().no_div_cycles, sys.pair(1).1.counters().no_div_cycles);
    }

    #[test]
    fn every_bank_shows_the_final_state_after_a_budget_limited_run() {
        let mut sys =
            MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(0, 1), (2, 3)]);
        sys.load_program(&loop_prog(100_000));
        assert!(sys.run(500).run.timed_out);
        for i in 0..2 {
            let (_, dm, bank) = sys.pair(i);
            assert!(dm.finished(), "pair {i}");
            assert_eq!(bank.reg(regmap::STATUS) & 2, 2, "pair {i}: STATUS.finished");
            assert_eq!(
                bank.reg(regmap::NO_DIV_EPISODES),
                dm.no_diversity_history().total_episodes(),
                "pair {i}: the episode open at the budget counts"
            );
        }
    }

    #[test]
    fn configured_polling_mode_never_interrupts() {
        let cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
        for mut sys in systems(cfg) {
            sys.load_program(&loop_prog(100));
            let out = sys.run(10_000_000);
            assert!(out.run.all_clean());
            assert!(!out.irq);
            for i in 0..sys.pair_count() {
                let (_, dm, bank) = sys.pair(i);
                assert!(dm.counters().no_div_cycles > 0, "pair {i}: the lockstep loop");
                assert!(!dm.irq_pending(), "pair {i}");
                assert_eq!(bank.reg(regmap::STATUS) & 1, 0, "pair {i}");
            }
        }
    }

    #[test]
    fn configured_threshold_mode_interrupts_at_its_count() {
        let k = 20;
        let cfg = SafeDmConfig {
            report_mode: ReportMode::InterruptThreshold(k),
            ..SafeDmConfig::default()
        };
        for mut sys in systems(cfg) {
            sys.load_program(&loop_prog(100));
            for i in 0..sys.pair_count() {
                assert_eq!(sys.pair(i).2.reg(regmap::THRESHOLD), k, "pair {i}");
            }
            sys.run_with(1_000_000, |sys, _| {
                for i in 0..sys.pair_count() {
                    let dm = sys.pair(i).1;
                    assert_eq!(dm.irq_pending(), dm.counters().no_div_cycles >= k, "pair {i}");
                }
            });
            assert!(sys.monitor().counters().no_div_cycles >= k, "the run reaches the threshold");
        }
    }

    #[test]
    fn cross_pair_configuration_is_possible() {
        // Pairing (0,2) and (1,3) is equally valid.
        let mut sys =
            MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(0, 2), (1, 3)]);
        sys.load_program(&loop_prog(100));
        assert!(sys.run(10_000_000).run.all_clean());
        assert_eq!(sys.pair(0).0, (0, 2));
    }

    #[test]
    fn monitored_soc_requires_two_cores() {
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let r = std::panic::catch_unwind(|| MonitoredSoc::new(cfg, SafeDmConfig::default()));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "core used by two pairs")]
    fn overlapping_pairs_rejected() {
        let _ = MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "two distinct cores")]
    fn self_pair_rejected() {
        let _ = MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_pair_rejected() {
        let _ = MonitoredSoc::with_pairs(four_core(), SafeDmConfig::default(), &[(0, 7)]);
    }
}
