//! [`MonitoredSoc`]: the MPSoC with SafeDM attached, the model equivalent of
//! Fig. 3 of the paper (SafeDM on the APB, observing cores 0 and 1).

use safedm_asm::Program;
use safedm_soc::{ApbRegisterFile, MpSoc, RunResult, SocConfig};

use safedm_analysis::AnalysisConfig;

use crate::gate::DiversityGate;
use crate::obs::RunObserver;
use crate::regs::{self, regmap};
use crate::{CycleReport, SafeDe, SafeDm, SafeDmConfig};

/// One sample of the optional per-cycle trace (used for the staggering
/// time-series figure).
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

/// Result of a monitored run: the SoC outcome plus the monitor's verdicts.
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

/// The MPSoC with a SafeDM instance wired to cores 0 and 1 and mirrored
/// into an APB slave bank.
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
/// # Ok::<(), safedm_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct MonitoredSoc {
    soc: MpSoc,
    dm: SafeDm,
    safede: Option<SafeDe>,
    apb_index: usize,
    trace: Option<Vec<TraceSample>>,
    gate_cfg: Option<AnalysisConfig>,
    gate: Option<DiversityGate>,
    obs: Option<RunObserver>,
}

/// Byte offset of the SafeDM register bank inside the APB window.
pub const SAFEDM_APB_OFFSET: u64 = 0;

impl MonitoredSoc {
    /// Builds the SoC, the monitor and the APB bank. The bank powers on
    /// enabled in `dm_cfg.report_mode` (see [`regs::power_on`]).
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid or the SoC has fewer than
    /// two cores (the monitor observes cores 0 and 1).
    #[must_use]
    pub fn new(soc_cfg: SocConfig, dm_cfg: SafeDmConfig) -> MonitoredSoc {
        assert!(soc_cfg.cores >= 2, "SafeDM monitors a redundant pair (need 2 cores)");
        let mut soc = MpSoc::new(soc_cfg);
        let base = soc.config().apb_base + SAFEDM_APB_OFFSET;
        let mut bank = ApbRegisterFile::new(base, regmap::REG_COUNT);
        regs::power_on(&mut bank, dm_cfg.report_mode);
        let apb_index = soc.uncore_mut().add_apb_slave(bank);
        MonitoredSoc {
            soc,
            dm: SafeDm::new(dm_cfg),
            safede: None,
            apb_index,
            trace: None,
            gate_cfg: None,
            gate: None,
            obs: None,
        }
    }

    /// Enables the optional pre-run static gate: every subsequent
    /// [`MonitoredSoc::load_program`] runs the `safedm-analysis` lints on
    /// the image and arms a [`DiversityGate`] that cross-validates the
    /// guaranteed (DIV001/DIV002) findings against the runtime monitor.
    pub fn enable_static_gate(&mut self, cfg: AnalysisConfig) {
        self.gate_cfg = Some(cfg);
    }

    /// The armed gate (present once a program was loaded with the static
    /// gate enabled).
    #[must_use]
    pub fn gate(&self) -> Option<&DiversityGate> {
        self.gate.as_ref()
    }

    /// Detaches the gate with its accumulated cross-validation counters.
    pub fn detach_gate(&mut self) -> Option<DiversityGate> {
        self.gate.take()
    }

    /// Attaches a SafeDE enforcement module (driven each cycle before the
    /// monitor observes).
    pub fn attach_safede(&mut self, safede: SafeDe) {
        self.safede = Some(safede);
    }

    /// Detaches SafeDE, returning it (with its statistics).
    pub fn detach_safede(&mut self) -> Option<SafeDe> {
        self.safede.take()
    }

    /// Attaches a [`RunObserver`] that is fed every subsequent cycle.
    pub fn attach_obs(&mut self, obs: RunObserver) {
        self.obs = Some(obs);
    }

    /// The attached observer, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&RunObserver> {
        self.obs.as_ref()
    }

    /// Mutable observer access (phase spans, extra metrics).
    pub fn observer_mut(&mut self) -> Option<&mut RunObserver> {
        self.obs.as_mut()
    }

    /// Detaches the observer, finalising it first (open spans are closed at
    /// the current cycle and a last metric sample is taken).
    pub fn detach_obs(&mut self) -> Option<RunObserver> {
        let mut obs = self.obs.take()?;
        obs.finish(&self.soc, &self.dm);
        Some(obs)
    }

    /// Starts recording a per-cycle trace.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace.
    pub fn take_trace(&mut self) -> Vec<TraceSample> {
        self.trace.take().unwrap_or_default()
    }

    /// Loads the redundant program (both cores, same image). With the
    /// static gate enabled, also analyzes the image and arms the gate.
    pub fn load_program(&mut self, prog: &Program) {
        self.soc.load_program(prog);
        self.dm.reset();
        if let Some(cfg) = &self.gate_cfg {
            let report = safedm_analysis::analyze(prog, cfg);
            self.gate = Some(DiversityGate::new(report));
        }
    }

    /// One cycle: SoC, then SafeDE (if attached), then APB command
    /// application, then SafeDM observation, then the APB mirror — so a
    /// control write (guest or host) takes effect before the cycle is
    /// judged.
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
        {
            let bank = self.soc.uncore_mut().apb_slave_mut(self.apb_index);
            regs::apply_commands(&mut self.dm, bank);
        }
        let report = {
            let (p0, p1) = (self.soc.probe(0), self.soc.probe(1));
            self.dm.observe(p0, p1)
        };
        let bank = self.soc.uncore_mut().apb_slave_mut(self.apb_index);
        regs::mirror(&self.dm, bank);
        if let Some(gate) = self.gate.as_mut() {
            gate.observe(self.soc.core(0).last_commit_pc(), &report);
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceSample {
                cycle: self.soc.cycle(),
                diff: self.dm.instruction_diff().value(),
                zero_stagger: report.zero_stagger && report.observed,
                ds_match: report.ds_match,
                is_match: report.is_match,
                no_diversity: report.no_diversity,
            });
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.on_cycle(&self.soc, &self.dm, &report);
        }
        report
    }

    /// Runs until both cores halt (and store buffers drain) or the budget
    /// expires, then finishes the monitor.
    pub fn run(&mut self, max_cycles: u64) -> MonitoredRun {
        let start = self.soc.cycle();
        while self.soc.cycle() - start < max_cycles {
            if self.soc.all_halted()
                && (0..self.soc.core_count()).all(|i| self.soc.core(i).store_buffer_len() == 0)
            {
                break;
            }
            self.step();
        }
        self.dm.finish();
        // finish() closes any open match episode; re-mirror so the APB bank
        // exposes the final counter state (episode totals included).
        let bank = self.soc.uncore_mut().apb_slave_mut(self.apb_index);
        regs::mirror(&self.dm, bank);
        let run = RunResult {
            cycles: self.soc.cycle() - start,
            exits: (0..self.soc.core_count()).map(|i| self.soc.core(i).exit()).collect(),
            timed_out: !self.soc.all_halted(),
        };
        MonitoredRun {
            zero_stag_cycles: self.dm.instruction_diff().zero_cycles(),
            no_div_cycles: self.dm.counters().no_div_cycles,
            cycles_observed: self.dm.counters().cycles_observed,
            irq: self.dm.irq_pending(),
            run,
        }
    }

    /// The underlying SoC.
    #[must_use]
    pub fn soc(&self) -> &MpSoc {
        &self.soc
    }

    /// Mutable SoC access (fault injection, manual stepping setup).
    pub fn soc_mut(&mut self) -> &mut MpSoc {
        &mut self.soc
    }

    /// The monitor.
    #[must_use]
    pub fn monitor(&self) -> &SafeDm {
        &self.dm
    }

    /// Mutable monitor access (mode programming from the host side).
    pub fn monitor_mut(&mut self) -> &mut SafeDm {
        &mut self.dm
    }

    /// The attached SafeDE module, if any.
    #[must_use]
    pub fn safede(&self) -> Option<&SafeDe> {
        self.safede.as_ref()
    }

    /// The APB bank mirroring the monitor registers.
    #[must_use]
    pub fn apb_bank(&self) -> &ApbRegisterFile {
        self.soc.uncore().apb_slave(self.apb_index)
    }

    /// Host-side write to the monitor's CTRL register (takes effect at the
    /// next cycle's command application, like an RTOS APB write would).
    pub fn write_ctrl(&mut self, value: u64) {
        self.soc.uncore_mut().apb_slave_mut(self.apb_index).set_reg(regmap::CTRL, value);
    }

    /// Host-side write to the monitor's THRESHOLD register (used by the
    /// interrupt-after-count reporting mode).
    pub fn write_threshold(&mut self, value: u64) {
        self.soc.uncore_mut().apb_slave_mut(self.apb_index).set_reg(regmap::THRESHOLD, value);
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
        sys.enable_trace();
        let out = sys.run(1_000_000);
        let trace = sys.take_trace();
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
    fn configured_polling_mode_never_interrupts() {
        let cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
        let mut sys = MonitoredSoc::new(SocConfig::default(), cfg);
        sys.load_program(&loop_prog(100));
        let out = sys.run(1_000_000);
        assert!(out.no_div_cycles > 0, "the lockstep loop loses diversity");
        assert!(!out.irq);
        assert_eq!(sys.apb_bank().reg(regmap::STATUS) & 1, 0);
    }

    #[test]
    fn configured_threshold_mode_interrupts_at_its_count() {
        let k = 20;
        let cfg = SafeDmConfig {
            report_mode: ReportMode::InterruptThreshold(k),
            ..SafeDmConfig::default()
        };
        let mut sys = MonitoredSoc::new(SocConfig::default(), cfg);
        sys.load_program(&loop_prog(100));
        assert_eq!(sys.apb_bank().reg(regmap::THRESHOLD), k);
        while !sys.soc().all_halted() {
            sys.step();
            let dm = sys.monitor();
            assert_eq!(dm.irq_pending(), dm.counters().no_div_cycles >= k);
        }
        assert!(sys.monitor().counters().no_div_cycles >= k, "the run reaches the threshold");
    }

    #[test]
    fn monitored_soc_requires_two_cores() {
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let r = std::panic::catch_unwind(|| MonitoredSoc::new(cfg, SafeDmConfig::default()));
        assert!(r.is_err());
    }
}
