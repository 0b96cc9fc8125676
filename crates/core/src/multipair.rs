//! [`MultiPairSoc`]: several SafeDM instances on one MPSoC.
//!
//! The De-RISC platform the paper integrates into is a 4-core space MPSoC;
//! a realistic deployment runs two redundant pairs, each watched by its own
//! SafeDM instance with its own APB bank. This wrapper generalises
//! [`MonitoredSoc`](crate::MonitoredSoc) to an arbitrary set of disjoint
//! core pairs.

use safedm_asm::Program;
use safedm_soc::{ApbRegisterFile, MpSoc, RunResult, SocConfig};

use crate::regs::{self, regmap};
use crate::{CycleReport, SafeDm, SafeDmConfig};

/// One monitored pair: which cores, the monitor, and its APB bank index.
#[derive(Debug)]
struct PairSlot {
    cores: (usize, usize),
    dm: SafeDm,
    apb_index: usize,
}

/// An MPSoC with one SafeDM instance per redundant core pair.
///
/// # Examples
///
/// ```
/// use safedm_core::{MultiPairSoc, SafeDmConfig};
/// use safedm_soc::SocConfig;
/// use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};
///
/// let mut cfg = SocConfig::default();
/// cfg.cores = 4;
/// let mut sys = MultiPairSoc::new(cfg, SafeDmConfig::default(), &[(0, 1), (2, 3)]);
/// let prog = build_kernel_program(
///     kernels::by_name("fac").unwrap(),
///     &HarnessConfig::default(),
/// );
/// sys.load_program(&prog);
/// let out = sys.run(100_000_000);
/// assert!(out.all_clean());
/// assert!(sys.monitor(0).counters().cycles_observed > 0);
/// assert!(sys.monitor(1).counters().cycles_observed > 0);
/// ```
#[derive(Debug)]
pub struct MultiPairSoc {
    soc: MpSoc,
    pairs: Vec<PairSlot>,
}

impl MultiPairSoc {
    /// Byte stride between consecutive SafeDM APB banks.
    pub const BANK_STRIDE: u64 = 0x100;

    /// Builds the SoC and one monitor per pair, each bank powered on
    /// enabled in `dm_cfg.report_mode` (see [`regs::power_on`]).
    ///
    /// # Panics
    ///
    /// Panics when a pair references a missing core, a core appears in two
    /// pairs, or a pair monitors a core against itself.
    #[must_use]
    pub fn new(soc_cfg: SocConfig, dm_cfg: SafeDmConfig, pairs: &[(usize, usize)]) -> MultiPairSoc {
        let mut soc = MpSoc::new(soc_cfg);
        let mut seen = vec![false; soc.core_count()];
        let mut slots = Vec::new();
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
            let base = soc.config().apb_base + Self::BANK_STRIDE * i as u64;
            let mut bank = ApbRegisterFile::new(base, regmap::REG_COUNT);
            regs::power_on(&mut bank, dm_cfg.report_mode);
            let apb_index = soc.uncore_mut().add_apb_slave(bank);
            slots.push(PairSlot { cores: (a, b), dm: SafeDm::new(dm_cfg), apb_index });
        }
        MultiPairSoc { soc, pairs: slots }
    }

    /// Loads the redundant program on every core and resets the monitors.
    pub fn load_program(&mut self, prog: &Program) {
        self.soc.load_program(prog);
        for p in &mut self.pairs {
            p.dm.reset();
        }
    }

    /// One cycle: SoC, then every pair's command application, observation
    /// and mirror.
    pub fn step(&mut self) -> Vec<CycleReport> {
        self.soc.step();
        let mut reports = Vec::with_capacity(self.pairs.len());
        for p in &mut self.pairs {
            {
                let bank = self.soc.uncore_mut().apb_slave_mut(p.apb_index);
                regs::apply_commands(&mut p.dm, bank);
            }
            let report = {
                let (a, b) = p.cores;
                let pa = self.soc.probe(a);
                let pb = self.soc.probe(b);
                p.dm.observe(pa, pb)
            };
            let bank = self.soc.uncore_mut().apb_slave_mut(p.apb_index);
            regs::mirror(&p.dm, bank);
            reports.push(report);
        }
        reports
    }

    /// Runs until all cores halt (and drain) or the budget expires.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let start = self.soc.cycle();
        while self.soc.cycle() - start < max_cycles {
            if self.soc.all_halted()
                && (0..self.soc.core_count()).all(|i| self.soc.core(i).store_buffer_len() == 0)
            {
                break;
            }
            self.step();
        }
        for p in &mut self.pairs {
            p.dm.finish();
        }
        RunResult {
            cycles: self.soc.cycle() - start,
            exits: (0..self.soc.core_count()).map(|i| self.soc.core(i).exit()).collect(),
            timed_out: !self.soc.all_halted(),
        }
    }

    /// Number of monitored pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The cores of pair `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn pair_cores(&self, i: usize) -> (usize, usize) {
        self.pairs[i].cores
    }

    /// The monitor of pair `i`.
    #[must_use]
    pub fn monitor(&self, i: usize) -> &SafeDm {
        &self.pairs[i].dm
    }

    /// Mutable monitor access for pair `i`.
    pub fn monitor_mut(&mut self, i: usize) -> &mut SafeDm {
        &mut self.pairs[i].dm
    }

    /// The APB bank of pair `i`.
    #[must_use]
    pub fn apb_bank(&self, i: usize) -> &ApbRegisterFile {
        self.soc.uncore().apb_slave(self.pairs[i].apb_index)
    }

    /// The underlying SoC.
    #[must_use]
    pub fn soc(&self) -> &MpSoc {
        &self.soc
    }

    /// Mutable SoC access.
    pub fn soc_mut(&mut self) -> &mut MpSoc {
        &mut self.soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportMode;
    use safedm_asm::Asm;
    use safedm_isa::Reg;

    fn four_core() -> SocConfig {
        SocConfig { cores: 4, ..SocConfig::default() }
    }

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
    fn two_pairs_monitor_independently() {
        let mut sys = MultiPairSoc::new(four_core(), SafeDmConfig::default(), &[(0, 1), (2, 3)]);
        sys.load_program(&loop_prog(300));
        let out = sys.run(10_000_000);
        assert!(out.all_clean());
        assert_eq!(sys.pair_count(), 2);
        for i in 0..2 {
            let c = sys.monitor(i).counters();
            assert!(c.cycles_observed > 0, "pair {i} observed nothing");
            assert_eq!(sys.apb_bank(i).reg(regmap::CYCLES_OBSERVED), c.cycles_observed);
        }
        // All four cores run the same register-only program in lockstep:
        // both pairs should agree on full no-diversity.
        assert_eq!(
            sys.monitor(0).counters().no_div_cycles,
            sys.monitor(1).counters().no_div_cycles
        );
    }

    #[test]
    fn configured_polling_mode_never_interrupts() {
        let cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
        let mut sys = MultiPairSoc::new(four_core(), cfg, &[(0, 1), (2, 3)]);
        sys.load_program(&loop_prog(100));
        assert!(sys.run(10_000_000).all_clean());
        for i in 0..2 {
            assert!(sys.monitor(i).counters().no_div_cycles > 0, "pair {i} stays in lockstep");
            assert!(!sys.monitor(i).irq_pending(), "pair {i}");
            assert_eq!(sys.apb_bank(i).reg(regmap::STATUS) & 1, 0, "pair {i}");
        }
    }

    #[test]
    fn configured_threshold_mode_interrupts_at_its_count() {
        let k = 20;
        let cfg = SafeDmConfig {
            report_mode: ReportMode::InterruptThreshold(k),
            ..SafeDmConfig::default()
        };
        let mut sys = MultiPairSoc::new(four_core(), cfg, &[(0, 1), (2, 3)]);
        sys.load_program(&loop_prog(100));
        for i in 0..2 {
            assert_eq!(sys.apb_bank(i).reg(regmap::THRESHOLD), k, "pair {i}");
        }
        while !sys.soc().all_halted() {
            sys.step();
            for i in 0..2 {
                let dm = sys.monitor(i);
                assert_eq!(dm.irq_pending(), dm.counters().no_div_cycles >= k, "pair {i}");
            }
        }
        assert!(sys.monitor(0).counters().no_div_cycles >= k, "the run reaches the threshold");
    }

    #[test]
    fn cross_pair_configuration_is_possible() {
        // Pairing (0,2) and (1,3) is equally valid.
        let mut sys = MultiPairSoc::new(four_core(), SafeDmConfig::default(), &[(0, 2), (1, 3)]);
        sys.load_program(&loop_prog(100));
        assert!(sys.run(10_000_000).all_clean());
        assert_eq!(sys.pair_cores(0), (0, 2));
    }

    #[test]
    #[should_panic(expected = "core used by two pairs")]
    fn overlapping_pairs_rejected() {
        let _ = MultiPairSoc::new(four_core(), SafeDmConfig::default(), &[(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "two distinct cores")]
    fn self_pair_rejected() {
        let _ = MultiPairSoc::new(four_core(), SafeDmConfig::default(), &[(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_pair_rejected() {
        let _ = MultiPairSoc::new(four_core(), SafeDmConfig::default(), &[(0, 7)]);
    }
}
