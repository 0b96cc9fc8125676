//! The SafeDM Diversity Monitor (paper, Section III-B3).
//!
//! SafeDM observes two cores' probes every cycle, maintains their Data and
//! Instruction Signatures, and flags **lack of diversity** exactly when both
//! signatures are bit-identical across the cores. By construction the
//! monitor can report false positives (diversity may exist in sources it
//! does not observe) but never false negatives: if any observed state bit
//! differs, the cores are physically diverse and no flag is raised.

use safedm_soc::CoreProbe;

use crate::{
    DataSignature, EpisodeTracker, Histogram, InstructionDiff, InstructionSignature, ReportMode,
    SafeDmConfig,
};

/// What the monitor concluded in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReport {
    /// The Data Signatures matched (no data diversity).
    pub ds_match: bool,
    /// The Instruction Signatures matched (no instruction diversity).
    pub is_match: bool,
    /// Lack of diversity: both signatures matched.
    pub no_diversity: bool,
    /// The committed-instruction staggering is currently zero.
    pub zero_stagger: bool,
    /// Whether this cycle was actually monitored (false once a core halts
    /// or while the monitor is disabled).
    pub observed: bool,
}

impl Default for CycleReport {
    fn default() -> CycleReport {
        CycleReport {
            ds_match: false,
            is_match: false,
            no_diversity: false,
            zero_stagger: true,
            observed: false,
        }
    }
}

/// Aggregate diversity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiversityCounters {
    /// Monitored cycles.
    pub cycles_observed: u64,
    /// Cycles with matching Data Signatures.
    pub ds_match_cycles: u64,
    /// Cycles with matching Instruction Signatures.
    pub is_match_cycles: u64,
    /// Cycles without diversity (both matched) — the Table I "No div".
    pub no_div_cycles: u64,
}

/// Accumulated Hamming-distance statistics (when
/// [`SafeDmConfig::track_hamming`] is enabled): a *magnitude* of diversity
/// beyond the paper's binary verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HammingStats {
    /// Sum of per-cycle DS distances.
    pub ds_sum: u64,
    /// Sum of per-cycle IS distances.
    pub is_sum: u64,
    /// Minimum combined distance over observed cycles.
    pub min_total: u32,
    /// Maximum combined distance over observed cycles.
    pub max_total: u32,
    /// Most recent `(ds, is)` distances.
    pub last: (u32, u32),
}

/// The SafeDM hardware diversity monitor.
///
/// # Examples
///
/// Two probes with identical state produce a no-diversity report:
///
/// ```
/// use safedm_core::{SafeDm, SafeDmConfig};
/// use safedm_soc::CoreProbe;
///
/// let mut dm = SafeDm::new(SafeDmConfig::default());
/// let p = CoreProbe::default();
/// let report = dm.observe(&p, &p);
/// assert!(report.no_diversity);
/// assert!(dm.irq_pending()); // default mode interrupts on first loss
/// ```
#[derive(Debug, Clone)]
pub struct SafeDm {
    cfg: SafeDmConfig,
    enabled: bool,
    ds: [DataSignature; 2],
    is: [InstructionSignature; 2],
    /// `(ds_match, is_match)` of the signatures as they stand.
    matches: (bool, bool),
    diff: InstructionDiff,
    counters: DiversityCounters,
    no_div_episodes: EpisodeTracker,
    ds_episodes: EpisodeTracker,
    is_episodes: EpisodeTracker,
    irq: bool,
    finished: bool,
    last: CycleReport,
    hamming: Option<HammingStats>,
}

impl SafeDm {
    /// Builds a monitor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: SafeDmConfig) -> SafeDm {
        cfg.validate();
        SafeDm {
            enabled: true,
            ds: [DataSignature::new(&cfg), DataSignature::new(&cfg)],
            is: [InstructionSignature::new(&cfg), InstructionSignature::new(&cfg)],
            // Two power-on signatures are equal.
            matches: (true, true),
            diff: InstructionDiff::new(),
            counters: DiversityCounters::default(),
            no_div_episodes: EpisodeTracker::new(cfg.history_bins, cfg.history_bin_width),
            ds_episodes: EpisodeTracker::new(cfg.history_bins, cfg.history_bin_width),
            is_episodes: EpisodeTracker::new(cfg.history_bins, cfg.history_bin_width),
            irq: false,
            finished: false,
            last: CycleReport::default(),
            hamming: cfg
                .track_hamming
                .then(|| HammingStats { min_total: u32::MAX, ..HammingStats::default() }),
            cfg,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SafeDmConfig {
        &self.cfg
    }

    /// Observes one cycle of both cores. Call exactly once per SoC cycle,
    /// after stepping the cores.
    pub fn observe(&mut self, p0: &CoreProbe, p1: &CoreProbe) -> CycleReport {
        if !self.enabled || self.finished {
            self.last = CycleReport::default();
            return self.last;
        }
        if self.cfg.stop_when_halted && (p0.halted || p1.halted) {
            self.finish();
            self.last = CycleReport::default();
            return self.last;
        }

        // Both signatures are clock-gated by the hold signal, so on a joint
        // hold neither changes and the standing comparison still holds.
        if !p0.hold || !p1.hold {
            self.ds[0].capture(p0);
            self.ds[1].capture(p1);
            self.is[0].capture(p0);
            self.is[1].capture(p1);
            self.matches = (self.ds[0] == self.ds[1], self.is[0] == self.is[1]);
            if let Some(h) = self.hamming.as_mut() {
                h.last = (self.ds[0].hamming(&self.ds[1]), self.is[0].hamming(&self.is[1]));
            }
        }
        let (ds_match, is_match) = self.matches;
        if let Some(h) = self.hamming.as_mut() {
            let (dd, di) = h.last;
            h.ds_sum += u64::from(dd);
            h.is_sum += u64::from(di);
            h.min_total = h.min_total.min(dd + di);
            h.max_total = h.max_total.max(dd + di);
        }
        let no_diversity = ds_match && is_match;
        let stagger = self.diff.update(p0.committed, p1.committed);

        self.counters.cycles_observed += 1;
        self.counters.ds_match_cycles += u64::from(ds_match);
        self.counters.is_match_cycles += u64::from(is_match);
        self.counters.no_div_cycles += u64::from(no_diversity);
        self.ds_episodes.observe(ds_match);
        self.is_episodes.observe(is_match);
        self.no_div_episodes.observe(no_diversity);

        match self.cfg.report_mode {
            ReportMode::InterruptFirst => {
                if no_diversity {
                    self.irq = true;
                }
            }
            ReportMode::InterruptThreshold(k) => {
                if self.counters.no_div_cycles >= k && k > 0 {
                    self.irq = true;
                }
            }
            ReportMode::Polling => {}
        }

        self.last = CycleReport {
            ds_match,
            is_match,
            no_diversity,
            zero_stagger: stagger == 0,
            observed: true,
        };
        self.last
    }

    /// Stops monitoring and flushes open histogram episodes. Idempotent;
    /// called automatically when a monitored core halts.
    pub fn finish(&mut self) {
        if !self.finished {
            self.no_div_episodes.finish();
            self.ds_episodes.finish();
            self.is_episodes.finish();
            self.finished = true;
        }
    }

    /// Whether monitoring has ended.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The most recent cycle report.
    #[must_use]
    pub fn last_report(&self) -> CycleReport {
        self.last
    }

    /// Interrupt line state.
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.irq
    }

    /// Clears the interrupt (RTOS acknowledge).
    pub fn clear_irq(&mut self) {
        self.irq = false;
    }

    /// Enables or disables monitoring.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether monitoring is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reprograms the reporting mode (the paper's three options).
    pub fn set_report_mode(&mut self, mode: ReportMode) {
        self.cfg.report_mode = mode;
    }

    /// Aggregate counters.
    #[must_use]
    pub fn counters(&self) -> DiversityCounters {
        self.counters
    }

    /// The staggering counter (Instruction-diff module).
    #[must_use]
    pub fn instruction_diff(&self) -> &InstructionDiff {
        &self.diff
    }

    /// Hamming statistics, when tracking is enabled.
    #[must_use]
    pub fn hamming_stats(&self) -> Option<HammingStats> {
        self.hamming
    }

    /// Presets the staggering counter (see [`InstructionDiff::preset`]);
    /// used when arming the monitor after a measurement-window start.
    pub fn preset_diff(&mut self, value: i64) {
        self.diff.preset(value);
    }

    /// Histogram of no-diversity episode lengths (History module).
    #[must_use]
    pub fn no_diversity_history(&self) -> &Histogram {
        self.no_div_episodes.histogram()
    }

    /// Histogram of data-signature-match episode lengths.
    #[must_use]
    pub fn ds_match_history(&self) -> &Histogram {
        self.ds_episodes.histogram()
    }

    /// Histogram of instruction-signature-match episode lengths.
    #[must_use]
    pub fn is_match_history(&self) -> &Histogram {
        self.is_episodes.histogram()
    }

    /// Longest run of consecutive cycles without diversity (including an
    /// episode still in progress).
    #[must_use]
    pub fn max_no_div_run(&self) -> u64 {
        self.no_div_episodes.histogram().max_episode().max(self.no_div_episodes.open_episode())
    }

    /// Total SafeDM state bits (used by the area model).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        self.ds[0].width_bits() * 2 + self.is[0].width_bits() * 2
    }

    /// Resets all monitor state (signatures, counters, histograms, IRQ).
    pub fn reset(&mut self) {
        *self = SafeDm::new(self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_soc::{PortSample, StageSlot};

    fn probe(v: u64, raw: u32) -> CoreProbe {
        let mut p = CoreProbe::default();
        p.reads[0] = PortSample { enable: true, value: v };
        p.stages[3][0] = StageSlot { valid: true, raw };
        p
    }

    #[test]
    fn identical_state_flags_no_diversity_every_cycle() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        for i in 0..50u64 {
            let p = probe(i, 0x13);
            let r = dm.observe(&p, &p);
            assert!(r.no_diversity, "cycle {i}");
        }
        assert_eq!(dm.counters().no_div_cycles, 50);
        assert_eq!(dm.max_no_div_run(), 50);
    }

    #[test]
    fn data_difference_suppresses_flag_for_fifo_depth() {
        let cfg = SafeDmConfig { data_fifo_depth: 4, ..SafeDmConfig::default() };
        let mut dm = SafeDm::new(cfg);
        // one divergent data cycle
        let r = dm.observe(&probe(1, 0x13), &probe(2, 0x13));
        assert!(!r.no_diversity && !r.ds_match && r.is_match);
        // identical afterwards: DS stays different until the sample ages out
        for i in 0..3 {
            let p = probe(9, 0x13);
            let r = dm.observe(&p, &p);
            assert!(!r.ds_match, "cycle {i} still protected by FIFO history");
        }
        let p = probe(9, 0x13);
        let r = dm.observe(&p, &p);
        assert!(r.ds_match && r.no_diversity);
    }

    #[test]
    fn instruction_difference_is_diversity() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let r = dm.observe(&probe(1, 0x13), &probe(1, 0x93));
        assert!(r.ds_match && !r.is_match && !r.no_diversity);
    }

    #[test]
    fn interrupt_first_mode() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        assert!(!dm.irq_pending());
        dm.observe(&probe(1, 0x13), &probe(2, 0x13));
        assert!(!dm.irq_pending());
        let p = probe(1, 0x13);
        for _ in 0..dm.config().data_fifo_depth + 1 {
            dm.observe(&p, &p);
        }
        assert!(dm.irq_pending());
        dm.clear_irq();
        assert!(!dm.irq_pending());
    }

    #[test]
    fn interrupt_threshold_mode() {
        let cfg = SafeDmConfig {
            report_mode: ReportMode::InterruptThreshold(5),
            ..SafeDmConfig::default()
        };
        let mut dm = SafeDm::new(cfg);
        let p = probe(0, 0x13);
        for i in 0..4 {
            dm.observe(&p, &p);
            assert!(!dm.irq_pending(), "below threshold at {i}");
        }
        dm.observe(&p, &p);
        assert!(dm.irq_pending());
    }

    #[test]
    fn polling_mode_never_interrupts() {
        let cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
        let mut dm = SafeDm::new(cfg);
        let p = probe(0, 0x13);
        for _ in 0..100 {
            dm.observe(&p, &p);
        }
        assert!(!dm.irq_pending());
        assert_eq!(dm.counters().no_div_cycles, 100);
    }

    #[test]
    fn halting_core_stops_monitoring_and_flushes_history() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = probe(0, 0x13);
        for _ in 0..10 {
            dm.observe(&p, &p);
        }
        let mut halted = p;
        halted.halted = true;
        let r = dm.observe(&p, &halted);
        assert!(!r.observed);
        assert!(dm.finished());
        assert_eq!(dm.counters().cycles_observed, 10);
        assert_eq!(dm.no_diversity_history().total_cycles(), 10);
        // further observations are inert
        dm.observe(&p, &p);
        assert_eq!(dm.counters().cycles_observed, 10);
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        dm.set_enabled(false);
        let p = probe(0, 0x13);
        let r = dm.observe(&p, &p);
        assert!(!r.observed && !r.no_diversity);
        assert_eq!(dm.counters().cycles_observed, 0);
        assert!(!dm.irq_pending());
    }

    #[test]
    fn zero_stagger_tracking() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let mut p0 = probe(0, 0x13);
        p0.committed = 2;
        let p1 = probe(1, 0x13);
        let r = dm.observe(&p0, &p1);
        assert!(!r.zero_stagger);
        let mut q1 = probe(1, 0x13);
        q1.committed = 2;
        let r = dm.observe(&probe(0, 0x13), &q1);
        assert!(r.zero_stagger);
        assert_eq!(dm.instruction_diff().zero_cycles(), 1);
    }

    #[test]
    fn hold_freezes_both_signatures() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        // put identical content in
        let p = probe(5, 0x13);
        dm.observe(&p, &p);
        // now one core holds while the other advances with different data:
        let mut held = probe(7, 0x93);
        held.hold = true;
        let moving = probe(7, 0x93);
        let r = dm.observe(&held, &moving);
        assert!(!r.no_diversity, "held core retains old signature; moving core changed");
    }

    #[test]
    fn joint_hold_keeps_the_standing_verdict() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let mut held = probe(5, 0x13);
        held.hold = true;
        // A fresh monitor compares two power-on signatures: equal.
        let r = dm.observe(&held, &held);
        assert!(r.ds_match && r.is_match && r.no_diversity);
        // Diverge, then hold both cores: the verdict stands, and so does
        // the one after a reset.
        dm.observe(&probe(1, 0x13), &probe(2, 0x93));
        let r = dm.observe(&held, &held);
        assert!(!r.ds_match && !r.is_match);
        assert_eq!(dm.counters().no_div_cycles, 1);
        dm.reset();
        let r = dm.observe(&held, &held);
        assert!(r.ds_match && r.is_match);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = probe(0, 0x13);
        dm.observe(&p, &p);
        assert!(dm.irq_pending());
        dm.reset();
        assert!(!dm.irq_pending());
        assert_eq!(dm.counters(), DiversityCounters::default());
    }

    #[test]
    fn hamming_tracking_consistent_with_verdict() {
        let cfg = SafeDmConfig { track_hamming: true, ..SafeDmConfig::default() };
        let mut dm = SafeDm::new(cfg);
        let p = probe(5, 0x13);
        let r = dm.observe(&p, &p);
        assert!(r.no_diversity);
        let h = dm.hamming_stats().expect("tracking enabled");
        assert_eq!(h.last, (0, 0));
        assert_eq!(h.min_total, 0);
        let r = dm.observe(&probe(5, 0x13), &probe(7, 0x13));
        assert!(!r.ds_match);
        let h = dm.hamming_stats().expect("tracking enabled");
        assert!(h.last.0 > 0, "DS distance must be positive when DS differs");
        assert_eq!(h.last.1, 0);
        assert!(h.max_total >= h.last.0);
    }

    #[test]
    fn hamming_disabled_by_default() {
        let dm = SafeDm::new(SafeDmConfig::default());
        assert!(dm.hamming_stats().is_none());
    }

    #[test]
    fn state_bits_match_geometry() {
        let dm = SafeDm::new(SafeDmConfig::default());
        // 2 cores × (6 ports × 8 entries × 65 bits + 14 slots × 33 bits)
        assert_eq!(dm.state_bits(), 2 * (6 * 8 * 65 + 14 * 33));
    }
}
