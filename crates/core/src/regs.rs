//! The SafeDM APB register map (paper, Section IV-B2).
//!
//! SafeDM is integrated as an APB slave. The model mirrors the monitor's
//! architectural state into an [`ApbRegisterFile`] whenever it can be
//! read — in every cycle an APB read is pending or on the bus, and when a
//! run ends — so guest programs poll exactly what a per-cycle mirror would
//! show, and applies the control registers back to the monitor in every
//! cycle after they may have been written, so the monitor always shows
//! what a per-cycle application would give (see
//! [`MonitoredSoc`](crate::MonitoredSoc)). Everything outside the APB logic
//! is bus-agnostic, as the paper requires.

use safedm_soc::ApbRegisterFile;

use crate::{ReportMode, SafeDm};

/// Register indices (64-bit registers, byte offset = index × 8).
pub mod regmap {
    /// Control: bit 0 enable, bits 2:1 report mode (0 = first, 1 =
    /// threshold, 2 = polling), bit 3 write-1-to-clear IRQ.
    pub const CTRL: usize = 0;
    /// Status: bit 0 IRQ pending, bit 1 monitoring finished.
    pub const STATUS: usize = 1;
    /// Threshold for [`ReportMode::InterruptThreshold`](crate::ReportMode).
    pub const THRESHOLD: usize = 2;
    /// Cycles without diversity.
    pub const NO_DIV_CYCLES: usize = 3;
    /// Cycles with matching Data Signatures.
    pub const DS_MATCH_CYCLES: usize = 4;
    /// Cycles with matching Instruction Signatures.
    pub const IS_MATCH_CYCLES: usize = 5;
    /// Total monitored cycles.
    pub const CYCLES_OBSERVED: usize = 6;
    /// Current staggering (two's complement).
    pub const INSTR_DIFF: usize = 7;
    /// Cycles with zero staggering.
    pub const ZERO_STAG_CYCLES: usize = 8;
    /// Longest no-diversity run.
    pub const MAX_NO_DIV_RUN: usize = 9;
    /// Completed no-diversity episodes (read-only event counter).
    pub const NO_DIV_EPISODES: usize = 10;
    /// Largest absolute staggering observed (read-only).
    pub const MAX_ABS_STAGGER: usize = 11;
    /// Completed Data-Signature-match episodes (read-only).
    pub const DS_MATCH_EPISODES: usize = 12;
    /// Completed Instruction-Signature-match episodes (read-only).
    pub const IS_MATCH_EPISODES: usize = 13;
    /// First history bin (no-diversity episode histogram).
    pub const HIST_BASE: usize = 16;
    /// Total registers in the bank (16 fixed + up to 16 history bins).
    pub const REG_COUNT: usize = 32;
}

/// CTRL encoding of a report mode.
#[must_use]
pub fn encode_mode(mode: ReportMode) -> u64 {
    match mode {
        ReportMode::InterruptFirst => 0,
        ReportMode::InterruptThreshold(_) => 1,
        ReportMode::Polling => 2,
    }
}

/// Mirrors monitor state into the APB bank (host → guest visible).
pub fn mirror(dm: &SafeDm, rf: &mut ApbRegisterFile) {
    let c = dm.counters();
    rf.set_reg(regmap::STATUS, u64::from(dm.irq_pending()) | (u64::from(dm.finished()) << 1));
    rf.set_reg(regmap::NO_DIV_CYCLES, c.no_div_cycles);
    rf.set_reg(regmap::DS_MATCH_CYCLES, c.ds_match_cycles);
    rf.set_reg(regmap::IS_MATCH_CYCLES, c.is_match_cycles);
    rf.set_reg(regmap::CYCLES_OBSERVED, c.cycles_observed);
    rf.set_reg(regmap::INSTR_DIFF, dm.instruction_diff().value() as u64);
    rf.set_reg(regmap::ZERO_STAG_CYCLES, dm.instruction_diff().zero_cycles());
    rf.set_reg(regmap::MAX_NO_DIV_RUN, dm.max_no_div_run());
    rf.set_reg(regmap::NO_DIV_EPISODES, dm.no_diversity_history().total_episodes());
    rf.set_reg(regmap::MAX_ABS_STAGGER, dm.instruction_diff().max_abs());
    rf.set_reg(regmap::DS_MATCH_EPISODES, dm.ds_match_history().total_episodes());
    rf.set_reg(regmap::IS_MATCH_EPISODES, dm.is_match_history().total_episodes());
    let hist = dm.no_diversity_history();
    for (i, b) in hist.bins().iter().enumerate() {
        if regmap::HIST_BASE + i < rf.len() {
            rf.set_reg(regmap::HIST_BASE + i, *b);
        }
    }
}

/// Applies guest-written control registers to the monitor (guest → host).
pub fn apply_commands(dm: &mut SafeDm, rf: &mut ApbRegisterFile) {
    let ctrl = rf.reg(regmap::CTRL);
    dm.set_enabled(ctrl & 1 != 0);
    let mode = match (ctrl >> 1) & 0b11 {
        0 => ReportMode::InterruptFirst,
        1 => ReportMode::InterruptThreshold(rf.reg(regmap::THRESHOLD)),
        _ => ReportMode::Polling,
    };
    dm.set_report_mode(mode);
    if ctrl & 0b1000 != 0 {
        dm.clear_irq();
        rf.set_reg(regmap::CTRL, ctrl & !0b1000); // W1C semantics
    }
}

/// CTRL value that enables the monitor in `mode`.
#[must_use]
pub fn enabled_ctrl(mode: ReportMode) -> u64 {
    1 | (encode_mode(mode) << 1)
}

/// Power-on register values for a monitor configured with `mode`: CTRL
/// enabled in that mode and, for [`ReportMode::InterruptThreshold`], its
/// count in THRESHOLD. A system applies its banks with [`apply_commands`]
/// on its first step, so a bank left at zero would override the configured
/// mode on the first cycle.
pub fn power_on(rf: &mut ApbRegisterFile, mode: ReportMode) {
    rf.set_reg(regmap::CTRL, enabled_ctrl(mode));
    if let ReportMode::InterruptThreshold(k) = mode {
        rf.set_reg(regmap::THRESHOLD, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafeDmConfig;
    use safedm_soc::CoreProbe;

    fn bank() -> ApbRegisterFile {
        let mut rf = ApbRegisterFile::new(0xfc00_0000, regmap::REG_COUNT);
        power_on(&mut rf, ReportMode::InterruptFirst);
        rf
    }

    #[test]
    fn mirror_exports_counters() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        for _ in 0..7 {
            dm.observe(&p, &p);
        }
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::NO_DIV_CYCLES), 7);
        assert_eq!(rf.reg(regmap::CYCLES_OBSERVED), 7);
        assert_eq!(rf.reg(regmap::STATUS) & 1, 1); // irq pending
        assert_eq!(rf.reg(regmap::ZERO_STAG_CYCLES), 7);
    }

    #[test]
    fn ctrl_disable_and_mode_select() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let mut rf = bank();
        rf.set_reg(regmap::CTRL, 0); // disabled
        apply_commands(&mut dm, &mut rf);
        assert!(!dm.enabled());
        rf.set_reg(regmap::CTRL, 1 | (1 << 1)); // enabled, threshold mode
        rf.set_reg(regmap::THRESHOLD, 42);
        apply_commands(&mut dm, &mut rf);
        assert!(dm.enabled());
        assert_eq!(dm.config().report_mode, ReportMode::InterruptThreshold(42));
        rf.set_reg(regmap::CTRL, 1 | (2 << 1)); // polling
        apply_commands(&mut dm, &mut rf);
        assert_eq!(dm.config().report_mode, ReportMode::Polling);
    }

    #[test]
    fn irq_write_one_to_clear() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        dm.observe(&p, &p);
        assert!(dm.irq_pending());
        let mut rf = bank();
        rf.set_reg(regmap::CTRL, enabled_ctrl(ReportMode::InterruptFirst) | 0b1000);
        apply_commands(&mut dm, &mut rf);
        assert!(!dm.irq_pending());
        assert_eq!(rf.reg(regmap::CTRL) & 0b1000, 0, "W1C bit self-clears");
    }

    #[test]
    fn mirror_exports_histogram_bins() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        // 3-cycle no-div episode then a halt flush
        for _ in 0..3 {
            dm.observe(&p, &p);
        }
        dm.finish();
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::HIST_BASE), 1); // one episode of length 3 in bin 0 (width 4)
        assert_eq!(rf.reg(regmap::STATUS) >> 1 & 1, 1); // finished
    }

    #[test]
    fn mirror_exports_episode_counters() {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let p = CoreProbe::default();
        // identical probes: one continuous no-div/DS/IS episode, closed by finish()
        for _ in 0..5 {
            dm.observe(&p, &p);
        }
        dm.finish();
        let mut rf = bank();
        mirror(&dm, &mut rf);
        assert_eq!(rf.reg(regmap::NO_DIV_EPISODES), dm.no_diversity_history().total_episodes());
        assert_eq!(rf.reg(regmap::NO_DIV_EPISODES), 1);
        assert_eq!(rf.reg(regmap::DS_MATCH_EPISODES), 1);
        assert_eq!(rf.reg(regmap::IS_MATCH_EPISODES), 1);
        assert_eq!(rf.reg(regmap::MAX_ABS_STAGGER), 0);
    }

    #[test]
    fn mode_encoding_roundtrip() {
        assert_eq!(encode_mode(ReportMode::InterruptFirst), 0);
        assert_eq!(encode_mode(ReportMode::InterruptThreshold(9)), 1);
        assert_eq!(encode_mode(ReportMode::Polling), 2);
    }
}
