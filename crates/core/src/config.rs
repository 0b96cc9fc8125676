//! SafeDM configuration.

/// How the Instruction Signature is laid out (paper, Section III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsLayout {
    /// Keep the instructions *per pipeline stage* (slot position matters).
    /// Matches NOEL-V, whose stage groups move all-or-none; two cores
    /// processing the same instructions in different stages still count as
    /// diverse. This is the paper's deployed layout (Fig. 2b).
    #[default]
    PerStage,
    /// Keep only the flat list of in-flight (fetched but not retired)
    /// instructions, ignoring stage position — the fallback the paper
    /// prescribes for cores without the group-advance property. Coarser:
    /// more false "no diversity" reports (see ablation A2).
    InFlight,
}

/// How lack of diversity is reported (paper, Section III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Raise the interrupt line on the first cycle without diversity.
    #[default]
    InterruptFirst,
    /// Raise the interrupt once the count of cycles without diversity
    /// reaches the programmed threshold.
    InterruptThreshold(u64),
    /// Never interrupt; the RTOS polls the counters over APB.
    Polling,
}

/// Configuration of one SafeDM instance.
///
/// # Examples
///
/// ```
/// use safedm_core::{SafeDmConfig, IsLayout, ReportMode};
///
/// let cfg = SafeDmConfig::default();
/// assert_eq!(cfg.data_fifo_depth, 8);
/// assert_eq!(cfg.is_layout, IsLayout::PerStage);
/// assert_eq!(cfg.report_mode, ReportMode::InterruptFirst);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafeDmConfig {
    /// Depth *n* of each per-port data FIFO, in cycles. The paper sizes it
    /// to the pipeline depth; the default covers the 7-stage NOEL-V with
    /// one cycle of slack.
    pub data_fifo_depth: usize,
    /// Instruction-signature layout.
    pub is_layout: IsLayout,
    /// Reporting behaviour.
    pub report_mode: ReportMode,
    /// Width of each history-module bin, in cycles of episode length.
    pub history_bin_width: u64,
    /// Number of history bins (the last bin is open-ended).
    pub history_bins: usize,
    /// Stop counting once either monitored core halts (bare-metal runs end
    /// at different times; tail cycles would be meaningless).
    pub stop_when_halted: bool,
    /// Also compute per-cycle Hamming distances between the signatures (a
    /// diversity *magnitude*, beyond the paper's binary verdict). Costs an
    /// extra pass per cycle; off by default.
    pub track_hamming: bool,
}

impl Default for SafeDmConfig {
    fn default() -> SafeDmConfig {
        SafeDmConfig {
            data_fifo_depth: 8,
            is_layout: IsLayout::PerStage,
            report_mode: ReportMode::InterruptFirst,
            history_bin_width: 4,
            history_bins: 16,
            stop_when_halted: true,
            track_hamming: false,
        }
    }
}

impl SafeDmConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero FIFO depth or an empty history.
    pub fn validate(&self) {
        assert!(self.data_fifo_depth >= 1, "data FIFO depth must be at least 1");
        assert!(self.history_bins >= 1, "history needs at least one bin");
        assert!(self.history_bin_width >= 1, "history bin width must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SafeDmConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "FIFO depth")]
    fn zero_depth_rejected() {
        let cfg = SafeDmConfig { data_fifo_depth: 0, ..SafeDmConfig::default() };
        cfg.validate();
    }

    #[test]
    fn modes_compare() {
        assert_ne!(ReportMode::InterruptFirst, ReportMode::Polling);
        assert_eq!(ReportMode::InterruptThreshold(5), ReportMode::InterruptThreshold(5));
    }
}
