//! The per-cycle core-state probe that SafeDM taps.
//!
//! In the VHDL integration, SafeDM receives the register-port enables and
//! values, the per-stage instruction encodings with valid bits, and the
//! pipeline hold signal (paper, Fig. 4). [`CoreProbe`] is the model's
//! equivalent of that signal bundle. The core keeps it current as it steps
//! (a stage's latches are written where instructions enter or leave it, the
//! hold, port and commit fields at the end of each cycle) and hands it to
//! observers **by shared reference only**, so a monitor cannot perturb
//! execution — the non-intrusiveness claim is enforced by the type system.

/// Number of pipeline stages (NOEL-V: 7).
pub const PIPE_STAGES: usize = 7;
/// Issue width (NOEL-V: dual issue).
pub const PIPE_WIDTH: usize = 2;
/// Register-file read ports observed by the monitor.
pub const READ_PORTS: usize = 4;
/// Register-file write ports observed by the monitor.
pub const WRITE_PORTS: usize = 2;

/// Names of the seven pipeline stages, fetch first.
pub const STAGE_NAMES: [&str; PIPE_STAGES] = ["F", "D", "RA", "EX", "ME", "XC", "WB"];

/// One instruction slot of one pipeline stage, as visible on the wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct StageSlot {
    /// Whether the slot holds a live instruction this cycle.
    pub valid: bool,
    /// The raw 32-bit instruction encoding (stale bits when invalid, matching
    /// hardware registers that are not cleared on squash).
    pub raw: u32,
}

/// One register-file port sample: the enable line plus the (possibly stale)
/// data lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct PortSample {
    /// Whether the port was driven this cycle.
    pub enable: bool,
    /// Value on the port data lines (last driven value when idle).
    pub value: u64,
}

/// Everything SafeDM observes from one core in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreProbe {
    /// Cycle counter value when the probe was captured.
    pub cycle: u64,
    /// Pipeline hold: `true` when the core made no progress this cycle
    /// (signature FIFOs must not shift).
    pub hold: bool,
    /// Per-stage, per-slot instruction view; index 0 is fetch.
    pub stages: [[StageSlot; PIPE_WIDTH]; PIPE_STAGES],
    /// Read-port samples.
    pub reads: [PortSample; READ_PORTS],
    /// Write-port samples.
    pub writes: [PortSample; WRITE_PORTS],
    /// Instructions committed this cycle (0..=PIPE_WIDTH).
    pub committed: u8,
    /// Whether the core has halted (ebreak/ecall/trap).
    pub halted: bool,
}

impl Default for CoreProbe {
    fn default() -> CoreProbe {
        CoreProbe {
            cycle: 0,
            hold: false,
            stages: [[StageSlot::default(); PIPE_WIDTH]; PIPE_STAGES],
            reads: [PortSample::default(); READ_PORTS],
            writes: [PortSample::default(); WRITE_PORTS],
            committed: 0,
            halted: false,
        }
    }
}

impl CoreProbe {
    /// Total valid instructions currently in the pipeline.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.stages.iter().flatten().filter(|s| s.valid).count()
    }

    /// Whether any slot of stage `stage` is valid.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= PIPE_STAGES`.
    #[must_use]
    pub fn stage_active(&self, stage: usize) -> bool {
        self.stages[stage].iter().any(|s| s.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_probe_is_empty() {
        let p = CoreProbe::default();
        assert_eq!(p.occupancy(), 0);
        assert!(!p.stage_active(0));
        assert!(!p.hold);
        assert_eq!(p.committed, 0);
    }

    #[test]
    fn occupancy_counts_valid_slots() {
        let mut p = CoreProbe::default();
        p.stages[0][0] = StageSlot { valid: true, raw: 0x13 };
        p.stages[3][1] = StageSlot { valid: true, raw: 0x13 };
        p.stages[6][0] = StageSlot { valid: false, raw: 0xffff_ffff }; // stale
        assert_eq!(p.occupancy(), 2);
        assert!(p.stage_active(0));
        assert!(p.stage_active(3));
        assert!(!p.stage_active(6));
    }

    #[test]
    fn stage_names_cover_pipeline() {
        assert_eq!(STAGE_NAMES.len(), PIPE_STAGES);
        assert_eq!(STAGE_NAMES[0], "F");
        assert_eq!(STAGE_NAMES[6], "WB");
    }
}
