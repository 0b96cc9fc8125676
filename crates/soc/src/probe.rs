//! The per-cycle core-state probe that SafeDM taps.
//!
//! In the VHDL integration, SafeDM receives the register-port enables and
//! values, the per-stage instruction encodings with valid bits, and the
//! pipeline hold signal (paper, Fig. 4). [`CoreProbe`] is the model's
//! equivalent of that signal bundle. The core keeps it current as it steps
//! (a stage's latches are written where instructions enter or leave it, a
//! port's word where the register file is read or written, the hold and
//! commit fields at the end of each cycle) and hands it to observers **by
//! shared reference only**, so a monitor cannot perturb execution — the
//! non-intrusiveness claim is enforced by the type system.

/// Number of pipeline stages (NOEL-V: 7).
pub const PIPE_STAGES: usize = 7;
/// Issue width (NOEL-V: dual issue).
pub const PIPE_WIDTH: usize = 2;
/// Register-file read ports observed by the monitor.
pub const READ_PORTS: usize = 4;
/// Register-file write ports observed by the monitor.
pub const WRITE_PORTS: usize = 2;
/// Words of the port row [`CoreProbe::ports`]: one value per read port,
/// one per write port, and the enable word.
pub const PORT_WORDS: usize = READ_PORTS + WRITE_PORTS + 1;
/// Index of the enable word in [`CoreProbe::ports`].
const ENABLES: usize = READ_PORTS + WRITE_PORTS;

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
/// data lines. A view of one port of [`CoreProbe::ports`].
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
    /// The register-port row, the row a Data Signature stores: the
    /// read-port values, then the write-port values (each the last driven
    /// value while its port is idle), then the enable word, whose bit *i*
    /// is set when port *i* (read ports first) was driven this cycle. Use
    /// [`read_port`](Self::read_port) and [`write_port`](Self::write_port)
    /// to address one port.
    pub ports: [u64; PORT_WORDS],
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
            ports: [0; PORT_WORDS],
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

    /// Read port `i`'s sample.
    ///
    /// # Panics
    ///
    /// Panics if `i >= READ_PORTS`.
    #[must_use]
    pub fn read_port(&self, i: usize) -> PortSample {
        assert!(i < READ_PORTS, "read port {i} out of range");
        self.port(i)
    }

    /// Write port `i`'s sample.
    ///
    /// # Panics
    ///
    /// Panics if `i >= WRITE_PORTS`.
    #[must_use]
    pub fn write_port(&self, i: usize) -> PortSample {
        assert!(i < WRITE_PORTS, "write port {i} out of range");
        self.port(READ_PORTS + i)
    }

    /// Sets read port `i`'s sample.
    ///
    /// # Panics
    ///
    /// Panics if `i >= READ_PORTS`.
    pub fn set_read_port(&mut self, i: usize, sample: PortSample) {
        assert!(i < READ_PORTS, "read port {i} out of range");
        self.set_port(i, sample);
    }

    /// Sets write port `i`'s sample.
    ///
    /// # Panics
    ///
    /// Panics if `i >= WRITE_PORTS`.
    pub fn set_write_port(&mut self, i: usize, sample: PortSample) {
        assert!(i < WRITE_PORTS, "write port {i} out of range");
        self.set_port(READ_PORTS + i, sample);
    }

    fn port(&self, i: usize) -> PortSample {
        PortSample { enable: (self.ports[ENABLES] >> i) & 1 != 0, value: self.ports[i] }
    }

    fn set_port(&mut self, i: usize, sample: PortSample) {
        self.ports[i] = sample.value;
        self.ports[ENABLES] = self.ports[ENABLES] & !(1 << i) | u64::from(sample.enable) << i;
    }

    /// Drives port `i` of the row (read ports first) with `value`.
    pub(crate) fn drive_port(&mut self, i: usize, value: u64) {
        self.ports[i] = value;
        self.ports[ENABLES] |= 1 << i;
    }

    /// Starts a cycle: every port idle, each keeping its last value.
    pub(crate) fn idle_ports(&mut self) {
        self.ports[ENABLES] = 0;
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
    fn port_accessors_address_the_row() {
        let mut p = CoreProbe::default();
        p.set_read_port(2, PortSample { enable: true, value: 7 });
        p.set_write_port(1, PortSample { enable: true, value: 9 });
        assert_eq!(p.ports[2], 7);
        assert_eq!(p.ports[READ_PORTS + 1], 9);
        assert_eq!(p.ports[ENABLES], 1 << 2 | 1 << (READ_PORTS + 1));
        assert_eq!(p.read_port(2), PortSample { enable: true, value: 7 });
        assert_eq!(p.write_port(1), PortSample { enable: true, value: 9 });
        // Idling a port keeps its value on the lines.
        p.set_read_port(2, PortSample { enable: false, value: 7 });
        assert_eq!(p.read_port(2), PortSample { enable: false, value: 7 });
        assert!(p.write_port(1).enable);
        p.idle_ports();
        assert_eq!(p.write_port(1), PortSample { enable: false, value: 9 });
        p.drive_port(0, 5);
        assert_eq!(p.read_port(0), PortSample { enable: true, value: 5 });
    }

    #[test]
    #[should_panic(expected = "write port 2 out of range")]
    fn write_port_index_is_checked() {
        let _ = CoreProbe::default().write_port(WRITE_PORTS);
    }

    #[test]
    fn stage_names_cover_pipeline() {
        assert_eq!(STAGE_NAMES.len(), PIPE_STAGES);
        assert_eq!(STAGE_NAMES[0], "F");
        assert_eq!(STAGE_NAMES[6], "WB");
    }
}
