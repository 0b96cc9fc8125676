//! Data and Instruction Signature generators (paper, Section III-B, Fig. 2).

use safedm_soc::{CoreProbe, PIPE_STAGES, PIPE_WIDTH, PORT_WORDS, READ_PORTS, WRITE_PORTS};

use crate::{HoldFifo, IsLayout, SafeDmConfig};

/// Total register-file ports observed per core.
pub const DATA_PORTS: usize = READ_PORTS + WRITE_PORTS;

/// One data-FIFO entry: the port enable line plus the 64-bit data lines.
pub type DataSample = (bool, u64);

/// The Data Signature (DS) of one core: the register-port samples of the
/// last *n* unheld cycles. The signature is the concatenation of all port
/// FIFOs; two cores lack data diversity when their signatures are
/// bit-identical (paper, Section III-B1).
///
/// All ports share the core's hold gate, so their FIFOs shift together and
/// are stored as one FIFO of cycle rows: the probe's port row
/// ([`CoreProbe::ports`]), that is the `DATA_PORTS` port values (read
/// ports, then write ports) and one word of enable bits, bit *i* for port
/// *i*.
///
/// # Examples
///
/// ```
/// use safedm_core::{DataSignature, SafeDmConfig};
/// use safedm_soc::CoreProbe;
///
/// let cfg = SafeDmConfig::default();
/// let mut a = DataSignature::new(&cfg);
/// let mut b = DataSignature::new(&cfg);
/// let probe = CoreProbe::default();
/// a.capture(&probe);
/// b.capture(&probe);
/// assert_eq!(a, b); // identical activity -> identical signatures
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSignature {
    rows: HoldFifo<[u64; PORT_WORDS]>,
}

impl DataSignature {
    /// Creates the signature generator for `cfg`.
    #[must_use]
    pub fn new(cfg: &SafeDmConfig) -> DataSignature {
        DataSignature { rows: HoldFifo::new(cfg.data_fifo_depth, [0; PORT_WORDS]) }
    }

    /// Captures one cycle of register-port activity. When the probe reports
    /// `hold`, the FIFOs are clock-gated and keep their contents.
    pub fn capture(&mut self, probe: &CoreProbe) {
        if !probe.hold {
            self.rows.shift(probe.ports);
        }
    }

    /// How many of the newest rows are equal in both windows, compared
    /// newest first and pairwise by age: the depth exactly when the
    /// signatures are equal.
    #[must_use]
    pub(crate) fn equal_newest_rows(&self, other: &DataSignature) -> usize {
        let (a, b) = (self.rows.entries(), other.rows.entries());
        a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| words_equal(x, y)).count()
    }

    /// The concatenated signature, port-major, oldest sample first — the DS
    /// bit vector of the paper in `(enable, value)` tuples.
    #[must_use]
    pub fn bits(&self) -> Vec<DataSample> {
        let rows = self.rows.entries();
        (0..DATA_PORTS)
            .flat_map(|port| rows.iter().map(move |r| ((r[DATA_PORTS] >> port) & 1 != 0, r[port])))
            .collect()
    }

    /// Signature width in bits (65 bits per entry: 64 data + 1 enable).
    #[must_use]
    pub fn width_bits(&self) -> usize {
        DATA_PORTS * self.rows.depth() * 65
    }

    /// Hamming distance to `other` in signature bits (0 ⇔ equal). A
    /// *magnitude* of data diversity beyond the paper's binary verdict.
    #[must_use]
    pub fn hamming(&self, other: &DataSignature) -> u32 {
        self.rows
            .entries()
            .iter()
            .flatten()
            .zip(other.rows.entries().iter().flatten())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Resets all FIFOs to the power-on state.
    pub fn reset(&mut self) {
        self.rows.reset([0; PORT_WORDS]);
    }
}

/// Whether two word arrays are equal: an XOR-OR fold, which compiles to
/// straight-line code instead of a library compare.
#[inline]
pub(crate) fn words_equal<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Number of instruction slots in the pipeline.
const IS_SLOTS: usize = PIPE_STAGES * PIPE_WIDTH;

/// The Instruction Signature (IS) of one core (paper, Section III-B2).
///
/// In [`IsLayout::PerStage`] the signature is the per-stage slot occupancy
/// `I_x^y` of Fig. 2b: `(valid, encoding)` for each of the `o × p` slots.
/// In [`IsLayout::InFlight`] it degrades to the flat list of in-flight
/// instruction encodings. Either way each slot is stored as the word
/// `valid << 32 | encoding`, and an invalid slot as 0: hardware latches
/// hold stale encodings, and masking them makes the comparison depend only
/// on architecturally live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionSignature {
    layout: IsLayout,
    /// Stage-major slots (PerStage), or the in-flight list oldest first,
    /// padded with invalid entries (InFlight).
    slots: [u64; IS_SLOTS],
}

impl InstructionSignature {
    /// Creates the signature generator for `cfg`.
    #[must_use]
    pub fn new(cfg: &SafeDmConfig) -> InstructionSignature {
        InstructionSignature { layout: cfg.is_layout, slots: [0; IS_SLOTS] }
    }

    /// Captures the pipeline occupancy of one cycle. Holds keep the previous
    /// capture (the stage registers did not move).
    pub fn capture(&mut self, probe: &CoreProbe) {
        if probe.hold {
            return;
        }
        const VALID: u64 = 1 << 32;
        match self.layout {
            IsLayout::PerStage => {
                for (word, s) in self.slots.iter_mut().zip(probe.stages.iter().flatten()) {
                    *word = if s.valid { VALID | u64::from(s.raw) } else { 0 };
                }
            }
            IsLayout::InFlight => {
                // Oldest (WB) first so the list is ordered by program age.
                let mut n = 0;
                for s in probe.stages.iter().rev().flatten().filter(|s| s.valid) {
                    self.slots[n] = VALID | u64::from(s.raw);
                    n += 1;
                }
                self.slots[n..].fill(0);
            }
        }
    }

    /// The signature as `(valid, encoding)` entries.
    #[must_use]
    pub fn bits(&self) -> Vec<(bool, u32)> {
        self.slots.iter().map(|&w| (w >> 32 != 0, w as u32)).collect()
    }

    /// Signature width in bits (33 bits per slot: 32 encoding + 1 valid).
    #[must_use]
    pub fn width_bits(&self) -> usize {
        IS_SLOTS * 33
    }

    /// Hamming distance to `other` in signature bits (0 ⇔ equal when both
    /// use the same layout).
    #[must_use]
    pub fn hamming(&self, other: &InstructionSignature) -> u32 {
        self.slots.iter().zip(&other.slots).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Whether both signatures hold the same slot words (the monitor's
    /// per-cycle IS verdict; both sides share one layout).
    #[must_use]
    pub(crate) fn same_slots(&self, other: &InstructionSignature) -> bool {
        words_equal(&self.slots, &other.slots)
    }

    /// Resets to the power-on state.
    pub fn reset(&mut self) {
        self.slots = [0; IS_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_soc::{PortSample, StageSlot};

    fn probe_with_read(v: u64) -> CoreProbe {
        let mut p = CoreProbe::default();
        p.set_read_port(0, PortSample { enable: true, value: v });
        p
    }

    #[test]
    fn identical_streams_identical_ds() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        for v in 0..20 {
            a.capture(&probe_with_read(v));
            b.capture(&probe_with_read(v));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn one_different_value_breaks_ds_for_n_cycles() {
        let cfg = SafeDmConfig { data_fifo_depth: 4, ..SafeDmConfig::default() };
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        a.capture(&probe_with_read(99));
        b.capture(&probe_with_read(11));
        assert_ne!(a, b);
        // After n identical cycles the divergent sample ages out.
        for v in 0..4 {
            a.capture(&probe_with_read(v));
            b.capture(&probe_with_read(v));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn hold_freezes_ds() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let before = a.bits();
        let mut p = probe_with_read(42);
        p.hold = true;
        a.capture(&p);
        assert_eq!(a.bits(), before, "held cycle must not shift");
    }

    #[test]
    fn enable_bit_distinguishes_idle_from_zero() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        let mut pa = CoreProbe::default();
        pa.set_read_port(0, PortSample { enable: true, value: 0 });
        let pb = CoreProbe::default(); // port idle, value 0
        a.capture(&pa);
        b.capture(&pb);
        assert_ne!(a, b, "active-zero differs from idle");
    }

    #[test]
    fn ds_width_matches_geometry() {
        let cfg = SafeDmConfig::default();
        let ds = DataSignature::new(&cfg);
        assert_eq!(ds.width_bits(), DATA_PORTS * cfg.data_fifo_depth * 65);
    }

    fn probe_with_stage(stage: usize, slot: usize, raw: u32) -> CoreProbe {
        let mut p = CoreProbe::default();
        p.stages[stage][slot] = StageSlot { valid: true, raw };
        p
    }

    #[test]
    fn per_stage_distinguishes_stage_position() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(2, 0, 0x13));
        b.capture(&probe_with_stage(3, 0, 0x13)); // same inst, other stage
        assert_ne!(a.bits(), b.bits());
    }

    #[test]
    fn in_flight_ignores_stage_position() {
        let cfg = SafeDmConfig { is_layout: IsLayout::InFlight, ..SafeDmConfig::default() };
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(2, 0, 0x13));
        b.capture(&probe_with_stage(3, 0, 0x13));
        assert_eq!(a.bits(), b.bits(), "flat layout collapses stage position");
    }

    #[test]
    fn stale_bits_masked_by_default() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        let mut pa = CoreProbe::default();
        pa.stages[4][0] = StageSlot { valid: false, raw: 0xdead_beef };
        let mut pb = CoreProbe::default();
        pb.stages[4][0] = StageSlot { valid: false, raw: 0x1234_5678 };
        a.capture(&pa);
        b.capture(&pb);
        assert_eq!(a.bits(), b.bits(), "invalid slots must compare equal");
    }

    #[test]
    fn hamming_zero_iff_equal() {
        let cfg = SafeDmConfig::default();
        let mut a = DataSignature::new(&cfg);
        let mut b = DataSignature::new(&cfg);
        assert_eq!(a.hamming(&b), 0);
        a.capture(&probe_with_read(0b1011));
        b.capture(&probe_with_read(0b1000));
        // 2 differing data bits; enables equal
        assert_eq!(a.hamming(&b), 2);
        assert_ne!(a, b);
        b = a.clone();
        assert_eq!(a.hamming(&b), 0);
    }

    #[test]
    fn is_hamming_counts_encoding_bits() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        let mut b = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(3, 0, 0b1111));
        b.capture(&probe_with_stage(3, 0, 0b1000));
        assert_eq!(a.hamming(&b), 3);
        // valid-bit difference counts one plus the masked encoding
        let mut c = InstructionSignature::new(&cfg);
        c.capture(&CoreProbe::default());
        assert_eq!(a.hamming(&c), 1 + 4u32);
    }

    #[test]
    fn is_hold_freezes_capture() {
        let cfg = SafeDmConfig::default();
        let mut a = InstructionSignature::new(&cfg);
        a.capture(&probe_with_stage(1, 0, 0x77));
        let before = a.bits();
        let mut p = probe_with_stage(1, 0, 0x99);
        p.hold = true;
        a.capture(&p);
        assert_eq!(a.bits(), before);
    }
}
