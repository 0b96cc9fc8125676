//! The architectural integer register file with port-activity latching.
//!
//! SafeDM's Data Signature taps the register-file *port lines*. Idle ports
//! hold their last driven value in hardware, so the model latches the last
//! value per port and reports an enable flag per cycle — the exact view the
//! monitor's FIFOs capture (paper, Section IV-B1).

use safedm_isa::Reg;

use crate::probe::{PortSample, READ_PORTS, WRITE_PORTS};

/// Integer register file of one core: 32×64-bit registers, 4 read ports and
/// 2 write ports.
///
/// # Examples
///
/// ```
/// use safedm_soc::RegFile;
/// use safedm_isa::Reg;
///
/// let mut rf = RegFile::new();
/// rf.write(0, Reg::A0, 42);
/// assert_eq!(rf.read(0, Reg::A0), 42);
/// assert_eq!(rf.read(1, Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u64; 32],
    reads: [PortSample; READ_PORTS],
    writes: [PortSample; WRITE_PORTS],
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

impl RegFile {
    /// Creates a zeroed register file.
    #[must_use]
    pub fn new() -> RegFile {
        RegFile {
            regs: [0; 32],
            reads: [PortSample::default(); READ_PORTS],
            writes: [PortSample::default(); WRITE_PORTS],
        }
    }

    /// Clears the per-cycle port enables (call at the start of each cycle).
    pub fn begin_cycle(&mut self) {
        for p in self.reads.iter_mut().chain(&mut self.writes) {
            p.enable = false;
        }
    }

    /// Reads `reg` through read `port`, latching the port value.
    ///
    /// # Panics
    ///
    /// Panics if `port >= READ_PORTS`.
    pub fn read(&mut self, port: usize, reg: Reg) -> u64 {
        let v = self.regs[reg.index() as usize];
        self.reads[port] = PortSample { enable: true, value: v };
        v
    }

    /// Writes `value` to `reg` through write `port` (writes to `x0` drive
    /// the port lines but do not change state).
    ///
    /// # Panics
    ///
    /// Panics if `port >= WRITE_PORTS`.
    pub fn write(&mut self, port: usize, reg: Reg, value: u64) {
        self.writes[port] = PortSample { enable: true, value };
        if !reg.is_zero() {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Architectural peek without port activity (for checkers and forwarding
    /// comparisons in tests).
    #[must_use]
    pub fn peek(&self, reg: Reg) -> u64 {
        self.regs[reg.index() as usize]
    }

    /// Direct architectural poke without port activity (reset, fault
    /// injection).
    pub fn poke(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Flips bit `bit` of `reg` (transient-fault injection). Returns the new
    /// value. Flips on `x0` are ignored and return zero.
    pub fn flip_bit(&mut self, reg: Reg, bit: u8) -> u64 {
        if reg.is_zero() {
            return 0;
        }
        let idx = reg.index() as usize;
        self.regs[idx] ^= 1u64 << (bit & 63);
        self.regs[idx]
    }

    /// Current read-port samples (this cycle's enables, latched values).
    #[must_use]
    pub fn read_samples(&self) -> [PortSample; READ_PORTS] {
        self.reads
    }

    /// Current write-port samples.
    #[must_use]
    pub fn write_samples(&self) -> [PortSample; WRITE_PORTS] {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut rf = RegFile::new();
        rf.write(0, Reg::ZERO, 123);
        assert_eq!(rf.read(0, Reg::ZERO), 0);
        rf.poke(Reg::ZERO, 55);
        assert_eq!(rf.peek(Reg::ZERO), 0);
        assert_eq!(rf.flip_bit(Reg::ZERO, 3), 0);
        assert_eq!(rf.peek(Reg::ZERO), 0);
    }

    #[test]
    fn ports_latch_last_value() {
        let mut rf = RegFile::new();
        rf.poke(Reg::A0, 7);
        rf.begin_cycle();
        rf.read(2, Reg::A0);
        let s = rf.read_samples();
        assert!(s[2].enable && s[2].value == 7);
        assert!(!s[0].enable);
        // next cycle: idle port still shows the stale value
        rf.begin_cycle();
        let s = rf.read_samples();
        assert!(!s[2].enable);
        assert_eq!(s[2].value, 7);
    }

    #[test]
    fn write_port_drives_even_for_x0() {
        let mut rf = RegFile::new();
        rf.begin_cycle();
        rf.write(1, Reg::ZERO, 99);
        let s = rf.write_samples();
        assert!(s[1].enable);
        assert_eq!(s[1].value, 99); // the lines carried the value
        assert_eq!(rf.peek(Reg::ZERO), 0); // but state is unchanged
    }

    #[test]
    fn flip_bit_toggles() {
        let mut rf = RegFile::new();
        rf.poke(Reg::T0, 0b100);
        assert_eq!(rf.flip_bit(Reg::T0, 0), 0b101);
        assert_eq!(rf.flip_bit(Reg::T0, 0), 0b100);
        assert_eq!(rf.flip_bit(Reg::T0, 64), 0b101); // bit masked mod 64
    }
}
