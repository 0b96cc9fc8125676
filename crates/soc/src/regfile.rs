//! The architectural integer register file.
//!
//! SafeDM's Data Signature taps the register-file *port lines*. The core
//! drives those lines straight into its probe's port row
//! ([`CoreProbe::ports`](crate::CoreProbe::ports)) where it reads operands
//! and commits results, so the register file holds only the registers.

use safedm_isa::Reg;

/// Integer register file of one core: 32×64-bit registers.
///
/// # Examples
///
/// ```
/// use safedm_soc::RegFile;
/// use safedm_isa::Reg;
///
/// let mut rf = RegFile::new();
/// rf.write(Reg::A0, 42);
/// assert_eq!(rf.read(Reg::A0), 42);
/// assert_eq!(rf.read(Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u64; 32],
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
        RegFile { regs: [0; 32] }
    }

    /// The value of `reg`.
    #[must_use]
    pub fn read(&self, reg: Reg) -> u64 {
        self.regs[reg.index() as usize]
    }

    /// Writes `value` to `reg` (writes to `x0` are dropped).
    pub fn write(&mut self, reg: Reg, value: u64) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut rf = RegFile::new();
        rf.write(Reg::ZERO, 123);
        assert_eq!(rf.read(Reg::ZERO), 0);
        assert_eq!(rf.flip_bit(Reg::ZERO, 3), 0);
        assert_eq!(rf.read(Reg::ZERO), 0);
    }

    #[test]
    fn flip_bit_toggles() {
        let mut rf = RegFile::new();
        rf.write(Reg::T0, 0b100);
        assert_eq!(rf.flip_bit(Reg::T0, 0), 0b101);
        assert_eq!(rf.flip_bit(Reg::T0, 0), 0b100);
        assert_eq!(rf.flip_bit(Reg::T0, 64), 0b101); // bit masked mod 64
    }
}
