//! APB peripheral modelling.
//!
//! SafeDM is integrated in the real MPSoC as an APB slave; the model mirrors
//! that with a generic 64-bit register file mapped into the APB window. The
//! monitor (which lives outside this crate) mirrors its architectural
//! registers into such a file in every cycle an APB read is in flight (see
//! [`Uncore::apb_read_in_flight`](crate::Uncore::apb_read_in_flight)), so
//! guest programs can poll diversity state exactly as on the FPGA
//! platform.

/// A bank of 64-bit memory-mapped registers exposed over APB.
///
/// # Examples
///
/// ```
/// use safedm_soc::ApbRegisterFile;
///
/// let mut rf = ApbRegisterFile::new(0xfc00_0000, 8);
/// rf.set_reg(2, 0xabcd);
/// assert_eq!(rf.read(0xfc00_0010), 0xabcd);
/// rf.write(0xfc00_0000, 7);
/// assert_eq!(rf.reg(0), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApbRegisterFile {
    base: u64,
    regs: Vec<u64>,
    /// Count of guest writes, usable by an embedder to detect commands.
    writes: u64,
}

impl ApbRegisterFile {
    /// Creates a register file of `count` 64-bit registers at `base`.
    #[must_use]
    pub fn new(base: u64, count: usize) -> ApbRegisterFile {
        ApbRegisterFile { base, regs: vec![0; count], writes: 0 }
    }

    /// Base address of the bank.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the bank in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.regs.len() as u64 * 8
    }

    /// Whether `addr` falls inside this bank.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size()
    }

    /// Bus-side read at an absolute address (8-byte granularity; the low
    /// three address bits are ignored). Out-of-range reads return zero.
    #[must_use]
    pub fn read(&self, addr: u64) -> u64 {
        if !self.contains(addr) {
            return 0;
        }
        self.regs[((addr - self.base) / 8) as usize]
    }

    /// Bus-side write at an absolute address.
    pub fn write(&mut self, addr: u64, value: u64) {
        if self.contains(addr) {
            self.regs[((addr - self.base) / 8) as usize] = value;
            self.writes += 1;
        }
    }

    /// Host-side register read by index.
    #[must_use]
    pub fn reg(&self, index: usize) -> u64 {
        self.regs[index]
    }

    /// Host-side register write by index.
    pub fn set_reg(&mut self, index: usize, value: u64) {
        self.regs[index] = value;
    }

    /// Number of registers in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the bank has zero registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Total guest writes observed.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_and_bounds() {
        let mut rf = ApbRegisterFile::new(0x1000, 4);
        assert!(rf.contains(0x1000));
        assert!(rf.contains(0x101f));
        assert!(!rf.contains(0x1020));
        rf.write(0x1018, 99);
        assert_eq!(rf.reg(3), 99);
        assert_eq!(rf.read(0x1018), 99);
        // unaligned read snaps to the register
        assert_eq!(rf.read(0x101c), 99);
        // out-of-range is inert
        rf.write(0x2000, 1);
        assert_eq!(rf.read(0x2000), 0);
        assert_eq!(rf.write_count(), 1);
    }
}
