//! Backing main memory with per-core private mirrors.
//!
//! Bare-metal redundant execution runs the *same* binary at the *same*
//! logical addresses on both cores. To avoid modelling an MMU or a cache
//! coherence protocol, the writable portion of RAM is mirrored per core:
//! logical address `A` on core `c` maps to the private space `Private(c)`,
//! while the (read-only) text section is shared in the `Code` space. This is
//! the moral equivalent of two processes with identical virtual layouts
//! backed by distinct physical pages — the situation the SafeDM paper
//! describes for software-replicated redundant threads.

use std::collections::HashMap;

/// Which memory space an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// The shared, read-only code space.
    Code,
    /// The private writable mirror of one core.
    Private(usize),
}

impl MemSpace {
    /// Folds the space into high address bits, producing a unique "physical"
    /// key for cache tagging and memory indexing.
    #[must_use]
    pub fn fold(self, addr: u64) -> u64 {
        match self {
            MemSpace::Code => addr,
            MemSpace::Private(c) => addr | ((c as u64 + 1) << 40),
        }
    }
}

const LINE: u64 = 64; // backing granularity, independent of cache line size

/// Sparse byte-addressable backing store.
///
/// All functional data lives here (plus in-flight store-buffer entries);
/// the cache models are timing-only tag arrays.
///
/// # Examples
///
/// ```
/// use safedm_soc::{MainMemory, MemSpace};
///
/// let mut m = MainMemory::new();
/// m.write(MemSpace::Private(0), 0x8000_0000, &42u64.to_le_bytes());
/// let mut buf = [0u8; 8];
/// m.read(MemSpace::Private(0), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// // The other core's mirror is untouched:
/// m.read(MemSpace::Private(1), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    lines: HashMap<u64, [u8; LINE as usize]>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Reads `buf.len()` bytes from `addr` in `space`. Unwritten memory
    /// reads as zero.
    pub fn read(&self, space: MemSpace, addr: u64, buf: &mut [u8]) {
        let base = space.fold(addr);
        for (i, b) in buf.iter_mut().enumerate() {
            let a = base + i as u64;
            *b = match self.lines.get(&(a / LINE)) {
                Some(line) => line[(a % LINE) as usize],
                None => 0,
            };
        }
    }

    /// Writes `data` at `addr` in `space`.
    pub fn write(&mut self, space: MemSpace, addr: u64, data: &[u8]) {
        let base = space.fold(addr);
        for (i, b) in data.iter().enumerate() {
            let a = base + i as u64;
            let line = self.lines.entry(a / LINE).or_insert([0; LINE as usize]);
            line[(a % LINE) as usize] = *b;
        }
    }

    /// Writes `data` under a byte `mask` (bit `i` of `mask` enables byte `i`).
    pub fn write_masked(&mut self, space: MemSpace, addr: u64, data: &[u8], mask: &[bool]) {
        debug_assert_eq!(data.len(), mask.len());
        let base = space.fold(addr);
        for i in 0..data.len() {
            if mask[i] {
                let a = base + i as u64;
                let line = self.lines.entry(a / LINE).or_insert([0; LINE as usize]);
                line[(a % LINE) as usize] = data[i];
            }
        }
    }

    /// Reads a naturally-aligned 64-bit window containing `addr`.
    #[must_use]
    pub fn read_dword_window(&self, space: MemSpace, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read(space, addr & !7, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Reads the 32-bit word at the 4-byte aligned `addr`.
    #[must_use]
    pub fn read_word(&self, space: MemSpace, addr: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.read(space, addr & !3, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Deterministic digest of all allocated content: FNV-1a over
    /// `(line index, line bytes)` in ascending line order.
    ///
    /// Two memories that saw the same write sequence digest equal; note a
    /// line explicitly overwritten with zeros digests differently from one
    /// never allocated, so only compare digests across executions with
    /// identical allocation behaviour (e.g. two engines running the same
    /// program).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut keys: Vec<u64> = self.lines.keys().copied().collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, b: u8| {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        };
        for k in keys {
            for b in k.to_le_bytes() {
                mix(&mut h, b);
            }
            for &b in &self.lines[&k] {
                mix(&mut h, b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MainMemory::new();
        let mut buf = [0xffu8; 16];
        m.read(MemSpace::Code, 0x1000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn spaces_are_disjoint() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 0x100, &[1]);
        m.write(MemSpace::Private(0), 0x100, &[2]);
        m.write(MemSpace::Private(1), 0x100, &[3]);
        let mut b = [0u8];
        m.read(MemSpace::Code, 0x100, &mut b);
        assert_eq!(b[0], 1);
        m.read(MemSpace::Private(0), 0x100, &mut b);
        assert_eq!(b[0], 2);
        m.read(MemSpace::Private(1), 0x100, &mut b);
        assert_eq!(b[0], 3);
    }

    #[test]
    fn cross_line_access() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write(MemSpace::Code, LINE - 10, &data);
        let mut buf = vec![0u8; 100];
        m.read(MemSpace::Code, LINE - 10, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn masked_write() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 0, &[0xaa; 4]);
        m.write_masked(MemSpace::Code, 0, &[1, 2, 3, 4], &[true, false, true, false]);
        let mut buf = [0u8; 4];
        m.read(MemSpace::Code, 0, &mut buf);
        assert_eq!(buf, [1, 0xaa, 3, 0xaa]);
    }

    #[test]
    fn dword_window_alignment() {
        let mut m = MainMemory::new();
        m.write(MemSpace::Code, 8, &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(m.read_dword_window(MemSpace::Code, 11), 0x1122_3344_5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 8), 0x5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 12), 0x1122_3344);
    }
}
