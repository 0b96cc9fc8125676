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
    /// key for cache tagging.
    #[must_use]
    pub fn fold(self, addr: u64) -> u64 {
        match self {
            MemSpace::Code => addr,
            MemSpace::Private(c) => addr | ((c as u64 + 1) << 40),
        }
    }

    /// Index of the space's page table: `Code` first, then each core.
    fn table(self) -> usize {
        match self {
            MemSpace::Code => 0,
            MemSpace::Private(c) => c + 1,
        }
    }
}

const PAGE_BITS: u32 = 12;
const PAGE: usize = 1 << PAGE_BITS;

type Page = [u8; PAGE];

/// Byte-addressable backing store over one RAM window: one page table per
/// [`MemSpace`], whose 4 KiB pages are allocated on first write. Pages never
/// written read as zero.
///
/// All functional data lives here (plus in-flight store-buffer entries);
/// the cache models are timing-only tag arrays.
///
/// # Panics
///
/// A non-empty access panics, naming the address, unless it lies wholly
/// inside the window; the pipeline and the ISS trap such accesses before
/// they reach memory.
///
/// # Examples
///
/// ```
/// use safedm_soc::{MainMemory, MemSpace};
///
/// let mut m = MainMemory::new(0x8000_0000, 1 << 20);
/// m.write(MemSpace::Private(0), 0x8000_0000, &42u64.to_le_bytes());
/// let mut buf = [0u8; 8];
/// m.read(MemSpace::Private(0), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// // The other core's mirror is untouched:
/// m.read(MemSpace::Private(1), 0x8000_0000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    base: u64,
    size: u64,
    /// Indexed by [`MemSpace::table`], then by page number in the window;
    /// a space's table is created on its first write.
    tables: Vec<Vec<Option<Box<Page>>>>,
}

impl MainMemory {
    /// Creates an all-zero memory over the window `[base, base + size)`.
    #[must_use]
    pub fn new(base: u64, size: u64) -> MainMemory {
        MainMemory { base, size, tables: Vec::new() }
    }

    /// Splits the access `[addr, addr + len)` into `(page, offset in page,
    /// range in the caller's buffer)` pieces, one per page it touches. An
    /// empty access touches no byte, so only a non-empty one can be out of
    /// the window.
    fn pieces(
        &self,
        addr: u64,
        len: usize,
    ) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
        let off = addr.wrapping_sub(self.base);
        assert!(
            len == 0 || (off < self.size && len as u64 <= self.size - off),
            "memory access at {addr:#x} (+{len} bytes) outside the RAM window {:#x}..{:#x}",
            self.base,
            self.base + self.size
        );
        let off = off as usize;
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let at = off + done;
                let n = (PAGE - at % PAGE).min(len - done);
                done += n;
                (at >> PAGE_BITS, at % PAGE, done - n..done)
            })
        })
    }

    fn page_mut(&mut self, space: MemSpace, page: usize) -> &mut Page {
        let t = space.table();
        if self.tables.len() <= t {
            self.tables.resize_with(t + 1, Vec::new);
        }
        let table = &mut self.tables[t];
        if table.is_empty() {
            table.resize_with(self.size.div_ceil(PAGE as u64) as usize, || None);
        }
        table[page].get_or_insert_with(|| Box::new([0; PAGE]))
    }

    /// Reads `buf.len()` bytes from `addr` in `space`. Unwritten memory
    /// reads as zero.
    pub fn read(&self, space: MemSpace, addr: u64, buf: &mut [u8]) {
        let table = self.tables.get(space.table()).map_or(&[][..], Vec::as_slice);
        for (page, at, range) in self.pieces(addr, buf.len()) {
            let dst = &mut buf[range];
            match table.get(page).and_then(Option::as_deref) {
                Some(p) => dst.copy_from_slice(&p[at..at + dst.len()]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes `data` at `addr` in `space`.
    pub fn write(&mut self, space: MemSpace, addr: u64, data: &[u8]) {
        for (page, at, range) in self.pieces(addr, data.len()) {
            let src = &data[range];
            self.page_mut(space, page)[at..at + src.len()].copy_from_slice(src);
        }
    }

    /// Writes `data` under a byte `mask` (`mask[i]` enables byte `i`).
    pub fn write_masked(&mut self, space: MemSpace, addr: u64, data: &[u8], mask: &[bool]) {
        debug_assert_eq!(data.len(), mask.len());
        for (page, at, range) in self.pieces(addr, data.len()) {
            let dst = &mut self.page_mut(space, page)[at..at + range.len()];
            for ((d, &b), &m) in dst.iter_mut().zip(&data[range.clone()]).zip(&mask[range]) {
                if m {
                    *d = b;
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-byte line boundary for the cross-line test.
    const LINE: u64 = 64;

    /// A memory over a 1 MiB window at address 0.
    fn mem() -> MainMemory {
        MainMemory::new(0, 1 << 20)
    }

    #[test]
    fn zero_fill_semantics() {
        let m = mem();
        let mut buf = [0xffu8; 16];
        m.read(MemSpace::Code, 0x1000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn spaces_are_disjoint() {
        let mut m = mem();
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
        let mut m = mem();
        let data: Vec<u8> = (0..100).collect();
        m.write(MemSpace::Code, LINE - 10, &data);
        let mut buf = vec![0u8; 100];
        m.read(MemSpace::Code, LINE - 10, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn masked_write() {
        let mut m = mem();
        m.write(MemSpace::Code, 0, &[0xaa; 4]);
        m.write_masked(MemSpace::Code, 0, &[1, 2, 3, 4], &[true, false, true, false]);
        let mut buf = [0u8; 4];
        m.read(MemSpace::Code, 0, &mut buf);
        assert_eq!(buf, [1, 0xaa, 3, 0xaa]);
    }

    #[test]
    fn dword_window_alignment() {
        let mut m = mem();
        m.write(MemSpace::Code, 8, &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(m.read_dword_window(MemSpace::Code, 11), 0x1122_3344_5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 8), 0x5566_7788);
        assert_eq!(m.read_word(MemSpace::Code, 12), 0x1122_3344);
    }

    #[test]
    fn write_across_a_page_boundary_reads_back() {
        let mut m = MainMemory::new(0x8000_0000, 1 << 20);
        let data: Vec<u8> = (1..=32).collect();
        let addr = 0x8000_0000 + PAGE as u64 - 16;
        m.write(MemSpace::Private(0), addr, &data);
        let mut buf = [0u8; 32];
        m.read(MemSpace::Private(0), addr, &mut buf);
        assert_eq!(buf[..], data[..]);
        // Each half landed in its own page.
        assert_eq!(m.read_dword_window(MemSpace::Private(0), addr + 16), 0x1817_1615_1413_1211);
    }

    #[test]
    fn unwritten_page_next_to_a_written_one_reads_zero() {
        let mut m = MainMemory::new(0x8000_0000, 1 << 20);
        let page = 0x8000_0000 + 4 * PAGE as u64;
        m.write(MemSpace::Private(0), page, &[0xff; PAGE]);
        assert_eq!(m.read_dword_window(MemSpace::Private(0), page - 8), 0);
        assert_eq!(m.read_dword_window(MemSpace::Private(0), page + PAGE as u64), 0);
        assert_eq!(m.read_dword_window(MemSpace::Private(0), page + PAGE as u64 - 8), u64::MAX);
    }

    #[test]
    fn masked_line_write_keeps_masked_off_bytes() {
        let mut m = MainMemory::new(0x8000_0000, 1 << 20);
        let line = 0x8000_0040;
        m.write(MemSpace::Private(1), line, &[0x55; 32]);
        let data: Vec<u8> = (0..32).collect();
        let mask: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        m.write_masked(MemSpace::Private(1), line, &data, &mask);
        let mut buf = [0u8; 32];
        m.read(MemSpace::Private(1), line, &mut buf);
        let expected: Vec<u8> =
            data.iter().zip(&mask).map(|(&d, &m)| if m { d } else { 0x55 }).collect();
        assert_eq!(buf[..], expected[..]);
    }

    #[test]
    #[should_panic(expected = "memory access at 0x40000000")]
    fn access_outside_the_window_panics_naming_the_address() {
        let m = MainMemory::new(0x8000_0000, 1 << 20);
        let _ = m.read_dword_window(MemSpace::Private(0), 0x4000_0000);
    }

    #[test]
    #[should_panic(expected = "memory access at 0x800ffffc")]
    fn access_running_off_the_window_end_panics() {
        let mut m = MainMemory::new(0x8000_0000, 1 << 20);
        m.write(MemSpace::Code, 0x4000_0000, &[]);
        m.write(MemSpace::Code, 0x800f_fffc, &[0; 8]);
    }
}
