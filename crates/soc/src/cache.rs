//! Timing-only set-associative tag cache with LRU replacement.
//!
//! Data always lives in [`MainMemory`](crate::MainMemory) (write-through
//! hierarchy, private mirrors); caches only decide *how long* accesses take,
//! so a tag array is sufficient and removes a whole class of coherence bugs.

use crate::CacheConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative, LRU, tag-only cache model.
///
/// Keys are full line addresses (already folded with their
/// [`MemSpace`](crate::MemSpace)).
///
/// # Examples
///
/// ```
/// use safedm_soc::{CacheConfig, TagCache};
///
/// let mut c = TagCache::new(CacheConfig { sets: 4, ways: 2, line_bytes: 32 });
/// assert!(!c.lookup(0x1000));
/// c.fill(0x1000);
/// assert!(c.lookup(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct TagCache {
    cfg: CacheConfig,
    /// `log2(line_bytes)` and `log2(sets)`: a key's set and tag are shifts
    /// of it.
    line_shift: u32,
    set_shift: u32,
    ways: Vec<Way>, // sets * ways, row-major by set
    tick: u64,
    hits: u64,
    misses: u64,
}

impl TagCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_bytes` are powers of two.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> TagCache {
        assert!(cfg.sets.is_power_of_two(), "cache sets must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "cache line size must be a power of two");
        TagCache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
            ways: vec![Way::default(); cfg.sets * cfg.ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        ((key >> self.line_shift) as usize) & (self.cfg.sets - 1)
    }

    fn tag_of(&self, key: u64) -> u64 {
        key >> (self.line_shift + self.set_shift)
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let w = self.cfg.ways;
        &mut self.ways[set * w..(set + 1) * w]
    }

    /// Probes the cache for the line containing `key`, updating LRU state
    /// and hit/miss statistics. Returns `true` on hit.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        for way in self.set_slice(set) {
            if way.valid && way.tag == tag {
                way.stamp = tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Probes without updating LRU or statistics.
    #[must_use]
    pub fn peek(&self, key: u64) -> bool {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let w = self.cfg.ways;
        self.ways[set * w..(set + 1) * w].iter().any(|way| way.valid && way.tag == tag)
    }

    /// Installs the line containing `key`, evicting the LRU way if needed.
    /// Returns the evicted line's key when a valid line was displaced.
    pub fn fill(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let (line_shift, set_shift) = (self.line_shift, self.set_shift);
        if let Some(way) = self.set_slice(set).iter_mut().find(|w| w.valid && w.tag == tag) {
            way.stamp = tick;
            return None;
        }
        let victim = self
            .set_slice(set)
            .iter_mut()
            .min_by_key(|w| if w.valid { w.stamp } else { 0 })
            .expect("cache has at least one way");
        let evicted = victim.valid.then(|| (victim.tag << set_shift | set as u64) << line_shift);
        victim.tag = tag;
        victim.valid = true;
        victim.stamp = tick;
        evicted
    }

    /// Invalidates every line.
    pub fn invalidate_all(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    /// `(hits, misses)` counted by [`TagCache::lookup`].
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Aligns `addr` down to its line base.
    #[must_use]
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagCache {
        TagCache::new(CacheConfig { sets: 2, ways: 2, line_bytes: 32 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.lookup(0x40));
        c.fill(0x40);
        assert!(c.lookup(0x40));
        assert!(c.lookup(0x5c)); // same line
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // set 0 holds lines with (addr/32) even
        c.fill(0x000);
        c.fill(0x080);
        assert!(c.lookup(0x000)); // touch 0x000, making 0x080 LRU
        let evicted = c.fill(0x100);
        assert_eq!(evicted, Some(0x080));
        assert!(c.peek(0x000));
        assert!(!c.peek(0x080));
        assert!(c.peek(0x100));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        c.fill(0x00); // set 0
        c.fill(0x20); // set 1
        assert!(c.peek(0x00));
        assert!(c.peek(0x20));
    }

    #[test]
    fn folded_spaces_do_not_alias() {
        use crate::MemSpace;
        let mut c = small();
        let a0 = MemSpace::Private(0).fold(0x8000_0000);
        let a1 = MemSpace::Private(1).fold(0x8000_0000);
        c.fill(a0);
        assert!(c.peek(a0));
        assert!(!c.peek(a1)); // same set, different tag
    }

    #[test]
    fn invalidate_clears() {
        let mut c = small();
        c.fill(0x40);
        c.invalidate_all();
        assert!(!c.peek(0x40));
    }

    #[test]
    #[should_panic(expected = "sets must be a power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = TagCache::new(CacheConfig { sets: 3, ways: 1, line_bytes: 32 });
    }

    #[test]
    fn refill_same_line_evicts_nothing_new() {
        let mut c = small();
        c.fill(0x40);
        // same tag refill replaces itself (LRU victim is the invalid way first)
        c.fill(0x40);
        assert!(c.peek(0x40));
    }
}
