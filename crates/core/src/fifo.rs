//! The hold-gated shift FIFO used by both signature generators.
//!
//! Hardware-wise this is a chain of registers clock-gated by the pipeline
//! hold signal: every enabled cycle the oldest entry falls off the head and
//! the new sample enters at the tail (paper, Section III-B1).

use std::hash::{Hash, Hasher};

/// Fixed-depth shift FIFO.
///
/// A mirrored ring: `2 × depth` slots, each sample written at `head` and at
/// `head + depth`, so that a shift is O(1) and the window is always the
/// one contiguous slice `slots[head..head + depth]`, oldest first.
///
/// # Examples
///
/// ```
/// use safedm_core::HoldFifo;
///
/// let mut f = HoldFifo::new(3, 0u64);
/// f.shift(1);
/// f.shift(2);
/// f.shift(3);
/// assert_eq!(f.entries(), &[1, 2, 3]);
/// f.shift(4); // 1 falls off
/// assert_eq!(f.entries(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct HoldFifo<T> {
    /// `slots[i] == slots[i + depth]` for every `i < depth`.
    slots: Vec<T>,
    /// Index of the oldest entry, `< depth`.
    head: usize,
}

impl<T: Clone> HoldFifo<T> {
    /// Creates a FIFO of `depth` entries initialised to `init` (hardware
    /// registers reset to a known value).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, init: T) -> HoldFifo<T> {
        assert!(depth >= 1, "FIFO depth must be at least 1");
        HoldFifo { slots: vec![init; 2 * depth], head: 0 }
    }

    /// Shifts in `sample`, dropping the oldest entry.
    pub fn shift(&mut self, sample: T) {
        let depth = self.depth();
        // The oldest entry's two slots become the newest entry's.
        self.slots[self.head + depth] = sample.clone();
        self.slots[self.head] = sample;
        self.head = if self.head + 1 == depth { 0 } else { self.head + 1 };
    }

    /// The entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[T] {
        &self.slots[self.head..self.head + self.depth()]
    }

    /// FIFO depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.slots.len() / 2
    }

    /// Resets every entry to `value`.
    pub fn reset(&mut self, value: T) {
        self.slots.fill(value);
        self.head = 0;
    }
}

/// Two FIFOs are equal when they hold the same window: the ring position
/// is not part of the state.
impl<T: Clone + PartialEq> PartialEq for HoldFifo<T> {
    fn eq(&self, other: &HoldFifo<T>) -> bool {
        self.entries() == other.entries()
    }
}

impl<T: Clone + Eq> Eq for HoldFifo<T> {}

impl<T: Clone + Hash> Hash for HoldFifo<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::VecDeque;

    use super::*;

    fn hash_of<T: Clone + Hash>(f: &HoldFifo<T>) -> u64 {
        let mut h = DefaultHasher::new();
        f.hash(&mut h);
        h.finish()
    }

    #[test]
    fn ring_matches_a_shift_register_at_every_depth() {
        for depth in 1..=16usize {
            let mut ring = HoldFifo::new(depth, 0u64);
            let mut reference = VecDeque::from(vec![0u64; depth]);
            for sample in 1..=(3 * depth as u64 + 5) {
                ring.shift(sample);
                reference.pop_front();
                reference.push_back(sample);
                let expected: Vec<u64> = reference.iter().copied().collect();
                assert_eq!(ring.entries(), &expected[..], "depth {depth} after sample {sample}");
                assert_eq!(ring.depth(), depth);
            }
        }
    }

    #[test]
    fn equal_windows_at_different_heads_are_equal_and_hash_equal() {
        for depth in 1..=16usize {
            for k in 1..=depth {
                let mut a = HoldFifo::new(depth, 0u64);
                let mut b = HoldFifo::new(depth, 0u64);
                // `b` sees `k` extra leading samples, so its head sits `k`
                // slots (mod depth) away from `a`'s; the last `depth` agree.
                for v in 0..k as u64 {
                    b.shift(1000 + v);
                }
                for v in 0..depth as u64 {
                    a.shift(v);
                    b.shift(v);
                }
                assert_eq!(a.entries(), b.entries());
                assert_eq!(a, b, "depth {depth}, {k} extra samples");
                assert_eq!(hash_of(&a), hash_of(&b), "depth {depth}, {k} extra samples");
            }
        }
    }

    #[test]
    fn initialised_full() {
        let f = HoldFifo::new(4, 7u32);
        assert_eq!(f.entries(), &[7, 7, 7, 7]);
        assert_eq!(f.depth(), 4);
    }

    #[test]
    fn shift_order_is_fifo() {
        let mut f = HoldFifo::new(2, 0u8);
        f.shift(1);
        assert_eq!(f.entries(), &[0, 1]);
        f.shift(2);
        assert_eq!(f.entries(), &[1, 2]);
        f.shift(3);
        assert_eq!(f.entries(), &[2, 3]);
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = HoldFifo::new(3, 0u64);
        let mut b = HoldFifo::new(3, 0u64);
        assert_eq!(a, b);
        a.shift(5);
        assert_ne!(a, b);
        b.shift(5);
        assert_eq!(a, b);
    }

    #[test]
    fn reset_restores_known_state() {
        let mut f = HoldFifo::new(3, 0u64);
        f.shift(9);
        f.reset(0);
        assert_eq!(f, HoldFifo::new(3, 0u64));
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_panics() {
        let _ = HoldFifo::new(0, 0u8);
    }

    #[test]
    fn depth_one_tracks_last() {
        let mut f = HoldFifo::new(1, 0u8);
        f.shift(3);
        assert_eq!(f.entries(), &[3]);
        f.shift(4);
        assert_eq!(f.entries(), &[4]);
    }
}
