//! A Dual-Core LockStep (DCLS) output comparator — the classical mechanism
//! of the paper's Fig. 1, provided as a reference detector.
//!
//! DCLS ties two cores together and compares their *outputs* with a fixed
//! staggering: the shadow core's commits are compared against the head
//! core's commits from `stagger` instructions earlier. On non-lockstepped
//! cores the same idea can be applied at the commit stream: this module
//! buffers per-commit `(committed-count, write-port digest)` pairs and
//! flags the first divergence. Fault campaigns use it to measure
//! **detection latency** (cycles from injection to first mismatch), the
//! quantity the FTTI argument of Section III-A depends on.

use std::collections::VecDeque;

use safedm_soc::{CoreProbe, WRITE_PORTS};

fn digest(probe: &CoreProbe) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for w in (0..WRITE_PORTS).map(|i| probe.write_port(i)) {
        if w.enable {
            d ^= w.value;
            d = d.wrapping_mul(0x1000_0000_01b3);
        }
    }
    d ^ u64::from(probe.committed)
}

/// Output comparator over two commit streams.
///
/// Feed one probe pair per cycle; samples are queued per core and compared
/// in commit order, which tolerates arbitrary cycle-level staggering
/// between the cores (unlike classical DCLS, which requires a fixed
/// offset).
///
/// # Examples
///
/// ```
/// use safedm_core::DclsComparator;
/// use safedm_soc::{CoreProbe, PortSample};
///
/// let mut cmp = DclsComparator::new(64);
/// let mut p = CoreProbe::default();
/// p.committed = 1;
/// p.set_write_port(0, PortSample { enable: true, value: 42 });
/// cmp.observe(&p, &p);
/// assert!(!cmp.mismatch());
/// ```
#[derive(Debug, Clone)]
pub struct DclsComparator {
    queues: [VecDeque<u64>; 2],
    capacity: usize,
    compared: u64,
    mismatch_at: Option<u64>,
    cycle: u64,
    overflowed: bool,
}

impl DclsComparator {
    /// Creates a comparator with a per-core buffer of `capacity` pending
    /// commit digests (hardware would size this to the tolerated
    /// staggering).
    #[must_use]
    pub fn new(capacity: usize) -> DclsComparator {
        DclsComparator {
            queues: [VecDeque::new(), VecDeque::new()],
            capacity,
            compared: 0,
            mismatch_at: None,
            cycle: 0,
            overflowed: false,
        }
    }

    /// Observes one cycle of both cores and compares whatever commit
    /// digests are available from both sides.
    pub fn observe(&mut self, p0: &CoreProbe, p1: &CoreProbe) {
        self.cycle += 1;
        if self.mismatch_at.is_some() {
            return;
        }
        for (q, p) in self.queues.iter_mut().zip([p0, p1]) {
            if p.committed > 0 {
                if q.len() >= self.capacity {
                    // Hardware would stall or flag; the model records it.
                    self.overflowed = true;
                    q.pop_front();
                }
                q.push_back(digest(p));
            }
        }
        while let (Some(a), Some(b)) = (self.queues[0].front(), self.queues[1].front()) {
            if a != b {
                self.mismatch_at = Some(self.cycle);
                return;
            }
            self.queues[0].pop_front();
            self.queues[1].pop_front();
            self.compared += 1;
        }
    }

    /// Whether a mismatch has been flagged.
    #[must_use]
    pub fn mismatch(&self) -> bool {
        self.mismatch_at.is_some()
    }

    /// The cycle (1-based observation count) of the first mismatch.
    #[must_use]
    pub fn mismatch_cycle(&self) -> Option<u64> {
        self.mismatch_at
    }

    /// Commit groups compared equal so far.
    #[must_use]
    pub fn compared(&self) -> u64 {
        self.compared
    }

    /// Whether the staggering exceeded the buffer capacity at any point.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_soc::PortSample;

    fn commit(v: u64) -> CoreProbe {
        let mut p = CoreProbe { committed: 1, ..CoreProbe::default() };
        p.set_write_port(0, PortSample { enable: true, value: v });
        p
    }

    #[test]
    fn equal_streams_never_flag() {
        let mut c = DclsComparator::new(16);
        for i in 0..100u64 {
            let p = commit(i);
            c.observe(&p, &p);
        }
        assert!(!c.mismatch());
        assert_eq!(c.compared(), 100);
    }

    #[test]
    fn staggered_equal_streams_never_flag() {
        let mut c = DclsComparator::new(16);
        let idle = CoreProbe::default();
        // core 1 lags by 5 commits
        for i in 0..5u64 {
            c.observe(&commit(i), &idle);
        }
        for i in 5..50u64 {
            c.observe(&commit(i), &commit(i - 5));
        }
        assert!(!c.mismatch());
        assert!(c.compared() >= 40);
    }

    #[test]
    fn diverging_value_flags_at_first_comparison() {
        let mut c = DclsComparator::new(16);
        for i in 0..10u64 {
            c.observe(&commit(i), &commit(i));
        }
        c.observe(&commit(99), &commit(100));
        assert!(c.mismatch());
        assert_eq!(c.mismatch_cycle(), Some(11));
        // further observations are inert
        c.observe(&commit(1), &commit(1));
        assert_eq!(c.compared(), 10);
    }

    #[test]
    fn overflow_is_reported_not_fatal() {
        let mut c = DclsComparator::new(4);
        let idle = CoreProbe::default();
        for i in 0..10u64 {
            c.observe(&commit(i), &idle); // core 1 silent: queue overflows
        }
        assert!(c.overflowed());
        assert!(!c.mismatch());
    }

    #[test]
    fn commit_count_differences_affect_digest() {
        let mut a = CoreProbe { committed: 2, ..CoreProbe::default() };
        a.set_write_port(0, PortSample { enable: true, value: 7 });
        let mut b = a;
        b.committed = 1;
        let mut c = DclsComparator::new(8);
        c.observe(&a, &b);
        assert!(c.mismatch(), "dual vs single commit of same value must differ");
    }
}
