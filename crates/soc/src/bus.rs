//! The shared interconnect ("uncore"): AHB-like arbitrated bus, shared L2,
//! memory controller and APB bridge.
//!
//! The bus serialises requests from all cores — one transaction owns the bus
//! at a time, arbitration is round-robin. This serialisation is the paper's
//! *natural diversity* mechanism: when two redundant cores miss their L1s in
//! the same cycle, one is granted first and the other is delayed, which
//! breaks any zero-cycle staggering (SafeDM paper, Section V-C).

use crate::{ApbRegisterFile, MainMemory, SbEntry, SocConfig, TagCache};

/// Which functional unit of a core owns a bus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusUnit {
    /// Instruction-fetch line fills.
    IFetch,
    /// Demand data-load line fills and APB data accesses.
    Data,
    /// Store-buffer drains.
    Store,
}

/// Number of bus ports per core.
pub const UNITS_PER_CORE: usize = 3;

/// Identifies one requester port on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortId {
    /// Core index.
    pub core: usize,
    /// Unit within the core.
    pub unit: BusUnit,
}

impl PortId {
    fn index(self) -> usize {
        self.core * UNITS_PER_CORE
            + match self.unit {
                BusUnit::IFetch => 0,
                BusUnit::Data => 1,
                BusUnit::Store => 2,
            }
    }
}

/// A bus transaction request.
#[derive(Debug, Clone)]
pub enum BusOp {
    /// Fill one cache line; `key` is the space-folded line address.
    ReadLine {
        /// Folded line address.
        key: u64,
    },
    /// Write-through one store-buffer entry.
    WriteLine(Box<SbEntry>),
    /// Uncached APB read.
    ApbRead {
        /// Absolute APB address.
        addr: u64,
    },
    /// Uncached APB write.
    ApbWrite {
        /// Absolute APB address.
        addr: u64,
        /// 64-bit write data.
        data: u64,
    },
}

/// Completion notification for a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusResult {
    /// The transaction completed (line filled / write performed).
    Done,
    /// An APB read completed with this data.
    ApbData(u64),
}

#[derive(Debug, Default)]
struct Port {
    pending: Option<BusOp>,
    done: Option<BusResult>,
}

#[derive(Debug)]
struct Active {
    port: usize,
    remaining: u32,
}

/// Aggregate interconnect statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed bus transactions.
    pub transactions: u64,
    /// Cycles the bus spent occupied.
    pub busy_cycles: u64,
    /// Cycles at least one request waited while the bus was occupied or
    /// while losing arbitration.
    pub contended_cycles: u64,
    /// L2 hits / misses (demand + write).
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Line reads satisfied by merging with an identical in-flight read
    /// (same folded line key — only possible for the shared code space).
    pub merged_reads: u64,
}

/// The shared part of the MPSoC: bus arbiter, L2, memory and APB bridge.
pub struct Uncore {
    cfg: SocConfig,
    l2: TagCache,
    /// Functional backing store (public for loaders and checkers).
    pub mem: MainMemory,
    ports: Vec<Port>,
    /// Bit `i` is set while port `i` has a request (pending or granted).
    pending: u64,
    /// APB reads requested and not yet completed.
    apb_reads: u32,
    active: Option<Active>,
    rr_next: usize,
    apb: Vec<ApbRegisterFile>,
    req_counter: u64,
    stats: BusStats,
}

impl std::fmt::Debug for Uncore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Uncore")
            .field("active", &self.active)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Uncore {
    /// Creates the uncore for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more than 21 cores: the arbiter keeps one bit per
    /// bus port in a 64-bit mask.
    #[must_use]
    pub fn new(cfg: &SocConfig) -> Uncore {
        let ports = cfg.cores * UNITS_PER_CORE;
        assert!(ports <= 64, "the bus arbiter serves at most 21 cores");
        Uncore {
            cfg: cfg.clone(),
            l2: TagCache::new(cfg.l2),
            mem: MainMemory::new(cfg.ram_base, cfg.ram_size),
            ports: (0..ports).map(|_| Port::default()).collect(),
            pending: 0,
            apb_reads: 0,
            active: None,
            rr_next: 0,
            apb: Vec::new(),
            req_counter: 0,
            stats: BusStats::default(),
        }
    }

    /// Registers an APB slave register bank; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the bank lies outside the configured APB window or overlaps
    /// an existing slave.
    pub fn add_apb_slave(&mut self, slave: ApbRegisterFile) -> usize {
        assert!(
            self.cfg.in_apb(slave.base(), slave.size()),
            "APB slave at {:#x} outside APB window",
            slave.base()
        );
        for s in &self.apb {
            let disjoint =
                slave.base() + slave.size() <= s.base() || s.base() + s.size() <= slave.base();
            assert!(disjoint, "APB slaves overlap at {:#x}", slave.base());
        }
        self.apb.push(slave);
        self.apb.len() - 1
    }

    /// Host-side access to a registered APB slave.
    #[must_use]
    pub fn apb_slave(&self, index: usize) -> &ApbRegisterFile {
        &self.apb[index]
    }

    /// Host-side mutable access to a registered APB slave.
    pub fn apb_slave_mut(&mut self, index: usize) -> &mut ApbRegisterFile {
        &mut self.apb[index]
    }

    /// Submits a request on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port already has a pending request or an uncollected
    /// completion (requesters must poll [`Uncore::take_done`] first).
    pub fn request(&mut self, port: PortId, op: BusOp) {
        let idx = port.index();
        let p = &mut self.ports[idx];
        assert!(p.pending.is_none() && p.done.is_none(), "bus port {port:?} busy");
        self.apb_reads += u32::from(matches!(op, BusOp::ApbRead { .. }));
        p.pending = Some(op);
        self.pending |= 1 << idx;
    }

    /// Whether `port` has a request in flight (pending or granted).
    #[must_use]
    pub fn in_flight(&self, port: PortId) -> bool {
        self.pending & (1 << port.index()) != 0
    }

    /// Whether an APB read is pending or on the bus: the only time a
    /// requester can observe an APB register.
    #[must_use]
    pub fn apb_read_in_flight(&self) -> bool {
        self.apb_reads != 0
    }

    /// Collects the completion for `port`, if any.
    pub fn take_done(&mut self, port: PortId) -> Option<BusResult> {
        self.ports[port.index()].done.take()
    }

    /// Deterministic pseudo-random memory jitter in `0..=cfg.mem_jitter`.
    fn jitter(&mut self) -> u32 {
        if self.cfg.mem_jitter == 0 {
            return 0;
        }
        self.req_counter += 1;
        let mut x = self.cfg.jitter_seed ^ self.req_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        (x % u64::from(self.cfg.mem_jitter + 1)) as u32
    }

    /// Latency of a granted transaction on the folded line `key`, `None`
    /// for an APB access; looks the line up in L2 and fills it on a miss
    /// (a line write allocates: fetch, merge, keep).
    fn grant_latency(&mut self, key: Option<u64>) -> u32 {
        let Some(key) = key else { return self.cfg.apb_latency };
        let beats = (self.cfg.l2.line_bytes as u32 / 16).max(1) * self.cfg.beat_latency;
        if self.l2.lookup(key) {
            self.stats.l2_hits += 1;
            1 + self.cfg.l2_latency + beats
        } else {
            self.stats.l2_misses += 1;
            self.l2.fill(key);
            1 + self.cfg.l2_latency + self.cfg.mem_latency + self.jitter() + beats
        }
    }

    fn complete(&mut self, port_idx: usize) {
        let op = self.ports[port_idx].pending.take().expect("active port has op");
        self.pending &= !(1 << port_idx);
        let result = match op {
            BusOp::ReadLine { key } => {
                // Request merging (L2 MSHR behaviour): any other port waiting
                // for the *same* line rides along and completes now. Since
                // private data spaces fold the core id into the key, only
                // shared-code fetches can merge — which is what keeps
                // bit-identical redundant cores in lockstep until their
                // first private-data access serialises them.
                let mut waiting = self.pending;
                while waiting != 0 {
                    let idx = waiting.trailing_zeros() as usize;
                    waiting &= waiting - 1;
                    let p = &mut self.ports[idx];
                    if matches!(p.pending, Some(BusOp::ReadLine { key: k }) if k == key) {
                        p.pending = None;
                        p.done = Some(BusResult::Done);
                        self.pending &= !(1 << idx);
                        self.stats.merged_reads += 1;
                        self.stats.transactions += 1;
                    }
                }
                BusResult::Done
            }
            BusOp::WriteLine(entry) => {
                let n = self.cfg.l2.line_bytes as usize;
                self.mem.write_masked(
                    entry.space,
                    entry.line_addr,
                    &entry.data[..n],
                    &entry.mask[..n],
                );
                BusResult::Done
            }
            BusOp::ApbRead { addr } => {
                self.apb_reads -= 1;
                let data = self.apb.iter().find(|s| s.contains(addr)).map_or(0, |s| s.read(addr));
                BusResult::ApbData(data)
            }
            BusOp::ApbWrite { addr, data } => {
                if let Some(s) = self.apb.iter_mut().find(|s| s.contains(addr)) {
                    s.write(addr, data);
                }
                BusResult::Done
            }
        };
        self.ports[port_idx].done = Some(result);
        self.stats.transactions += 1;
    }

    /// Advances the interconnect by one cycle: progresses the active
    /// transaction and, when the bus is idle, grants the next requester in
    /// round-robin order.
    pub fn step(&mut self) {
        // The granted port keeps its request until it completes.
        let waiting = self.pending.count_ones() - u32::from(self.active.is_some());

        if let Some(active) = &mut self.active {
            self.stats.busy_cycles += 1;
            if waiting > 0 {
                self.stats.contended_cycles += 1;
            }
            active.remaining -= 1;
            if active.remaining == 0 {
                let port = active.port;
                self.active = None;
                self.complete(port);
            }
            return;
        }

        if self.pending == 0 {
            return;
        }
        // Arbitration: round-robin starting after the last granted port,
        // or fixed priority from port 0: the first requester at or after
        // `start`, wrapping around.
        let start = match self.cfg.arbitration {
            crate::ArbitrationPolicy::RoundRobin => self.rr_next,
            crate::ArbitrationPolicy::FixedPriority => 0,
        };
        let from_start = self.pending & (u64::MAX << start);
        let idx = if from_start != 0 { from_start } else { self.pending }.trailing_zeros() as usize;
        if waiting > 1 {
            self.stats.contended_cycles += 1;
        }
        let key = match self.ports[idx].pending.as_ref().expect("pending bit set") {
            BusOp::ReadLine { key } => Some(*key),
            BusOp::WriteLine(entry) => Some(entry.space.fold(entry.line_addr)),
            BusOp::ApbRead { .. } | BusOp::ApbWrite { .. } => None,
        };
        let latency = self.grant_latency(key);
        self.active = Some(Active { port: idx, remaining: latency });
        self.rr_next = (idx + 1) % self.ports.len();
    }

    /// Interconnect statistics.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The L2 tag array (exposed for tests and experiments).
    #[must_use]
    pub fn l2(&self) -> &TagCache {
        &self.l2
    }

    /// The configuration the uncore was built with.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemSpace;

    const P0: PortId = PortId { core: 0, unit: BusUnit::Data };
    const P1: PortId = PortId { core: 1, unit: BusUnit::Data };

    fn uncore() -> Uncore {
        Uncore::new(&SocConfig::default())
    }

    fn run_until_done(u: &mut Uncore, port: PortId, max: u32) -> (BusResult, u32) {
        for c in 0..max {
            u.step();
            if let Some(r) = u.take_done(port) {
                return (r, c + 1);
            }
        }
        panic!("transaction did not complete in {max} cycles");
    }

    #[test]
    fn read_line_l2_miss_then_hit_latency() {
        let mut u = uncore();
        let cfg = u.config().clone();
        let key = MemSpace::Private(0).fold(0x8000_0000);
        u.request(P0, BusOp::ReadLine { key });
        let (_, miss_cycles) = run_until_done(&mut u, P0, 200);
        u.request(P0, BusOp::ReadLine { key });
        let (_, hit_cycles) = run_until_done(&mut u, P0, 200);
        assert!(miss_cycles > hit_cycles);
        assert_eq!(u64::from(miss_cycles - hit_cycles), u64::from(cfg.mem_latency));
        assert_eq!(u.stats().l2_hits, 1);
        assert_eq!(u.stats().l2_misses, 1);
    }

    #[test]
    fn simultaneous_requests_serialise() {
        let mut u = uncore();
        let k0 = MemSpace::Private(0).fold(0x8000_0000);
        let k1 = MemSpace::Private(1).fold(0x8000_0000);
        u.request(P0, BusOp::ReadLine { key: k0 });
        u.request(P1, BusOp::ReadLine { key: k1 });
        let (_, c0) = run_until_done(&mut u, P0, 400);
        // P1 completes strictly later: it waited for the bus.
        let mut c1 = c0;
        loop {
            if let Some(_r) = u.take_done(P1) {
                break;
            }
            u.step();
            c1 += 1;
            assert!(c1 < 500);
        }
        assert!(c1 > c0, "second requester must be delayed ({c0} vs {c1})");
        assert!(u.stats().contended_cycles > 0);
    }

    #[test]
    fn round_robin_alternates_grants() {
        let mut u = uncore();
        // Warm L2 for both keys so latencies are equal.
        let k0 = MemSpace::Private(0).fold(0x8000_0000);
        let k1 = MemSpace::Private(1).fold(0x8000_0000);
        u.request(P0, BusOp::ReadLine { key: k0 });
        run_until_done(&mut u, P0, 400);
        u.request(P1, BusOp::ReadLine { key: k1 });
        run_until_done(&mut u, P1, 400);

        // Now request repeatedly from both; completions must alternate.
        let mut order = Vec::new();
        u.request(P0, BusOp::ReadLine { key: k0 });
        u.request(P1, BusOp::ReadLine { key: k1 });
        for _ in 0..200 {
            u.step();
            if u.take_done(P0).is_some() {
                order.push(0);
                if order.len() >= 4 {
                    break;
                }
                u.request(P0, BusOp::ReadLine { key: k0 });
            }
            if u.take_done(P1).is_some() {
                order.push(1);
                if order.len() >= 4 {
                    break;
                }
                u.request(P1, BusOp::ReadLine { key: k1 });
            }
        }
        assert!(order.len() >= 4);
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "round-robin must alternate, got {order:?}");
        }
    }

    #[test]
    fn write_line_updates_memory_at_completion() {
        let mut u = uncore();
        let mut entry = SbEntry {
            space: MemSpace::Private(0),
            line_addr: 0x8000_0020,
            data: [0; crate::MAX_LINE],
            mask: [false; crate::MAX_LINE],
            age: 0,
            in_flight: true,
        };
        entry.data[4] = 0xcd;
        entry.mask[4] = true;
        u.request(P0, BusOp::WriteLine(Box::new(entry)));
        // Not yet written:
        let mut b = [0u8];
        u.mem.read(MemSpace::Private(0), 0x8000_0024, &mut b);
        assert_eq!(b[0], 0);
        run_until_done(&mut u, P0, 400);
        u.mem.read(MemSpace::Private(0), 0x8000_0024, &mut b);
        assert_eq!(b[0], 0xcd);
    }

    #[test]
    fn apb_read_write_roundtrip() {
        let mut u = uncore();
        let base = u.config().apb_base;
        u.add_apb_slave(ApbRegisterFile::new(base, 4));
        u.request(P0, BusOp::ApbWrite { addr: base + 8, data: 77 });
        assert!(!u.apb_read_in_flight(), "a write is not a read");
        run_until_done(&mut u, P0, 50);
        u.request(P0, BusOp::ApbRead { addr: base + 8 });
        assert!(u.apb_read_in_flight());
        let (r, c) = run_until_done(&mut u, P0, 50);
        assert!(!u.apb_read_in_flight());
        assert_eq!(r, BusResult::ApbData(77));
        // one arbitration cycle plus the APB access latency
        assert_eq!(c, u.config().apb_latency + 1);
    }

    #[test]
    fn unmapped_apb_reads_zero() {
        let mut u = uncore();
        let base = u.config().apb_base;
        u.request(P0, BusOp::ApbRead { addr: base + 0x800 });
        let (r, _) = run_until_done(&mut u, P0, 50);
        assert_eq!(r, BusResult::ApbData(0));
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_request_panics() {
        let mut u = uncore();
        u.request(P0, BusOp::ReadLine { key: 0 });
        u.request(P0, BusOp::ReadLine { key: 64 });
    }

    #[test]
    fn same_line_reads_merge() {
        let mut u = uncore();
        let key = MemSpace::Code.fold(0x8000_0000);
        u.request(P0, BusOp::ReadLine { key });
        u.request(P1, BusOp::ReadLine { key });
        let (_, c0) = run_until_done(&mut u, P0, 400);
        // The second requester completed in the very same cycle (rode along).
        assert_eq!(u.take_done(P1), Some(BusResult::Done));
        assert!(c0 > 0);
        assert_eq!(u.stats().merged_reads, 1);
    }

    #[test]
    fn different_space_reads_do_not_merge() {
        let mut u = uncore();
        let k0 = MemSpace::Private(0).fold(0x8000_0000);
        let k1 = MemSpace::Private(1).fold(0x8000_0000);
        u.request(P0, BusOp::ReadLine { key: k0 });
        u.request(P1, BusOp::ReadLine { key: k1 });
        run_until_done(&mut u, P0, 400);
        assert_eq!(u.take_done(P1), None, "private lines must serialise");
        assert_eq!(u.stats().merged_reads, 0);
    }

    #[test]
    fn fixed_priority_always_favours_port_zero() {
        let cfg = SocConfig {
            arbitration: crate::ArbitrationPolicy::FixedPriority,
            ..SocConfig::default()
        };
        let mut u = Uncore::new(&cfg);
        let k0 = MemSpace::Private(0).fold(0x8000_0000);
        let k1 = MemSpace::Private(1).fold(0x8000_0000);
        // Warm L2 for both keys.
        u.request(P0, BusOp::ReadLine { key: k0 });
        run_until_done(&mut u, P0, 400);
        u.request(P1, BusOp::ReadLine { key: k1 });
        run_until_done(&mut u, P1, 400);
        // Repeated simultaneous requests: P0 must always complete first.
        for _ in 0..4 {
            u.request(P0, BusOp::ReadLine { key: k0 });
            u.request(P1, BusOp::ReadLine { key: k1 });
            loop {
                u.step();
                if u.take_done(P0).is_some() {
                    assert_eq!(u.take_done(P1), None, "P1 must still be waiting");
                    break;
                }
                assert_eq!(u.take_done(P1), None, "P1 must never win under fixed priority");
            }
            loop {
                u.step();
                if u.take_done(P1).is_some() {
                    break;
                }
            }
        }
    }

    #[test]
    fn jitter_changes_latency_deterministically() {
        let mk = |seed: u64| {
            let cfg = SocConfig { mem_jitter: 3, jitter_seed: seed, ..SocConfig::default() };
            let mut u = Uncore::new(&cfg);
            u.request(P0, BusOp::ReadLine { key: 0x8000_0000 });
            run_until_done(&mut u, P0, 400).1
        };
        assert_eq!(mk(1), mk(1), "same seed must reproduce");
        let distinct = (0..16).map(mk).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "different seeds should vary latency");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_apb_slaves_panic() {
        let mut u = uncore();
        let base = u.config().apb_base;
        u.add_apb_slave(ApbRegisterFile::new(base, 4));
        u.add_apb_slave(ApbRegisterFile::new(base + 8, 4));
    }
}
