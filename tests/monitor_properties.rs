//! Property tests of the SafeDM monitor over random probe streams, plus
//! invariants of the campaign engine's per-cell seed derivation.

use std::collections::VecDeque;

use proptest::prelude::*;
use safedm::campaign::{derive_cell_seed, ConfigGrid};
use safedm::monitor::{
    CycleReport, DiversityCounters, HammingStats, IsLayout, SafeDm, SafeDmConfig, DATA_PORTS,
};
use safedm::soc::{
    CoreProbe, PortSample, StageSlot, PIPE_STAGES, PIPE_WIDTH, READ_PORTS, WRITE_PORTS,
};

#[derive(Debug, Clone)]
struct ProbeStep {
    hold: bool,
    reads: Vec<(bool, u64)>,
    stage_raws: Vec<(usize, usize, bool, u32)>,
    committed: u8,
}

fn any_step() -> impl Strategy<Value = ProbeStep> {
    (
        proptest::bool::weighted(0.15),
        proptest::collection::vec((any::<bool>(), any::<u64>()), READ_PORTS),
        proptest::collection::vec(
            (0..PIPE_STAGES, 0..PIPE_WIDTH, any::<bool>(), any::<u32>()),
            0..6,
        ),
        0u8..=2,
    )
        .prop_map(|(hold, reads, stage_raws, committed)| ProbeStep {
            hold,
            reads,
            stage_raws,
            committed,
        })
}

fn apply(prev: &CoreProbe, step: &ProbeStep) -> CoreProbe {
    let mut p = *prev;
    p.hold = step.hold;
    p.committed = step.committed;
    if !step.hold {
        for (i, &(enable, value)) in step.reads.iter().enumerate() {
            p.set_read_port(i, PortSample { enable, value });
        }
        for (s, w, valid, raw) in &step.stage_raws {
            p.stages[*s][*w] = StageSlot { valid: *valid, raw: *raw };
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Feeding the identical stream to both inputs flags every cycle —
    /// the no-false-negative property over arbitrary activity.
    #[test]
    fn identical_streams_always_flagged(steps in proptest::collection::vec(any_step(), 1..80)) {
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let mut probe = CoreProbe::default();
        for step in &steps {
            probe = apply(&probe, step);
            let r = dm.observe(&probe.clone(), &probe);
            prop_assert!(r.no_diversity);
        }
        prop_assert_eq!(dm.counters().no_div_cycles, steps.len() as u64);
    }

    /// Counter lattice: no-div <= each match count <= observed; episode
    /// histograms account exactly for their counters after finish().
    #[test]
    fn counters_are_consistent(
        a in proptest::collection::vec(any_step(), 1..80),
        b in proptest::collection::vec(any_step(), 1..80),
    ) {
        let n = a.len().min(b.len());
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let (mut pa, mut pb) = (CoreProbe::default(), CoreProbe::default());
        for i in 0..n {
            pa = apply(&pa, &a[i]);
            pb = apply(&pb, &b[i]);
            dm.observe(&pa, &pb);
        }
        dm.finish();
        let c = dm.counters();
        prop_assert!(c.no_div_cycles <= c.ds_match_cycles);
        prop_assert!(c.no_div_cycles <= c.is_match_cycles);
        prop_assert!(c.ds_match_cycles <= c.cycles_observed);
        prop_assert!(c.is_match_cycles <= c.cycles_observed);
        prop_assert_eq!(c.cycles_observed, n as u64);
        prop_assert_eq!(dm.no_diversity_history().total_cycles(), c.no_div_cycles);
        prop_assert_eq!(dm.ds_match_history().total_cycles(), c.ds_match_cycles);
        prop_assert_eq!(dm.is_match_history().total_cycles(), c.is_match_cycles);
        prop_assert!(dm.max_no_div_run() <= c.no_div_cycles);
    }

    /// The IRQ line is monotone in InterruptFirst mode: once raised it
    /// stays raised until cleared, and it is raised iff no-div occurred.
    #[test]
    fn irq_first_mode_fires_iff_no_div(
        a in proptest::collection::vec(any_step(), 1..60),
        b in proptest::collection::vec(any_step(), 1..60),
    ) {
        let n = a.len().min(b.len());
        let mut dm = SafeDm::new(SafeDmConfig::default());
        let (mut pa, mut pb) = (CoreProbe::default(), CoreProbe::default());
        let mut was_pending = false;
        for i in 0..n {
            pa = apply(&pa, &a[i]);
            pb = apply(&pb, &b[i]);
            dm.observe(&pa, &pb);
            prop_assert!(!was_pending || dm.irq_pending(), "irq must latch");
            was_pending = dm.irq_pending();
        }
        prop_assert_eq!(dm.irq_pending(), dm.counters().no_div_cycles > 0);
    }

    /// A single divergent data cycle suppresses the flag for at least the
    /// FIFO depth, regardless of what identical traffic follows.
    #[test]
    fn divergence_protects_for_fifo_depth(
        depth in 1usize..12,
        tail in proptest::collection::vec(any_step(), 12..40),
    ) {
        let cfg = SafeDmConfig { data_fifo_depth: depth, ..SafeDmConfig::default() };
        let mut dm = SafeDm::new(cfg);
        // one divergent cycle (port value differs)
        let mut pa = CoreProbe::default();
        pa.set_read_port(0, PortSample { enable: true, value: 1 });
        let mut pb = pa;
        pb.set_read_port(0, PortSample { enable: true, value: 2 });
        dm.observe(&pa, &pb);
        // identical (non-hold) traffic afterwards
        let mut probe = CoreProbe::default();
        let mut shifted = 0usize;
        for step in &tail {
            let mut s = step.clone();
            s.hold = false;
            probe = apply(&probe, &s);
            let r = dm.observe(&probe.clone(), &probe);
            shifted += 1;
            if shifted < depth {
                prop_assert!(!r.ds_match, "divergent sample must persist {depth} cycles");
            }
        }
    }
}

/// A naive SafeDM: one `VecDeque` FIFO per port and a plain slot list per
/// core, recompared in full every cycle. It reads the probe's ports only
/// through `read_port`/`write_port`, so it does not share the monitor's
/// row layout.
struct ReferenceMonitor {
    layout: IsLayout,
    ds: [Vec<VecDeque<(bool, u64)>>; 2],
    is: [Vec<(bool, u32)>; 2],
    stagger: i64,
    counters: DiversityCounters,
    hamming: HammingStats,
}

impl ReferenceMonitor {
    fn new(cfg: &SafeDmConfig) -> ReferenceMonitor {
        let fifos = vec![VecDeque::from(vec![(false, 0); cfg.data_fifo_depth]); DATA_PORTS];
        let slots = vec![(false, 0); PIPE_STAGES * PIPE_WIDTH];
        ReferenceMonitor {
            layout: cfg.is_layout,
            ds: [fifos.clone(), fifos],
            is: [slots.clone(), slots],
            stagger: 0,
            counters: DiversityCounters::default(),
            hamming: HammingStats { min_total: u32::MAX, ..HammingStats::default() },
        }
    }

    fn slots(&self, p: &CoreProbe) -> Vec<(bool, u32)> {
        let mut slots: Vec<(bool, u32)> = match self.layout {
            IsLayout::PerStage => p
                .stages
                .iter()
                .flatten()
                .map(|s| if s.valid { (true, s.raw) } else { (false, 0) })
                .collect(),
            IsLayout::InFlight => {
                p.stages.iter().rev().flatten().filter(|s| s.valid).map(|s| (true, s.raw)).collect()
            }
        };
        slots.resize(PIPE_STAGES * PIPE_WIDTH, (false, 0));
        slots
    }

    fn observe(&mut self, probes: [&CoreProbe; 2]) -> CycleReport {
        for (c, p) in probes.into_iter().enumerate() {
            if p.hold {
                continue;
            }
            let ports = (0..READ_PORTS)
                .map(|i| p.read_port(i))
                .chain((0..WRITE_PORTS).map(|i| p.write_port(i)));
            for (fifo, port) in self.ds[c].iter_mut().zip(ports) {
                fifo.pop_front();
                fifo.push_back((port.enable, port.value));
            }
            self.is[c] = self.slots(p);
        }
        let ds_match = self.ds[0] == self.ds[1];
        let is_match = self.is[0] == self.is[1];
        let ds_dist: u32 = (self.ds[0].iter().flatten())
            .zip(self.ds[1].iter().flatten())
            .map(|(&(ea, va), &(eb, vb))| u32::from(ea != eb) + (va ^ vb).count_ones())
            .sum();
        let is_dist: u32 = (self.is[0].iter())
            .zip(&self.is[1])
            .map(|(&(va, ra), &(vb, rb))| u32::from(va != vb) + (ra ^ rb).count_ones())
            .sum();
        let h = &mut self.hamming;
        h.ds_sum += u64::from(ds_dist);
        h.is_sum += u64::from(is_dist);
        h.min_total = h.min_total.min(ds_dist + is_dist);
        h.max_total = h.max_total.max(ds_dist + is_dist);
        h.last = (ds_dist, is_dist);
        self.stagger += i64::from(probes[0].committed) - i64::from(probes[1].committed);
        let no_diversity = ds_match && is_match;
        let c = &mut self.counters;
        c.cycles_observed += 1;
        c.ds_match_cycles += u64::from(ds_match);
        c.is_match_cycles += u64::from(is_match);
        c.no_div_cycles += u64::from(no_diversity);
        CycleReport {
            ds_match,
            is_match,
            no_diversity,
            zero_stagger: self.stagger == 0,
            observed: true,
        }
    }
}

/// One cycle of a redundant pair: a sample both cores share, an optional
/// one-core deviation, a hold flag both cores share plus one each, and
/// whether the monitor is reset before the cycle.
#[derive(Debug, Clone)]
struct PairStep {
    reset: bool,
    joint_hold: bool,
    own_hold: [bool; 2],
    ports: Vec<(bool, u64)>,
    slots: Vec<(bool, u32)>,
    /// `(core, field, value)`: fields below `DATA_PORTS` change a port
    /// value, the others a slot's encoding and valid bit.
    deviation: Option<(usize, usize, u64)>,
    committed: [u8; 2],
}

fn any_pair_step() -> impl Strategy<Value = PairStep> {
    // Small value domains make equal signatures, and so matches, common.
    let deviation = (0usize..2, 0..DATA_PORTS + PIPE_STAGES * PIPE_WIDTH, 0u64..4);
    (
        (proptest::bool::weighted(0.03), proptest::bool::weighted(0.5)),
        (proptest::bool::weighted(0.15), proptest::bool::weighted(0.15)),
        proptest::collection::vec((any::<bool>(), 0u64..3), DATA_PORTS),
        proptest::collection::vec((any::<bool>(), 0u32..3), PIPE_STAGES * PIPE_WIDTH),
        (proptest::bool::weighted(0.2), deviation),
        (0u8..=2, 0u8..=2),
    )
        .prop_map(
            |((reset, joint_hold), (h0, h1), ports, slots, (deviate, deviation), (c0, c1))| {
                PairStep {
                    reset,
                    joint_hold,
                    own_hold: [h0, h1],
                    ports,
                    slots,
                    deviation: deviate.then_some(deviation),
                    committed: [c0, c1],
                }
            },
        )
}

/// Core `core`'s probe for `step`. A held core still drives its wires; the
/// monitor must ignore them.
fn pair_probe(step: &PairStep, core: usize) -> CoreProbe {
    let mut p = CoreProbe {
        hold: step.joint_hold || step.own_hold[core],
        committed: step.committed[core],
        ..CoreProbe::default()
    };
    let mut ports = step.ports.clone();
    if let Some((c, field, v)) = step.deviation {
        if c == core && field < DATA_PORTS {
            ports[field].1 ^= v + 1;
        }
    }
    for (i, &(enable, value)) in ports.iter().enumerate() {
        let port = PortSample { enable, value };
        if i < READ_PORTS {
            p.set_read_port(i, port);
        } else {
            p.set_write_port(i - READ_PORTS, port);
        }
    }
    for (i, &(valid, raw)) in step.slots.iter().enumerate() {
        p.stages[i / PIPE_WIDTH][i % PIPE_WIDTH] = StageSlot { valid, raw };
    }
    if let Some((c, field, v)) = step.deviation {
        if c == core && field >= DATA_PORTS {
            let i = field - DATA_PORTS;
            let slot = &mut p.stages[i / PIPE_WIDTH][i % PIPE_WIDTH];
            slot.raw ^= v as u32 + 1;
            slot.valid ^= v & 1 == 0;
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SafeDm` (ring FIFOs, flat signatures, an incremental DS verdict,
    /// verdict reuse on joint holds) agrees with the naive reference on
    /// every cycle: report, counters and Hamming statistics, also across
    /// monitor resets.
    #[test]
    fn monitor_matches_naive_reference(
        depth in 1usize..=16,
        in_flight in any::<bool>(),
        steps in proptest::collection::vec(any_pair_step(), 1..120),
    ) {
        let cfg = SafeDmConfig {
            data_fifo_depth: depth,
            is_layout: if in_flight { IsLayout::InFlight } else { IsLayout::PerStage },
            track_hamming: true,
            ..SafeDmConfig::default()
        };
        let mut dm = SafeDm::new(cfg);
        let mut reference = ReferenceMonitor::new(&cfg);
        for (cycle, step) in steps.iter().enumerate() {
            if step.reset {
                dm.reset();
                reference = ReferenceMonitor::new(&cfg);
            }
            let (p0, p1) = (pair_probe(step, 0), pair_probe(step, 1));
            let got = dm.observe(&p0, &p1);
            let want = reference.observe([&p0, &p1]);
            prop_assert_eq!(got, want, "report at cycle {}", cycle);
            prop_assert_eq!(dm.counters(), reference.counters, "counters at cycle {}", cycle);
            prop_assert_eq!(dm.hamming_stats(), Some(reference.hamming), "hamming at cycle {}", cycle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Distinct cells must get distinct seeds under any root: splitmix's
    /// odd gamma stride plus the bijective finalizer keep the per-cell
    /// streams collision-free.
    #[test]
    fn distinct_cells_get_distinct_seeds(
        root in any::<u64>(),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        if a != b {
            prop_assert_ne!(derive_cell_seed(root, a), derive_cell_seed(root, b));
        }
    }

    /// A cell's seed is a pure function of (root, index): enumerating the
    /// grid forwards, backwards, or decoding single cells must agree, and
    /// the axis *contents* must not matter.
    #[test]
    fn cell_seed_stable_across_enumeration_order(
        root in any::<u64>(),
        nk in 1usize..5,
        ns in 1usize..5,
        runs in 1usize..4,
    ) {
        let grid = ConfigGrid {
            kernels: (0..nk).collect::<Vec<usize>>(),
            staggers: (0..ns).collect::<Vec<usize>>(),
            configs: vec![()],
            runs,
            root_seed: root,
        };
        let forward = grid.cells();
        prop_assert_eq!(forward.len(), grid.len());
        for i in (0..grid.len()).rev() {
            let c = grid.cell(i);
            prop_assert_eq!(c.index, i);
            prop_assert_eq!(c.seed, forward[i].seed);
            prop_assert_eq!(c.seed, derive_cell_seed(root, i as u64));
        }
        // Axis values are irrelevant to the seed.
        let relabeled = ConfigGrid {
            kernels: (100..100 + nk).collect::<Vec<usize>>(),
            ..grid.clone()
        };
        for i in 0..grid.len() {
            prop_assert_eq!(grid.cell(i).seed, relabeled.cell(i).seed);
        }
        // And within one grid every cell's seed is unique.
        let mut seeds: Vec<u64> = forward.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), grid.len());
    }
}

// ---------------------------------------------------------------------------
// Soundness of the abstract transfer functions
// ---------------------------------------------------------------------------
//
// Instantiating `abs_transfer` at a concrete value type turns it into an
// executor with the real `alu` semantics. For random instructions and random
// concrete register states drawn from random abstract states, the concrete
// result must be a member of the abstract transfer's output — the defining
// soundness property of every domain the diversity prover runs on.

use safedm::analysis::absint::{Abs, Congruence, Delta, Interval};
use safedm::isa::{abs_transfer, alu, AbsValue, AluKind, Inst, Reg};

/// Concrete execution as a (degenerate) abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cv(u64);

impl AbsValue for Cv {
    fn top() -> Self {
        Cv(0) // only reachable via load()/csr(); the strategies below avoid both
    }
    fn constant(c: u64) -> Self {
        Cv(c)
    }
    fn alu(kind: AluKind, a: &Self, b: &Self) -> Self {
        Cv(alu(kind, a.0, b.0))
    }
}

const ALL_ALU: &[AluKind] = &[
    AluKind::Add,
    AluKind::Sub,
    AluKind::Sll,
    AluKind::Slt,
    AluKind::Sltu,
    AluKind::Xor,
    AluKind::Srl,
    AluKind::Sra,
    AluKind::Or,
    AluKind::And,
    AluKind::Addw,
    AluKind::Subw,
    AluKind::Sllw,
    AluKind::Srlw,
    AluKind::Sraw,
    AluKind::Mul,
    AluKind::Mulh,
    AluKind::Mulhsu,
    AluKind::Mulhu,
    AluKind::Div,
    AluKind::Divu,
    AluKind::Rem,
    AluKind::Remu,
    AluKind::Mulw,
    AluKind::Divw,
    AluKind::Divuw,
    AluKind::Remw,
    AluKind::Remuw,
];

/// A random *pure* value-producing instruction: no load (memory is outside
/// the register domains) and no CSR (covered by unit tests with the
/// `mhartid` refinement).
fn pure_inst(sel: u8, k: usize, rd: u8, rs1: u8, rs2: u8, imm: i64, big: i64) -> Inst {
    let kind = ALL_ALU[k % ALL_ALU.len()];
    let (rd, rs1, rs2) = (Reg::new(rd % 32), Reg::new(rs1 % 32), Reg::new(rs2 % 32));
    match sel % 5 {
        0 => Inst::Lui { rd, imm: big << 12 },
        1 => Inst::Auipc { rd, imm: big << 12 },
        2 => Inst::Jal { rd, offset: (imm / 2) * 2 },
        3 => Inst::OpImm { kind, rd, rs1, imm },
        _ => Inst::Op { kind, rd, rs1, rs2 },
    }
}

/// A random abstraction that contains the concrete value `v`.
fn abs_containing(v: u64, tag: u8, a: u64, b: u64) -> Abs {
    match tag % 4 {
        0 => Abs::constant(v),
        1 => Abs::TOP,
        2 => Abs {
            itv: Interval { lo: v.saturating_sub(a % 1024), hi: v.saturating_add(b % 1024) },
            cong: Congruence::TOP,
        },
        _ => {
            let m = (a % 64).max(2);
            Abs { itv: Interval::TOP, cong: Congruence { m, r: v % m } }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Product-domain soundness: concrete execution stays inside the
    /// interval × congruence abstraction for every transfer function.
    #[test]
    fn value_transfers_are_sound(
        sel in 0u8..5,
        k in 0usize..ALL_ALU.len(),
        rd in 0u8..32,
        rs1 in 0u8..32,
        rs2 in 0u8..32,
        imm in -2048i64..2048,
        big in -(1i64 << 19)..(1i64 << 19),
        vals in proptest::collection::vec(any::<u64>(), 4),
        tags in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 4),
        pc_word in 0u64..(1 << 20),
    ) {
        let inst = pure_inst(sel, k, rd, rs1, rs2, imm, big);
        let pc = 0x8000_0000u64 + pc_word * 4;
        let cval = |r: Reg| vals[r.index() as usize % 4];
        let cabs = |r: Reg| {
            let i = r.index() as usize % 4;
            abs_containing(vals[i], tags[i].0, tags[i].1, tags[i].2)
        };
        // Pre-state consistency: every abstraction contains its concrete value.
        for r in Reg::all().skip(1) {
            prop_assert!(cabs(r).contains(cval(r)));
        }
        if let Some((rd_c, out_c)) = abs_transfer::<Cv>(&inst, pc, |r| Cv(cval(r))) {
            let (rd_a, out_a) = abs_transfer::<Abs>(&inst, pc, cabs)
                .expect("abstract and concrete dispatch agree on rd");
            prop_assert_eq!(rd_c, rd_a);
            prop_assert!(
                out_a.contains(out_c.0),
                "unsound transfer for {:?}: concrete {:#x} not in {:?}",
                inst, out_c.0, out_a
            );
        } else {
            prop_assert!(abs_transfer::<Abs>(&inst, pc, cabs).is_none());
        }
    }

    /// Relational-domain soundness: running the same instruction on two
    /// concrete register files whose differences are drawn from a delta
    /// abstraction keeps the concrete difference inside the transferred
    /// delta.
    #[test]
    fn delta_transfers_are_sound(
        sel in 0u8..5,
        k in 0usize..ALL_ALU.len(),
        rd in 0u8..32,
        rs1 in 0u8..32,
        rs2 in 0u8..32,
        imm in -2048i64..2048,
        big in -(1i64 << 19)..(1i64 << 19),
        vals in proptest::collection::vec(any::<u64>(), 4),
        dtags in proptest::collection::vec((0u8..3, any::<u64>()), 4),
    ) {
        let inst = pure_inst(sel, k, rd, rs1, rs2, imm, big);
        let pc = 0x8000_0000u64;
        let v0 = |r: Reg| vals[r.index() as usize % 4];
        let diff = |r: Reg| {
            let (tag, d) = dtags[r.index() as usize % 4];
            match tag {
                0 => 0u64,
                1 => d,
                _ => d ^ 0x9e37_79b9_7f4a_7c15, // arbitrary: abstraction is Unknown
            }
        };
        let v1 = |r: Reg| v0(r).wrapping_add(diff(r));
        let dabs = |r: Reg| match dtags[r.index() as usize % 4] {
            (0, _) => Delta::Zero,
            (1, d) => Delta::Const(d),
            _ => Delta::Unknown,
        };
        let r0 = abs_transfer::<Cv>(&inst, pc, |r| Cv(v0(r)));
        let r1 = abs_transfer::<Cv>(&inst, pc, |r| Cv(v1(r)));
        let ra = abs_transfer::<Delta>(&inst, pc, dabs);
        match (r0, r1, ra) {
            (Some((_, c0)), Some((_, c1)), Some((_, d))) => {
                let concrete = c1.0.wrapping_sub(c0.0);
                match d {
                    Delta::Zero => prop_assert_eq!(concrete, 0, "unsound Zero for {:?}", inst),
                    Delta::Const(k) => prop_assert_eq!(concrete, k, "unsound Const for {:?}", inst),
                    Delta::Unknown => {}
                }
                if d.is_nonzero() {
                    prop_assert_ne!(c0.0, c1.0);
                }
            }
            (None, None, None) => {}
            other => prop_assert!(false, "dispatch disagreement: {:?}", other),
        }
    }
}
