//! Differential testing of the block-compiled fast-path engines against the
//! reference functional ISS: for every TACLe kernel, every diversity-twin
//! image and a seeded stream of random programs, `FastIss` must finish with
//! exactly the same architectural state as [`Iss`] — full register file,
//! pc, exit reason, retired-instruction count, counter CSRs and a digest of
//! all touched memory.
//!
//! The fuzz case count defaults to 200 programs and can be overridden with
//! `FASTPATH_FUZZ_CASES` (CI smoke runs 25). The vendored proptest subset
//! reports a failing case's inputs but does not shrink them.

use proptest::prelude::*;
use safedm_asm::{Asm, Program};
use safedm_isa::csr::addr;
use safedm_isa::{AluKind, Reg};
use safedm_soc::fastpath::FastIss;
use safedm_soc::{CoreExit, Iss};
use safedm_tacle::{
    build_kernel_program, build_twin_program, kernels, HarnessConfig, StaggerConfig, TwinConfig,
};

const BASE: u64 = 0x8000_0000;
const RUN_BUDGET: u64 = 200_000_000;

fn run_iss(prog: &Program, hart: usize) -> Iss {
    let mut iss = Iss::new(hart);
    iss.load_program(prog);
    iss.run(RUN_BUDGET);
    iss
}

fn run_fast(prog: &Program, hart: usize) -> FastIss {
    let mut fast = FastIss::new(hart);
    fast.load_program(prog);
    fast.run(RUN_BUDGET);
    fast
}

/// Lockstep architectural-state comparison: register file, pc, exit,
/// retired count, counter CSRs and the memory digest must all agree.
fn assert_arch_equal(what: &str, iss: &Iss, fast: &FastIss) {
    for r in Reg::all() {
        assert_eq!(fast.reg(r), iss.reg(r), "{what}: register {r} differs");
    }
    assert_eq!(fast.pc(), iss.pc(), "{what}: pc differs");
    assert_eq!(fast.exit(), iss.exit(), "{what}: exit differs");
    assert_eq!(fast.executed(), iss.executed(), "{what}: retired count differs");
    for a in [addr::MCYCLE, addr::MINSTRET, addr::MHARTID, addr::MSCRATCH] {
        assert_eq!(fast.csr(a), iss.csr(a), "{what}: csr {a:#x} differs");
    }
    assert_eq!(fast.mem.digest(), iss.mem.digest(), "{what}: memory digest differs");
}

#[test]
fn fast_matches_iss_on_all_kernels() {
    for k in kernels::all() {
        let prog = build_kernel_program(k, &HarnessConfig::default());
        let iss = run_iss(&prog, 0);
        assert!(
            matches!(iss.exit(), CoreExit::Ecall { .. } | CoreExit::Ebreak { .. }),
            "{}: reference ISS did not halt cleanly: {}",
            k.name,
            iss.exit()
        );
        assert_eq!(iss.reg(Reg::A0), (k.reference)(), "{}: ISS checksum", k.name);
        assert_arch_equal(k.name, &iss, &run_fast(&prog, 0));
    }
}

#[test]
fn engines_match_on_staggered_kernels() {
    for name in ["bitcount", "fac", "quicksort"] {
        let k = kernels::by_name(name).expect("pinned kernel exists");
        for nops in [100usize, 1000] {
            let prog = build_kernel_program(
                k,
                &HarnessConfig {
                    stagger: Some(StaggerConfig { nops, delayed_core: 1 }),
                    ..HarnessConfig::default()
                },
            );
            // The staggered core's sled dispatches on MHARTID: both harts
            // must still match the ISS exactly.
            for hart in 0..2 {
                let iss = run_iss(&prog, hart);
                let fast = run_fast(&prog, hart);
                assert_arch_equal(&format!("{name} nops={nops} hart {hart}"), &iss, &fast);
            }
        }
    }
}

#[test]
fn fast_matches_iss_on_twin_images() {
    // Composed diversity twins run hart-dependent code paths; every hart of
    // every twin image must match the ISS.
    for k in kernels::all() {
        let tw = build_twin_program(k, &TwinConfig::default());
        for hart in 0..2 {
            let iss = run_iss(&tw.program, hart);
            assert_eq!(iss.reg(Reg::A0), (k.reference)(), "{}: twin ISS checksum", k.name);
            let fast = run_fast(&tw.program, hart);
            assert_arch_equal(&format!("{} twin hart {hart}", k.name), &iss, &fast);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded random-program fuzzing (same generator family as `differential.rs`).
// ---------------------------------------------------------------------------

const BUF_DWORDS: usize = 32;

/// Registers the generator is allowed to touch (avoids sp/ra conventions).
const POOL: [Reg; 12] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::S2,
    Reg::S3,
    Reg::S4,
];

#[derive(Debug, Clone)]
enum Step {
    Alu {
        kind: AluKind,
        rd: usize,
        rs1: usize,
        rs2: usize,
    },
    AluImm {
        kind: AluKind,
        rd: usize,
        rs1: usize,
        imm: i64,
    },
    Li {
        rd: usize,
        value: i64,
    },
    StoreD {
        rs: usize,
        slot: usize,
    },
    LoadD {
        rd: usize,
        slot: usize,
    },
    StoreW {
        rs: usize,
        slot: usize,
    },
    LoadW {
        rd: usize,
        slot: usize,
    },
    /// Forward branch skipping `skip` generated steps (bounded, terminates).
    SkipIfEq {
        a: usize,
        b: usize,
        skip: usize,
    },
    /// `csrrw`/`csrrs` traffic against the scratch CSR.
    Scratch {
        rd: usize,
        rs1: usize,
    },
}

fn any_rr_kind() -> impl Strategy<Value = AluKind> {
    prop_oneof![
        Just(AluKind::Add),
        Just(AluKind::Sub),
        Just(AluKind::Sll),
        Just(AluKind::Slt),
        Just(AluKind::Sltu),
        Just(AluKind::Xor),
        Just(AluKind::Srl),
        Just(AluKind::Sra),
        Just(AluKind::Or),
        Just(AluKind::And),
        Just(AluKind::Addw),
        Just(AluKind::Subw),
        Just(AluKind::Mul),
        Just(AluKind::Mulh),
        Just(AluKind::Mulhu),
        Just(AluKind::Div),
        Just(AluKind::Divu),
        Just(AluKind::Rem),
        Just(AluKind::Remu),
        Just(AluKind::Mulw),
        Just(AluKind::Divw),
        Just(AluKind::Remuw),
    ]
}

fn any_imm_kind() -> impl Strategy<Value = AluKind> {
    prop_oneof![
        Just(AluKind::Add),
        Just(AluKind::Xor),
        Just(AluKind::Or),
        Just(AluKind::And),
        Just(AluKind::Slt),
        Just(AluKind::Sltu),
        Just(AluKind::Addw),
    ]
}

fn any_step() -> impl Strategy<Value = Step> {
    let r = 0..POOL.len();
    prop_oneof![
        (any_rr_kind(), r.clone(), r.clone(), r.clone())
            .prop_map(|(kind, rd, rs1, rs2)| Step::Alu { kind, rd, rs1, rs2 }),
        (any_imm_kind(), r.clone(), r.clone(), -2048i64..=2047)
            .prop_map(|(kind, rd, rs1, imm)| Step::AluImm { kind, rd, rs1, imm }),
        (r.clone(), any::<i64>()).prop_map(|(rd, value)| Step::Li { rd, value }),
        (r.clone(), 0..BUF_DWORDS).prop_map(|(rs, slot)| Step::StoreD { rs, slot }),
        (r.clone(), 0..BUF_DWORDS).prop_map(|(rd, slot)| Step::LoadD { rd, slot }),
        (r.clone(), 0..BUF_DWORDS * 2).prop_map(|(rs, slot)| Step::StoreW { rs, slot }),
        (r.clone(), 0..BUF_DWORDS * 2).prop_map(|(rd, slot)| Step::LoadW { rd, slot }),
        (r.clone(), r.clone(), 1usize..4).prop_map(|(a, b, skip)| Step::SkipIfEq { a, b, skip }),
        (r.clone(), r).prop_map(|(rd, rs1)| Step::Scratch { rd, rs1 }),
    ]
}

/// Lowers steps to a program. `S11` holds the buffer base throughout.
fn build(steps: &[Step]) -> Program {
    let mut a = Asm::new();
    let buf = a.d_zero("buf", (BUF_DWORDS * 8) as u64);
    a.la(Reg::S11, buf);
    // Seed the register pool deterministically.
    for (i, r) in POOL.iter().enumerate() {
        a.li(*r, (i as i64 + 1) * 0x1234_5677 + 1);
    }
    let mut pending: Vec<(safedm_asm::Label, usize)> = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        // Bind labels whose skip distance expired.
        pending.retain(|(label, until)| {
            if *until == idx {
                a.bind(*label).expect("label bound once");
                false
            } else {
                true
            }
        });
        match *step {
            Step::Alu { kind, rd, rs1, rs2 } => {
                a.inst(safedm_isa::Inst::Op { kind, rd: POOL[rd], rs1: POOL[rs1], rs2: POOL[rs2] });
            }
            Step::AluImm { kind, rd, rs1, imm } => {
                a.inst(safedm_isa::Inst::OpImm { kind, rd: POOL[rd], rs1: POOL[rs1], imm });
            }
            Step::Li { rd, value } => {
                a.li(POOL[rd], value);
            }
            Step::StoreD { rs, slot } => {
                a.sd(POOL[rs], (slot * 8) as i64, Reg::S11);
            }
            Step::LoadD { rd, slot } => {
                a.ld(POOL[rd], (slot * 8) as i64, Reg::S11);
            }
            Step::StoreW { rs, slot } => {
                a.sw(POOL[rs], (slot * 4) as i64, Reg::S11);
            }
            Step::LoadW { rd, slot } => {
                a.lw(POOL[rd], (slot * 4) as i64, Reg::S11);
            }
            Step::SkipIfEq { a: x, b, skip } => {
                let label = a.new_label("skip");
                a.beq(POOL[x], POOL[b], label);
                pending.push((label, (idx + 1 + skip).min(steps.len())));
            }
            Step::Scratch { rd, rs1 } => {
                a.inst(safedm_isa::Inst::Csr {
                    kind: safedm_isa::CsrKind::Rw,
                    rd: POOL[rd],
                    rs1: POOL[rs1],
                    csr: addr::MSCRATCH,
                });
            }
        }
    }
    for (label, _) in pending {
        a.bind(label).expect("label bound once");
    }
    a.ebreak();
    a.link(BASE).expect("generated program links")
}

fn fuzz_cases() -> u32 {
    std::env::var("FASTPATH_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// The fast engine finishes every random program in the same
    /// architectural state as the reference ISS.
    #[test]
    fn fast_engines_match_iss_on_random_programs(
        steps in proptest::collection::vec(any_step(), 1..120),
    ) {
        let prog = build(&steps);
        let iss = run_iss(&prog, 0);
        prop_assert!(
            matches!(iss.exit(), CoreExit::Ebreak { .. }),
            "ISS exit: {}", iss.exit()
        );
        let fast = run_fast(&prog, 0);
        for r in Reg::all() {
            prop_assert_eq!(fast.reg(r), iss.reg(r), "register {}", r);
        }
        prop_assert_eq!(fast.pc(), iss.pc(), "pc");
        prop_assert_eq!(fast.exit(), iss.exit(), "exit");
        prop_assert_eq!(fast.executed(), iss.executed(), "retired");
        prop_assert_eq!(fast.csr(addr::MSCRATCH), iss.csr(addr::MSCRATCH));
        prop_assert_eq!(fast.mem.digest(), iss.mem.digest(), "memory digest");
    }
}
