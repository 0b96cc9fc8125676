//! Differential testing: the cycle-accurate pipeline must compute exactly
//! the same architectural results as the functional ISS on randomly
//! generated programs (ALU mixes, memory traffic, forward branches, CSR
//! traffic).

use proptest::prelude::*;
use safedm_asm::Asm;
use safedm_isa::csr::addr;
use safedm_isa::{AluKind, Reg};
use safedm_soc::{CoreExit, Iss, MpSoc, SocConfig};

const BASE: u64 = 0x8000_0000;
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
    /// `csrrw` traffic against the scratch CSR.
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
fn build(steps: &[Step]) -> safedm_asm::Program {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pipeline and ISS agree on every register and the data buffer.
    #[test]
    fn pipeline_matches_iss(steps in proptest::collection::vec(any_step(), 1..120)) {
        let prog = build(&steps);

        let mut iss = Iss::new(0);
        iss.load_program(&prog);
        let iss_exit = iss.run(1_000_000);
        prop_assert!(matches!(iss_exit, CoreExit::Ebreak { .. }), "ISS exit: {iss_exit}");

        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let mut soc = MpSoc::new(cfg);
        soc.load_program(&prog);
        let result = soc.run(4_000_000);
        prop_assert!(result.all_clean(), "pipeline exit: {:?}", result.exits);

        for r in Reg::all() {
            prop_assert_eq!(
                soc.core(0).reg(r),
                iss.reg(r),
                "register {} differs (pipeline vs ISS)",
                r
            );
        }
        let buf = prog.symbol("buf").expect("buffer symbol");
        for i in 0..BUF_DWORDS as u64 {
            prop_assert_eq!(
                soc.read_dword(0, buf + 8 * i),
                iss.read_dword(buf + 8 * i),
                "buf[{}] differs",
                i
            );
        }
        // The pipeline retired exactly the instructions the ISS executed.
        prop_assert_eq!(soc.core(0).retired(), iss.executed());
    }

    /// With two cores, both run the same program to the same results.
    #[test]
    fn redundant_cores_agree(steps in proptest::collection::vec(any_step(), 1..60)) {
        let prog = build(&steps);
        let mut soc = MpSoc::new(SocConfig::default());
        soc.load_program(&prog);
        let result = soc.run(4_000_000);
        prop_assert!(result.all_clean(), "exits: {:?}", result.exits);
        for r in Reg::all() {
            prop_assert_eq!(soc.core(0).reg(r), soc.core(1).reg(r), "register {} differs", r);
        }
        prop_assert_eq!(soc.core(0).retired(), soc.core(1).retired());
    }
}
