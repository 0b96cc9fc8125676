//! Constant propagation over the [`Cfg`], and the iteration-invariance
//! fixpoint the prover runs over loop bodies.
//!
//! Register masks are 32 bits wide (bit *i* = `x{i}`, see [`Reg::bit`]);
//! `x0` never appears in a mask since it is architecturally constant.

use safedm_isa::{alu, Inst, Reg};

use crate::cfg::{Cfg, DecodedProgram};

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

/// Abstract value of a register in the constant-propagation lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstVal {
    /// Not yet seen along any path (lattice top).
    Undef,
    /// Provably this value on every path.
    Const(u64),
    /// Different values on different paths, or input-dependent (bottom).
    Varies,
}

impl ConstVal {
    fn meet(self, other: ConstVal) -> ConstVal {
        match (self, other) {
            (ConstVal::Undef, x) | (x, ConstVal::Undef) => x,
            (ConstVal::Const(a), ConstVal::Const(b)) if a == b => ConstVal::Const(a),
            _ => ConstVal::Varies,
        }
    }

    /// The constant, when this value is one.
    #[must_use]
    pub fn as_const(self) -> Option<u64> {
        match self {
            ConstVal::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// Per-register abstract state.
pub type ConstState = [ConstVal; 32];

/// Sparse conditional-free constant propagation over the CFG.
#[derive(Debug, Clone)]
pub struct ConstProp {
    /// Abstract register state at each block entry.
    pub block_in: Vec<ConstState>,
}

/// Applies one instruction to a constant-propagation state.
pub fn const_transfer(state: &mut ConstState, pc: u64, inst: &Inst) {
    let get = |state: &ConstState, r: Reg| -> ConstVal {
        if r.is_zero() {
            ConstVal::Const(0)
        } else {
            state[r.index() as usize]
        }
    };
    let val = match *inst {
        Inst::Lui { imm, .. } => ConstVal::Const(imm as u64),
        Inst::Auipc { imm, .. } => ConstVal::Const(pc.wrapping_add(imm as u64)),
        Inst::Jal { .. } | Inst::Jalr { .. } => ConstVal::Const(pc.wrapping_add(4)),
        Inst::OpImm { kind, rs1, imm, .. } => match get(state, rs1) {
            ConstVal::Const(a) => ConstVal::Const(alu(kind, a, imm as u64)),
            other => other,
        },
        Inst::Op { kind, rs1, rs2, .. } => match (get(state, rs1), get(state, rs2)) {
            (ConstVal::Const(a), ConstVal::Const(b)) => ConstVal::Const(alu(kind, a, b)),
            (ConstVal::Undef, _) | (_, ConstVal::Undef) => ConstVal::Undef,
            _ => ConstVal::Varies,
        },
        Inst::Load { .. } | Inst::Csr { .. } | Inst::CsrImm { .. } => ConstVal::Varies,
        Inst::Branch { .. } | Inst::Store { .. } | Inst::Fence | Inst::Ecall | Inst::Ebreak => {
            return
        }
    };
    if let Some(rd) = inst.rd() {
        state[rd.index() as usize] = val;
    }
}

impl ConstProp {
    /// Runs constant propagation to a fixpoint.
    #[must_use]
    pub fn compute(prog: &DecodedProgram, cfg: &Cfg) -> ConstProp {
        let nb = cfg.blocks.len();
        let mut block_in = vec![[ConstVal::Undef; 32]; nb];
        if let Some(e) = cfg.entry_block {
            // The platform resets registers to zero before jumping to the
            // entry point.
            block_in[e] = [ConstVal::Const(0); 32];
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in &cfg.blocks {
                let mut state = block_in[b.id];
                for i in b.start..b.end {
                    if let Some(inst) = prog.slots[i].inst {
                        const_transfer(&mut state, prog.slots[i].pc, &inst);
                    }
                }
                for &s in &b.succs {
                    let mut merged = block_in[s];
                    for (m, v) in merged.iter_mut().zip(state.iter()) {
                        *m = m.meet(*v);
                    }
                    if merged != block_in[s] {
                        block_in[s] = merged;
                        changed = true;
                    }
                }
            }
        }
        ConstProp { block_in }
    }
}

// ---------------------------------------------------------------------------
// Iteration invariance
// ---------------------------------------------------------------------------

/// Iteration-invariant written registers of a repeated instruction sequence:
/// pessimistic fixpoint — a register is invariant when every def of it in
/// `insts` is a pure ALU/PC computation over registers that are themselves
/// invariant or outside `defined` (never written in the sequence). Used both
/// for natural-loop bodies and for interprocedurally spliced bodies, where
/// `insts` is the exact committed stream of one iteration.
#[must_use]
pub fn invariant_mask(insts: &[Inst], defined: u32) -> u32 {
    let mut invariant = 0u32;
    loop {
        let mut grown = false;
        for r in 1..32u32 {
            let bit = 1 << r;
            if defined & bit == 0 || invariant & bit != 0 {
                continue;
            }
            let ok = insts.iter().filter(|inst| inst.def_mask() == bit).all(|inst| {
                let pure =
                    !matches!(inst, Inst::Load { .. } | Inst::Csr { .. } | Inst::CsrImm { .. });
                pure && inst.use_mask() & defined & !invariant == 0
            });
            if ok {
                invariant |= bit;
                grown = true;
            }
        }
        if !grown {
            break;
        }
    }
    invariant
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;
    use safedm_isa::Reg;

    fn build(f: impl FnOnce(&mut Asm)) -> (DecodedProgram, Cfg) {
        let mut a = Asm::new();
        f(&mut a);
        let p = DecodedProgram::from_program(&a.link(0x8000_0000).unwrap());
        let c = Cfg::build(&p);
        (p, c)
    }

    #[test]
    fn constprop_tracks_li_chains() {
        let (p, c) = build(|a| {
            a.li(Reg::T0, 40);
            a.addi(Reg::T1, Reg::T0, 2);
            a.ebreak();
        });
        let cp = ConstProp::compute(&p, &c);
        // Evaluate to the end of the single block.
        let mut state = cp.block_in[0];
        for s in &p.slots {
            if let Some(inst) = s.inst {
                const_transfer(&mut state, s.pc, &inst);
            }
        }
        assert_eq!(state[Reg::T1.index() as usize], ConstVal::Const(42));
    }

    #[test]
    fn invariant_mask_separates_constant_writes_from_counters() {
        let (p, c) = build(|a| {
            a.li(Reg::T0, 4);
            let l = a.new_label("l");
            a.bind(l).unwrap();
            a.li(Reg::T1, 7);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, l);
            a.ebreak();
        });
        let lp = &c.loops[0];
        let body: Vec<Inst> = lp
            .blocks
            .iter()
            .flat_map(|&b| c.blocks[b].start..c.blocks[b].end)
            .filter_map(|i| p.slots[i].inst)
            .collect();
        let defined = body.iter().fold(0, |m, i| m | i.def_mask());
        let invariant = invariant_mask(&body, defined);
        assert_ne!(invariant & Reg::T1.bit(), 0, "a constant write repeats every iteration");
        assert_eq!(invariant & Reg::T0.bit(), 0, "the counter is loop-carried");
    }
}
