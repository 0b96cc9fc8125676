//! The block-compiled functional executor and its redundant-pair harness.
//!
//! [`FastIss`] is architecturally a drop-in replacement for [`crate::Iss`]:
//! one instruction per [`FastIss::step`], identical trap/halt semantics,
//! identical counter discipline (a decoded instruction that then traps
//! *does* count as executed, and the pc stays at the trapping instruction).
//! The difference is purely mechanical — instead of decode-per-step it
//! replays pre-lowered ops from a [`BlockCache`].
//!
//! [`FastTwin`] steps two [`FastIss`] harts in lockstep and reports
//! *functional proxies* of the SafeDM monitor counters (see
//! [`FastTwin::run`] for exactly what each proxy means). These are for
//! `--engine fast` campaigns and differential suites; paper-grade verdicts
//! always come from the cycle-accurate pipeline.

use safedm_asm::Program;
use safedm_isa::csr::CsrFile;
use safedm_isa::{alu, branch_taken, is_aligned, load_value, store_merge, CsrKind, Reg};

use std::sync::Arc;

use super::block::{BlockCache, CompiledBlock};
use super::lower::FastOp;
use crate::{CoreExit, MainMemory, MemSpace, TrapCause};

/// Block-compiled functional RV64IM hart, architecturally equivalent to
/// [`crate::Iss`] (enforced by the `fastpath_differential` suite).
///
/// # Examples
///
/// ```
/// use safedm_asm::Asm;
/// use safedm_isa::Reg;
/// use safedm_soc::fastpath::FastIss;
///
/// let mut a = Asm::new();
/// a.li(Reg::A0, 21);
/// a.add(Reg::A0, Reg::A0, Reg::A0);
/// a.ebreak();
/// let prog = a.link(0x8000_0000)?;
/// let mut fast = FastIss::new(0);
/// fast.load_program(&prog);
/// fast.run(10_000);
/// assert_eq!(fast.reg(Reg::A0), 42);
/// # Ok::<(), safedm_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct FastIss {
    hart: usize,
    regs: [u64; 32],
    csrs: CsrFile,
    pc: u64,
    /// Functional memory (owned, same space model as [`crate::Iss`]).
    pub mem: MainMemory,
    code_range: (u64, u64),
    exit: CoreExit,
    executed: u64,
    cache: BlockCache,
    /// Cursor into the block currently being replayed.
    cur: Option<(Arc<CompiledBlock>, usize)>,
}

impl FastIss {
    /// Creates a fast hart `hart` with empty memory.
    #[must_use]
    pub fn new(hart: usize) -> FastIss {
        FastIss {
            hart,
            regs: [0; 32],
            csrs: CsrFile::new(hart as u64),
            pc: 0,
            mem: MainMemory::new(),
            code_range: (0, 0),
            exit: CoreExit::Running,
            executed: 0,
            cache: BlockCache::new(),
            cur: None,
        }
    }

    /// Loads a program image exactly like [`crate::Iss::load_program`] and
    /// (re)installs it in the block cache — bumping the code version, so
    /// blocks compiled from a previous image can never replay.
    pub fn load_program(&mut self, prog: &Program) {
        self.mem.write(MemSpace::Code, prog.text_base, &prog.text);
        self.mem.write(MemSpace::Private(self.hart), prog.data_base, &prog.data);
        self.code_range = (prog.text_base, prog.text_base + prog.text_size());
        self.pc = prog.entry;
        self.cache.install_image(&self.mem, self.code_range, prog.entry);
        self.cur = None;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Architectural register value.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Sets an architectural register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// CSR value, when the address is implemented.
    #[must_use]
    pub fn csr(&self, addr: u16) -> Option<u64> {
        self.csrs.read(addr)
    }

    /// Exit state.
    #[must_use]
    pub fn exit(&self) -> CoreExit {
        self.exit
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The block cache (test/diagnostic access).
    #[must_use]
    pub fn block_cache(&self) -> &BlockCache {
        &self.cache
    }

    fn space(&self, addr: u64) -> MemSpace {
        if addr >= self.code_range.0 && addr < self.code_range.1 {
            MemSpace::Code
        } else {
            MemSpace::Private(self.hart)
        }
    }

    fn write_rd(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Executes one instruction. Returns `false` once halted. Semantics are
    /// line-for-line those of [`crate::Iss::step`]: fetch faults and
    /// illegal instructions halt *before* any counter moves; everything
    /// that decodes bumps `executed`/`minstret`/`mcycle` even when it then
    /// traps, with the pc left at the trapping instruction.
    pub fn step(&mut self) -> bool {
        if !self.exit.is_running() {
            return false;
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) || pc < self.code_range.0 || pc >= self.code_range.1 {
            self.exit = CoreExit::Trap(TrapCause::FetchFault { pc });
            return false;
        }
        let op = 'op: {
            // Resume the block being replayed when the pc still tracks it
            // (taken branches and jumps naturally fall out of the cursor).
            if let Some((blk, idx)) = &mut self.cur {
                if *idx < blk.ops.len() && blk.pc_of(*idx) == pc {
                    let op = blk.ops[*idx];
                    *idx += 1;
                    break 'op Some(op);
                }
                self.cur = None;
            }
            // Every other pc is a block entry: replay its compiled block.
            self.cache.block_at(&self.mem, pc).map(|blk| {
                let op = blk.ops[0];
                self.cur = Some((blk, 1));
                op
            })
        };
        let Some(op) = op else {
            let word = self.mem.read_word(MemSpace::Code, pc);
            self.exit = CoreExit::Trap(TrapCause::IllegalInstruction { pc, word });
            return false;
        };
        self.executed += 1;
        self.csrs.minstret += 1;
        // Same 1-IPC cycle approximation as the reference ISS.
        self.csrs.mcycle += 1;
        self.exec(pc, op)
    }

    fn exec(&mut self, pc: u64, op: FastOp) -> bool {
        let mut next = pc + 4;
        match op {
            FastOp::SetRd { rd, value } => self.write_rd(rd, value),
            FastOp::Jal { rd, link, target } => {
                self.write_rd(rd, link);
                next = target;
            }
            FastOp::Jalr { rd, rs1, offset, link } => {
                let t = self.reg(rs1).wrapping_add(offset as u64) & !1;
                self.write_rd(rd, link);
                next = t;
            }
            FastOp::Branch { kind, rs1, rs2, target } => {
                if branch_taken(kind, self.reg(rs1), self.reg(rs2)) {
                    next = target;
                }
            }
            FastOp::Load { kind, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if !is_aligned(addr, kind.size()) {
                    self.exit = CoreExit::Trap(TrapCause::MisalignedAccess { pc, addr });
                    return false;
                }
                let window = self.mem.read_dword_window(self.space(addr), addr);
                self.write_rd(rd, load_value(kind, window, addr));
            }
            FastOp::Store { kind, rs1, rs2, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if !is_aligned(addr, kind.size()) {
                    self.exit = CoreExit::Trap(TrapCause::MisalignedAccess { pc, addr });
                    return false;
                }
                if addr >= self.code_range.0 && addr < self.code_range.1 {
                    self.exit = CoreExit::Trap(TrapCause::StoreToCode { pc, addr });
                    return false;
                }
                let space = self.space(addr);
                let window = self.mem.read_dword_window(space, addr);
                let merged = store_merge(kind, window, self.reg(rs2), addr);
                self.mem.write(space, addr & !7, &merged.to_le_bytes());
            }
            FastOp::AluImm { kind, rd, rs1, imm } => {
                let v = alu(kind, self.reg(rs1), imm as u64);
                self.write_rd(rd, v);
            }
            FastOp::Alu { kind, rd, rs1, rs2 } => {
                let v = alu(kind, self.reg(rs1), self.reg(rs2));
                self.write_rd(rd, v);
            }
            FastOp::Fence => {}
            FastOp::Ecall => {
                self.exit = CoreExit::Ecall { pc };
                return false;
            }
            FastOp::Ebreak => {
                self.exit = CoreExit::Ebreak { pc };
                return false;
            }
            FastOp::Csr { kind, rd, rs1, csr } => {
                let old = self.csrs.read(csr).unwrap_or(0);
                let a = self.reg(rs1);
                let new = match kind {
                    CsrKind::Rw => a,
                    CsrKind::Rs => old | a,
                    CsrKind::Rc => old & !a,
                };
                if matches!(kind, CsrKind::Rw) || !rs1.is_zero() {
                    self.csrs.write(csr, new);
                }
                self.write_rd(rd, old);
            }
            FastOp::CsrImm { kind, rd, zimm, csr } => {
                let old = self.csrs.read(csr).unwrap_or(0);
                let z = u64::from(zimm);
                let new = match kind {
                    CsrKind::Rw => z,
                    CsrKind::Rs => old | z,
                    CsrKind::Rc => old & !z,
                };
                if matches!(kind, CsrKind::Rw) || zimm != 0 {
                    self.csrs.write(csr, new);
                }
                self.write_rd(rd, old);
            }
        }
        self.pc = next;
        true
    }

    /// Runs until halt or until `max_insts` instructions executed.
    pub fn run(&mut self, max_insts: u64) -> CoreExit {
        for _ in 0..max_insts {
            if !self.step() {
                break;
            }
        }
        self.exit
    }

    /// Reads a doubleword from this hart's view of memory.
    #[must_use]
    pub fn read_dword(&self, addr: u64) -> u64 {
        debug_assert!(addr.is_multiple_of(8));
        self.mem.read_dword_window(self.space(addr), addr)
    }
}

/// Monitor counters from a [`FastTwin`] run. All diversity counters are
/// **functional proxies**, not pipeline observations — see
/// [`FastTwin::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastTwinRun {
    /// Nominal cycles: one per lockstep step, plus one per drained
    /// instruction after the first hart halts (1 IPC).
    pub cycles: u64,
    /// Instructions retired per hart.
    pub instructions: [u64; 2],
    /// Lockstep steps observed (first step until the first hart halts).
    pub observed: u64,
    /// Observed steps with equal retired-instruction counts.
    pub zero_stag: u64,
    /// Observed steps with equal counts *and* equal pcs.
    pub no_div: u64,
    /// Completed no-diversity streaks (a trailing streak counts).
    pub episodes: u64,
    /// Whether the step budget ran out before both harts halted.
    pub timed_out: bool,
}

/// Two [`FastIss`] harts stepped in lockstep over the same image —
/// the fast engine's analogue of a redundant monitored pair.
#[derive(Debug)]
pub struct FastTwin {
    harts: [FastIss; 2],
}

impl Default for FastTwin {
    fn default() -> FastTwin {
        FastTwin::new()
    }
}

impl FastTwin {
    /// A twin pair (harts 0 and 1).
    #[must_use]
    pub fn new() -> FastTwin {
        FastTwin { harts: [FastIss::new(0), FastIss::new(1)] }
    }

    /// Loads the same program into both harts.
    pub fn load_program(&mut self, prog: &Program) {
        for h in &mut self.harts {
            h.load_program(prog);
        }
    }

    /// Hart `i` (0 or 1).
    #[must_use]
    pub fn hart(&self, i: usize) -> &FastIss {
        &self.harts[i]
    }

    /// Mutable hart `i` (0 or 1).
    pub fn hart_mut(&mut self, i: usize) -> &mut FastIss {
        &mut self.harts[i]
    }

    /// Runs both harts and reports functional monitor proxies.
    ///
    /// Per lockstep step, each running hart retires exactly one
    /// instruction, so the proxies are:
    ///
    /// * `zero_stag` — retired counts equal (the committed-instruction
    ///   stagger the paper's DS staleness argument hinges on);
    /// * `no_div` — counts equal **and** pcs equal: with identical images,
    ///   mirrored private data and deterministic functional execution,
    ///   equal pcs at equal retire counts means both harts are executing
    ///   the same instruction with the same operands — the functional
    ///   shadow of `DS && IS` matching.
    ///
    /// The observed window runs from the first step until the first hart
    /// halts (the same window the monitored cycle protocol uses); the
    /// surviving hart is then drained at block speed with cycles counted
    /// at 1 IPC.
    pub fn run(&mut self, budget: u64) -> FastTwinRun {
        let mut out = FastTwinRun::default();
        let mut in_episode = false;
        while out.cycles < budget
            && self.harts[0].exit().is_running()
            && self.harts[1].exit().is_running()
        {
            self.harts[0].step();
            self.harts[1].step();
            out.cycles += 1;
            out.observed += 1;
            let zs = self.harts[0].executed() == self.harts[1].executed();
            if zs {
                out.zero_stag += 1;
            }
            if zs && self.harts[0].pc() == self.harts[1].pc() {
                out.no_div += 1;
                in_episode = true;
            } else if in_episode {
                in_episode = false;
                out.episodes += 1;
            }
        }
        if in_episode {
            out.episodes += 1;
        }
        // The monitor window ended at the first halt; drain the straggler
        // at block speed.
        for h in &mut self.harts {
            if h.exit().is_running() {
                let before = h.executed();
                h.run(budget.saturating_sub(out.cycles));
                out.cycles += h.executed() - before;
            }
        }
        out.timed_out = self.harts.iter().any(|h| h.exit().is_running());
        out.instructions = [self.harts[0].executed(), self.harts[1].executed()];
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Iss;
    use safedm_asm::Asm;

    fn sum_prog() -> Program {
        let mut a = Asm::new();
        a.li(Reg::T0, 100);
        a.li(Reg::A0, 0);
        let top = a.here("top");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        a.link(0x8000_0000).unwrap()
    }

    #[test]
    fn fast_matches_iss_on_loop() {
        let prog = sum_prog();
        let mut iss = Iss::new(0);
        iss.load_program(&prog);
        iss.run(1_000_000);
        let mut fast = FastIss::new(0);
        fast.load_program(&prog);
        fast.run(1_000_000);
        assert_eq!(fast.reg(Reg::A0), 5050);
        for r in Reg::all() {
            assert_eq!(fast.reg(r), iss.reg(r), "mismatch in {r:?}");
        }
        assert_eq!(fast.pc(), iss.pc());
        assert_eq!(fast.executed(), iss.executed());
        assert_eq!(fast.exit(), iss.exit());
    }

    #[test]
    fn twin_identical_images_never_diverge() {
        let prog = sum_prog();
        let mut twin = FastTwin::new();
        twin.load_program(&prog);
        let out = twin.run(1_000_000);
        assert!(!out.timed_out);
        assert_eq!(out.zero_stag, out.observed);
        assert_eq!(out.no_div, out.observed);
        assert_eq!(out.episodes, 1);
        assert_eq!(out.instructions[0], out.instructions[1]);
        assert_eq!(twin.hart(0).reg(Reg::A0), 5050);
        assert_eq!(twin.hart(1).reg(Reg::A0), 5050);
    }
}
