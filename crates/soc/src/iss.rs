//! A functional reference interpreter (ISS) for RV64IM.
//!
//! The ISS executes one instruction per step with no timing model. It is the
//! golden reference for differential testing of the pipelined [`Core`]
//! model and for computing fault-free results in injection campaigns.
//!
//! [`Core`]: crate::Core

use safedm_asm::Program;
use safedm_isa::csr::CsrFile;
use safedm_isa::{alu, branch_taken, decode, is_aligned, load_value, store_merge, Inst, Reg};

use crate::{CoreExit, MainMemory, MemSpace, TrapCause};

/// Functional RV64IM interpreter over the same memory-space model as the
/// pipelined core.
///
/// # Examples
///
/// ```
/// use safedm_asm::Asm;
/// use safedm_isa::Reg;
/// use safedm_soc::Iss;
///
/// let mut a = Asm::new();
/// a.li(Reg::A0, 21);
/// a.add(Reg::A0, Reg::A0, Reg::A0);
/// a.ebreak();
/// let prog = a.link(0x8000_0000)?;
/// let mut iss = Iss::new(0);
/// iss.load_program(&prog);
/// iss.run(10_000);
/// assert_eq!(iss.reg(Reg::A0), 42);
/// # Ok::<(), safedm_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct Iss {
    hart: usize,
    regs: [u64; 32],
    csrs: CsrFile,
    pc: u64,
    /// Functional memory (owned; campaigns may clone whole ISS states).
    /// Instructions are fetched from the text decoded at load, so writing
    /// the code space here does not change what executes.
    pub mem: MainMemory,
    code_range: (u64, u64),
    /// The text decoded once at load, one entry per 4-byte slot; `Err`
    /// keeps an undecodable word for the illegal-instruction trap. Stores
    /// to code trap, so the text cannot change before the next load.
    text: Vec<Result<Inst, u32>>,
    exit: CoreExit,
    executed: u64,
}

impl Iss {
    /// Creates an ISS for hart `hart` with empty memory.
    #[must_use]
    pub fn new(hart: usize) -> Iss {
        Iss {
            hart,
            regs: [0; 32],
            csrs: CsrFile::new(hart as u64),
            pc: 0,
            mem: MainMemory::new(),
            code_range: (0, 0),
            text: Vec::new(),
            exit: CoreExit::Running,
            executed: 0,
        }
    }

    /// Loads a program image: text into the shared code space, data into
    /// this hart's private space; decodes the text and sets the PC to the
    /// entry point.
    pub fn load_program(&mut self, prog: &Program) {
        self.mem.write(MemSpace::Code, prog.text_base, &prog.text);
        self.mem.write(MemSpace::Private(self.hart), prog.data_base, &prog.data);
        self.code_range = (prog.text_base, prog.text_base + prog.text_size());
        self.text = prog.words().map(|(_, word)| decode(word).map_err(|_| word)).collect();
        self.pc = prog.entry;
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

    fn space(&self, addr: u64) -> MemSpace {
        if addr >= self.code_range.0 && addr < self.code_range.1 {
            MemSpace::Code
        } else {
            MemSpace::Private(self.hart)
        }
    }

    /// Executes one instruction. Returns `false` once halted.
    pub fn step(&mut self) -> bool {
        if !self.exit.is_running() {
            return false;
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) || pc < self.code_range.0 || pc >= self.code_range.1 {
            self.exit = CoreExit::Trap(TrapCause::FetchFault { pc });
            return false;
        }
        let inst = match self.text[((pc - self.code_range.0) / 4) as usize] {
            Ok(i) => i,
            Err(word) => {
                self.exit = CoreExit::Trap(TrapCause::IllegalInstruction { pc, word });
                return false;
            }
        };
        self.executed += 1;
        self.csrs.minstret += 1;
        // The ISS has no real cycle notion; approximate 1 IPC for CSR reads.
        self.csrs.mcycle += 1;
        let mut next = pc + 4;
        let rd_write = |regs: &mut [u64; 32], r: Reg, v: u64| {
            if !r.is_zero() {
                regs[r.index() as usize] = v;
            }
        };
        match inst {
            Inst::Lui { rd, imm } => rd_write(&mut self.regs, rd, imm as u64),
            Inst::Auipc { rd, imm } => rd_write(&mut self.regs, rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                rd_write(&mut self.regs, rd, pc + 4);
                next = pc.wrapping_add(offset as u64);
            }
            Inst::Jalr { rd, rs1, offset } => {
                let t = self.reg(rs1).wrapping_add(offset as u64) & !1;
                rd_write(&mut self.regs, rd, pc + 4);
                next = t;
            }
            Inst::Branch { kind, rs1, rs2, offset } => {
                if branch_taken(kind, self.reg(rs1), self.reg(rs2)) {
                    next = pc.wrapping_add(offset as u64);
                }
            }
            Inst::Load { kind, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if !is_aligned(addr, kind.size()) {
                    self.exit = CoreExit::Trap(TrapCause::MisalignedAccess { pc, addr });
                    return false;
                }
                let window = self.mem.read_dword_window(self.space(addr), addr);
                rd_write(&mut self.regs, rd, load_value(kind, window, addr));
            }
            Inst::Store { kind, rs1, rs2, offset } => {
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
            Inst::OpImm { kind, rd, rs1, imm } => {
                let v = alu(kind, self.reg(rs1), imm as u64);
                rd_write(&mut self.regs, rd, v);
            }
            Inst::Op { kind, rd, rs1, rs2 } => {
                let v = alu(kind, self.reg(rs1), self.reg(rs2));
                rd_write(&mut self.regs, rd, v);
            }
            Inst::Fence => {}
            Inst::Ecall => {
                self.exit = CoreExit::Ecall { pc };
                return false;
            }
            Inst::Ebreak => {
                self.exit = CoreExit::Ebreak { pc };
                return false;
            }
            Inst::Csr { kind, rd, rs1, csr } => {
                let old = self.csrs.read(csr).unwrap_or(0);
                let a = self.reg(rs1);
                let new = match kind {
                    safedm_isa::CsrKind::Rw => a,
                    safedm_isa::CsrKind::Rs => old | a,
                    safedm_isa::CsrKind::Rc => old & !a,
                };
                if matches!(kind, safedm_isa::CsrKind::Rw) || !rs1.is_zero() {
                    self.csrs.write(csr, new);
                }
                rd_write(&mut self.regs, rd, old);
            }
            Inst::CsrImm { kind, rd, zimm, csr } => {
                let old = self.csrs.read(csr).unwrap_or(0);
                let z = u64::from(zimm);
                let new = match kind {
                    safedm_isa::CsrKind::Rw => z,
                    safedm_isa::CsrKind::Rs => old | z,
                    safedm_isa::CsrKind::Rc => old & !z,
                };
                if matches!(kind, safedm_isa::CsrKind::Rw) || zimm != 0 {
                    self.csrs.write(csr, new);
                }
                rd_write(&mut self.regs, rd, old);
            }
        }
        self.pc = next;
        true
    }

    /// Runs until halt or until `max_insts` instructions executed. Returns
    /// the exit state ([`CoreExit::Running`] when the budget was exhausted).
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

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;

    fn run_prog(build: impl FnOnce(&mut Asm)) -> Iss {
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.link(0x8000_0000).unwrap();
        let mut iss = Iss::new(0);
        iss.load_program(&prog);
        iss.run(1_000_000);
        iss
    }

    #[test]
    fn loop_sums() {
        let iss = run_prog(|a| {
            a.li(Reg::T0, 100);
            a.li(Reg::A0, 0);
            let top = a.here("top");
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.ebreak();
        });
        assert_eq!(iss.reg(Reg::A0), 5050);
        assert!(matches!(iss.exit(), CoreExit::Ebreak { .. }));
    }

    #[test]
    fn memory_roundtrip() {
        let iss = run_prog(|a| {
            let buf = a.d_zero("buf", 64);
            a.la(Reg::T0, buf);
            a.li(Reg::T1, 0x1122_3344_5566_7788);
            a.sd(Reg::T1, 0, Reg::T0);
            a.lw(Reg::A0, 0, Reg::T0);
            a.lwu(Reg::A1, 4, Reg::T0);
            a.lbu(Reg::A2, 7, Reg::T0);
            a.ebreak();
        });
        assert_eq!(iss.reg(Reg::A0), 0x5566_7788);
        assert_eq!(iss.reg(Reg::A1), 0x1122_3344);
        assert_eq!(iss.reg(Reg::A2), 0x11);
    }

    #[test]
    fn call_and_return() {
        let iss = run_prog(|a| {
            let func = a.new_label("func");
            a.li(Reg::A0, 5);
            a.call(func);
            a.ebreak();
            a.bind(func).unwrap();
            a.slli(Reg::A0, Reg::A0, 1);
            a.ret();
        });
        assert_eq!(iss.reg(Reg::A0), 10);
    }

    #[test]
    fn hartid_read() {
        let mut a = Asm::new();
        a.hartid(Reg::A0);
        a.ebreak();
        let prog = a.link(0x8000_0000).unwrap();
        let mut iss = Iss::new(1);
        iss.load_program(&prog);
        iss.run(10);
        assert_eq!(iss.reg(Reg::A0), 1);
    }

    #[test]
    fn fetch_fault_outside_code() {
        let iss = run_prog(|a| {
            a.li(Reg::T0, 0x8000_4000);
            a.jalr(Reg::ZERO, Reg::T0, 0);
        });
        assert!(matches!(iss.exit(), CoreExit::Trap(TrapCause::FetchFault { .. })));
    }

    #[test]
    fn misaligned_load_traps() {
        let iss = run_prog(|a| {
            let buf = a.d_zero("buf", 16);
            a.la(Reg::T0, buf);
            a.lw(Reg::A0, 2, Reg::T0);
            a.ebreak();
        });
        assert!(matches!(iss.exit(), CoreExit::Trap(TrapCause::MisalignedAccess { .. })));
    }

    #[test]
    fn store_to_code_traps() {
        let iss = run_prog(|a| {
            a.li(Reg::T0, 0x8000_0000);
            a.sw(Reg::T0, 0, Reg::T0);
            a.ebreak();
        });
        assert!(matches!(iss.exit(), CoreExit::Trap(TrapCause::StoreToCode { .. })));
    }

    #[test]
    fn undecodable_word_traps_with_that_word() {
        let iss = run_prog(|a| {
            a.li(Reg::A0, 1);
            a.word(0xffff_ffff);
            a.ebreak();
        });
        let cause = TrapCause::IllegalInstruction { pc: 0x8000_0004, word: 0xffff_ffff };
        assert_eq!(iss.exit(), CoreExit::Trap(cause));
        assert_eq!(iss.executed(), 1);
    }

    #[test]
    fn reload_runs_the_new_image() {
        let mut a = Asm::new();
        let top = a.here("spin");
        a.addi(Reg::A0, Reg::A0, 1);
        a.j(top);
        let mut b = Asm::new();
        b.li(Reg::A1, 7);
        b.ebreak();
        let mut iss = Iss::new(0);
        iss.load_program(&a.link(0x8000_0000).unwrap());
        assert!(iss.run(100).is_running());
        iss.load_program(&b.link(0x8000_0000).unwrap());
        assert_eq!(iss.run(100), CoreExit::Ebreak { pc: 0x8000_0004 });
        assert_eq!(iss.reg(Reg::A1), 7);
        assert_eq!(iss.reg(Reg::A0), 50);
    }

    #[test]
    fn budget_exhaustion_keeps_running_state() {
        let mut a = Asm::new();
        let top = a.here("spin");
        a.j(top);
        let prog = a.link(0x8000_0000).unwrap();
        let mut iss = Iss::new(0);
        iss.load_program(&prog);
        assert!(iss.run(100).is_running());
        assert_eq!(iss.executed(), 100);
    }
}
