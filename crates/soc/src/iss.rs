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

use crate::{CoreExit, MainMemory, MemSpace, SocConfig, TrapCause};

/// A program's text decoded once at load, shared by the [`Iss`] and the
/// pipelined cores. Each 4-byte slot keeps its raw word (what the probe
/// reports and an illegal-instruction trap names) and its decoding, `None`
/// when the word is undecodable. Stores to code trap, so the text cannot
/// change before the next load.
#[derive(Debug, Default)]
pub(crate) struct Text {
    base: u64,
    slots: Vec<(u32, Option<Inst>)>,
}

impl Text {
    /// Checks that `prog` fits the RAM window of `cfg`, writes its text into
    /// the shared code space of `mem` and decodes it.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub(crate) fn load(cfg: &SocConfig, mem: &mut MainMemory, prog: &Program) -> Text {
        assert!(
            cfg.in_ram(prog.text_base, prog.text_size().max(1))
                && (prog.data.is_empty() || cfg.in_ram(prog.data_base, prog.data_size())),
            "program image outside RAM window"
        );
        mem.write(MemSpace::Code, prog.text_base, &prog.text);
        let slots = prog.words().map(|(_, word)| (word, decode(word).ok())).collect();
        Text { base: prog.text_base, slots }
    }

    /// Whether `addr` lies in the text.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < 4 * self.slots.len() as u64
    }

    /// The raw word and its decoding at `pc`, a 4-byte aligned address in
    /// the text.
    pub(crate) fn at(&self, pc: u64) -> (u32, Option<Inst>) {
        self.slots[((pc - self.base) / 4) as usize]
    }
}

/// Functional RV64IM interpreter over the same memory-space model as the
/// pipelined core, on the RAM and APB windows of [`SocConfig::default`].
///
/// Accesses follow the pipeline: outside both windows they trap
/// [`TrapCause::AccessFault`]; the APB window holds no slaves, so loads from
/// it read zero and stores to it are dropped, as on an [`MpSoc`] with none
/// registered.
///
/// [`MpSoc`]: crate::MpSoc
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
    cfg: SocConfig,
    regs: [u64; 32],
    csrs: CsrFile,
    pc: u64,
    /// Functional memory over the RAM window. Instructions are fetched from
    /// the text decoded at load, so writing the code space here does not
    /// change what executes.
    pub mem: MainMemory,
    text: Text,
    exit: CoreExit,
    executed: u64,
}

impl Iss {
    /// Creates an ISS for hart `hart` with empty memory.
    #[must_use]
    pub fn new(hart: usize) -> Iss {
        let cfg = SocConfig::default();
        Iss {
            hart,
            regs: [0; 32],
            csrs: CsrFile::new(hart as u64),
            pc: 0,
            mem: MainMemory::new(cfg.ram_base, cfg.ram_size),
            cfg,
            text: Text::default(),
            exit: CoreExit::Running,
            executed: 0,
        }
    }

    /// Loads a program image: text into the shared code space, data into
    /// this hart's private space; decodes the text and sets the PC to the
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_program(&mut self, prog: &Program) {
        self.text = Text::load(&self.cfg, &mut self.mem, prog);
        self.mem.write(MemSpace::Private(self.hart), prog.data_base, &prog.data);
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
        if self.text.contains(addr) {
            MemSpace::Code
        } else {
            MemSpace::Private(self.hart)
        }
    }

    /// The space a `size`-byte data access at `addr` reaches, checked in
    /// the pipeline's order; `None` for the slave-less APB window.
    fn data_space(&self, pc: u64, addr: u64, size: u64) -> Result<Option<MemSpace>, TrapCause> {
        if !is_aligned(addr, size) {
            Err(TrapCause::MisalignedAccess { pc, addr })
        } else if self.cfg.in_apb(addr, size) {
            Ok(None)
        } else if self.cfg.in_ram(addr, size) {
            Ok(Some(self.space(addr)))
        } else {
            Err(TrapCause::AccessFault { pc, addr })
        }
    }

    /// Halts on `cause`; returns `false` for [`Iss::step`].
    fn trap(&mut self, cause: TrapCause) -> bool {
        self.exit = CoreExit::Trap(cause);
        false
    }

    /// Executes one instruction. Returns `false` once halted.
    pub fn step(&mut self) -> bool {
        if !self.exit.is_running() {
            return false;
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) || !self.text.contains(pc) {
            return self.trap(TrapCause::FetchFault { pc });
        }
        let (word, inst) = self.text.at(pc);
        let Some(inst) = inst else {
            return self.trap(TrapCause::IllegalInstruction { pc, word });
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
                let window = match self.data_space(pc, addr, kind.size()) {
                    Ok(space) => space.map_or(0, |s| self.mem.read_dword_window(s, addr)),
                    Err(cause) => return self.trap(cause),
                };
                rd_write(&mut self.regs, rd, load_value(kind, window, addr));
            }
            Inst::Store { kind, rs1, rs2, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                match self.data_space(pc, addr, kind.size()) {
                    Ok(Some(MemSpace::Code)) => {
                        return self.trap(TrapCause::StoreToCode { pc, addr })
                    }
                    Ok(Some(space)) => {
                        let window = self.mem.read_dword_window(space, addr);
                        let merged = store_merge(kind, window, self.reg(rs2), addr);
                        self.mem.write(space, addr & !7, &merged.to_le_bytes());
                    }
                    Ok(None) => {}
                    Err(cause) => return self.trap(cause),
                }
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
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the RAM window.
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
    fn accesses_outside_ram_trap_as_access_faults() {
        for store in [false, true] {
            let iss = run_prog(|a| {
                a.li(Reg::T0, 0x4000_0000);
                if store {
                    a.sd(Reg::T0, 0, Reg::T0);
                } else {
                    a.ld(Reg::T1, 0, Reg::T0);
                }
                a.ebreak();
            });
            let cause = TrapCause::AccessFault { pc: 0x8000_0004, addr: 0x4000_0000 };
            assert_eq!(iss.exit(), CoreExit::Trap(cause), "store: {store}");
        }
    }

    #[test]
    fn slaveless_apb_window_reads_zero_and_drops_stores() {
        let iss = run_prog(|a| {
            a.li(Reg::T0, 0xfc00_0100);
            a.li(Reg::T1, 77);
            a.sd(Reg::T1, 0, Reg::T0);
            a.ld(Reg::A0, 0, Reg::T0);
            a.ebreak();
        });
        assert!(matches!(iss.exit(), CoreExit::Ebreak { .. }));
        assert_eq!(iss.reg(Reg::A0), 0);
    }

    #[test]
    #[should_panic(expected = "program image outside RAM window")]
    fn image_outside_ram_is_rejected() {
        let mut a = Asm::new();
        a.ebreak();
        Iss::new(0).load_program(&a.link(0x4000_0000).unwrap());
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
