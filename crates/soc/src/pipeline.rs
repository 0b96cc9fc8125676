//! The NOEL-V-like core model: dual-issue, in-order, 7-stage pipeline.
//!
//! Stage order (fetch first): `F` → `D` → `RA` → `EX` → `ME` → `XC` → `WB`.
//! Instruction groups of up to two slots move between stages atomically
//! (all-or-none), the property the SafeDM Instruction Signature relies on.
//! Groups may *split* at issue (`D` → `RA`) when the pair violates a
//! dual-issue constraint; after issue they travel as a unit.
//!
//! Instructions stay put: each in-flight group lives in one of seven fixed
//! buffers and a stage holds the index of its buffer, so an advance swaps
//! two indices instead of moving a group. A group keeps its index from `EX`
//! to `WB`, which lets forwarding read a per-register producer table.
//!
//! The model is cycle-driven: [`Core::step`] advances one clock, interacting
//! with the shared [`Uncore`] through its three bus ports (ifetch, data,
//! store drain). The [`CoreProbe`] the diversity monitor reads is kept up to
//! date, not rebuilt: a stage's instruction latches are written where slots
//! enter or leave it, and the per-cycle fields at the end of the step.

use std::collections::VecDeque;
use std::sync::Arc;

use safedm_isa::csr::CsrFile;
use safedm_isa::{
    alu, branch_taken, decode, is_aligned, load_value, CsrKind, Inst, LoadKind, Reg, StoreKind,
};

use crate::iss::Text;
use crate::probe::{CoreProbe, StageSlot, PIPE_STAGES, PIPE_WIDTH, READ_PORTS};
use crate::{
    BusOp, BusResult, BusUnit, CoreExit, MemSpace, PortId, RegFile, SbForward, SocConfig,
    StoreBuffer, TagCache, TrapCause, Uncore,
};

const F: usize = 0;
const D: usize = 1;
const RA: usize = 2;
const EX: usize = 3;
const ME: usize = 4;
const XC: usize = 5;
const WB: usize = 6;

/// The bit of `stage` in the occupancy mask.
const fn stage_bit(stage: usize) -> u8 {
    1 << stage
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
struct Slot {
    raw: u32,
    pc: u64,
    /// The decoded instruction; `None` for an undecodable word, which traps
    /// at `D`.
    inst: Option<Inst>,
    /// Forwardable destination value, once produced.
    result: Option<u64>,
    /// Captured operand values (at RA).
    rs1_val: u64,
    rs2_val: u64,
    /// Effective address for memory ops (at EX).
    eff_addr: u64,
    /// Memory stage completed for this slot.
    mem_done: bool,
    /// Load line-fill request issued.
    fill_issued: bool,
    /// APB transaction issued.
    apb_issued: bool,
    /// Branch predicted taken at decode.
    predicted_taken: bool,
    /// Pending CSR commit `(csr, value)` applied at WB.
    csr_write: Option<(u16, u64)>,
}

impl Slot {
    fn fetched(pc: u64, (raw, inst): (u32, Option<Inst>)) -> Slot {
        Slot {
            raw,
            pc,
            inst,
            result: None,
            rs1_val: 0,
            rs2_val: 0,
            eff_addr: 0,
            mem_done: false,
            fill_issued: false,
            apb_issued: false,
            predicted_taken: false,
            csr_write: None,
        }
    }

    fn inst(&self) -> Inst {
        self.inst.expect("slot past decode carries an instruction")
    }
}

type Group = [Option<Slot>; PIPE_WIDTH];

/// One committed instruction, as recorded by the optional commit trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Cycle of commitment (core-local `mcycle`).
    pub cycle: u64,
    /// Program counter.
    pub pc: u64,
    /// Raw encoding.
    pub raw: u32,
    /// Destination register, if any.
    pub rd: Option<Reg>,
    /// Value written, if any.
    pub value: Option<u64>,
}

impl std::fmt::Display for CommitRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = decode(self.raw)
            .map_or_else(|_| format!(".word {:#010x}", self.raw), |i| i.to_string());
        write!(f, "[{:>8}] {:#010x}: {text}", self.cycle, self.pc)?;
        if let (Some(rd), Some(v)) = (self.rd, self.value) {
            write!(f, "  # {rd} <- {v:#x}")?;
        }
        Ok(())
    }
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed instructions.
    pub retired: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Cycles with no pipeline progress (the SafeDM hold signal).
    pub hold_cycles: u64,
    /// Branch mispredictions (including `jalr` redirects).
    pub mispredicts: u64,
    /// Cycles in which two instructions committed together.
    pub dual_commits: u64,
    /// Hold cycles attributed to a blocked memory stage (cache miss, APB
    /// access in flight, or a full store buffer).
    pub stall_mem_cycles: u64,
    /// Hold cycles attributed to multi-cycle execution latency (mul/div).
    pub stall_ex_cycles: u64,
    /// Hold cycles attributed to operand-read interlocks.
    pub stall_operand_cycles: u64,
    /// Hold cycles attributed to instruction fetch (icache miss or bus
    /// contention on the ifetch port).
    pub stall_fetch_cycles: u64,
    /// Store-buffer-full events (a store retried because `push` failed).
    pub sb_full_events: u64,
}

/// One modelled core.
pub struct Core {
    id: usize,
    cfg: SocConfig,
    regs: RegFile,
    csrs: CsrFile,
    l1i: TagCache,
    l1d: TagCache,
    sb: StoreBuffer,
    /// The in-flight groups, which stay put while they advance.
    groups: [Group; PIPE_STAGES],
    /// Stage `s` holds `groups[at[s]]`; the entries are a permutation.
    at: [u8; PIPE_STAGES],
    /// Bit `s` is set while stage `s` holds a group.
    occ: u8,
    /// Per register, the `(group, slot)` of its youngest producer in
    /// `EX`..`WB`: the slot the bypass network forwards from.
    producer: [Option<(u8, u8)>; 32],
    /// Stages entered this cycle, and the encodings their latches held
    /// before the entry (a trap restores them, see [`Core::trap`]).
    entered: u8,
    latch_before: [[u32; PIPE_WIDTH]; PIPE_STAGES],
    fetch_pc: u64,
    /// The loaded program's text, decoded once and shared by all cores.
    text: Arc<Text>,
    exit: CoreExit,
    ext_stall: bool,
    ex_done: bool,
    ex_remaining: u32,
    d_predecoded: bool,
    /// Folded line key of the in-flight ifetch request, if any.
    ifetch_key: Option<u64>,
    sb_force: bool,
    /// The monitor's view; its stage latches are written where slots move.
    probe: CoreProbe,
    stats: CoreStats,
    commit_trace: Option<(VecDeque<CommitRecord>, usize)>,
    last_commit_pc: Option<u64>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("fetch_pc", &format_args!("{:#x}", self.fetch_pc))
            .field("exit", &self.exit)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core in reset (fetching from address 0 — call
    /// [`Core::reset`] with a real entry point).
    #[must_use]
    pub fn new(id: usize, cfg: &SocConfig) -> Core {
        Core {
            id,
            cfg: cfg.clone(),
            regs: RegFile::new(),
            csrs: CsrFile::new(id as u64),
            l1i: TagCache::new(cfg.l1i),
            l1d: TagCache::new(cfg.l1d),
            sb: StoreBuffer::new(
                cfg.store_buffer_entries,
                cfg.l1d.line_bytes,
                cfg.store_drain_delay,
            ),
            groups: Default::default(),
            at: [0, 1, 2, 3, 4, 5, 6],
            occ: 0,
            producer: [None; 32],
            entered: 0,
            latch_before: [[0; PIPE_WIDTH]; PIPE_STAGES],
            fetch_pc: 0,
            text: Arc::default(),
            exit: CoreExit::Running,
            ext_stall: false,
            ex_done: false,
            ex_remaining: 0,
            d_predecoded: false,
            ifetch_key: None,
            sb_force: false,
            probe: CoreProbe::default(),
            stats: CoreStats::default(),
            commit_trace: None,
            last_commit_pc: None,
        }
    }

    /// PC of the most recently committed instruction, if any committed yet.
    ///
    /// Sticky across cycles: while the core stalls the value stays at the
    /// last commit, which is what region-correlation consumers (the
    /// `safedm-core` pre-run gate) want.
    #[must_use]
    pub fn last_commit_pc(&self) -> Option<u64> {
        self.last_commit_pc
    }

    /// Enables the commit trace, keeping the most recent `capacity`
    /// committed instructions (the model's Modelsim-style instruction log).
    pub fn enable_commit_trace(&mut self, capacity: usize) {
        self.commit_trace = Some((VecDeque::with_capacity(capacity.min(1 << 20)), capacity));
    }

    /// Takes the recorded commit trace (oldest first) and disables tracing.
    pub fn take_commit_trace(&mut self) -> Vec<CommitRecord> {
        self.commit_trace.take().map(|(v, _)| v.into()).unwrap_or_default()
    }

    /// The core index (== `mhartid`).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Resets architectural and microarchitectural state and starts fetching
    /// at `pc`.
    pub fn reset(&mut self, pc: u64) {
        let cfg = self.cfg.clone();
        let text = std::mem::take(&mut self.text);
        *self = Core::new(self.id, &cfg);
        self.text = text;
        self.fetch_pc = pc;
    }

    /// Installs the program's decoded text, the read-only code region the
    /// core fetches from (set by the program loader).
    pub(crate) fn set_text(&mut self, text: Arc<Text>) {
        self.text = text;
    }

    /// The probe as of the last [`Core::step`]: its stage latches change
    /// where slots move and its per-cycle fields at the end of each step.
    #[must_use]
    pub fn probe(&self) -> &CoreProbe {
        &self.probe
    }

    /// Whether the core has stopped.
    #[must_use]
    pub fn halted(&self) -> bool {
        !self.exit.is_running()
    }

    /// The exit state.
    #[must_use]
    pub fn exit(&self) -> CoreExit {
        self.exit
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Architectural register peek.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.read(r)
    }

    /// Architectural register poke (test setup, fault injection).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs.write(r, v);
    }

    /// Flips one bit of an architectural register (fault injection).
    pub fn flip_reg_bit(&mut self, r: Reg, bit: u8) {
        self.regs.flip_bit(r, bit);
    }

    /// Reads the forwardable result latch of pipeline stage `stage`, slot
    /// `slot`, if one is present (fault-injection site inspection).
    #[must_use]
    pub fn peek_stage_result(&self, stage: usize, slot: usize) -> Option<u64> {
        let g = *self.at.get(stage)?;
        self.groups[usize::from(g)][slot].as_ref()?.result
    }

    /// Flips one bit of the forwardable result latch of pipeline stage
    /// `stage`, slot `slot`, if a result is present there. Returns `true`
    /// when a flip landed (fault injection).
    pub fn flip_stage_result_bit(&mut self, stage: usize, slot: usize, bit: u8) -> bool {
        let Some(&g) = self.at.get(stage) else { return false };
        let Some(r) = self.groups[usize::from(g)][slot].as_mut().and_then(|s| s.result.as_mut())
        else {
            return false;
        };
        *r ^= 1u64 << (bit & 63);
        true
    }

    /// Asserts or releases the external stall line (used by the SafeDE
    /// baseline to enforce staggering; intrusive by design).
    pub fn set_external_stall(&mut self, stall: bool) {
        self.ext_stall = stall;
    }

    /// Whether the external stall line is asserted.
    #[must_use]
    pub fn external_stall(&self) -> bool {
        self.ext_stall
    }

    /// Store buffer occupancy (exposed for run-drain checks).
    #[must_use]
    pub fn store_buffer_len(&self) -> usize {
        self.sb.len()
    }

    /// Retired instruction count (`minstret`).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.csrs.minstret
    }

    /// L1 cache statistics `((i_hits, i_misses), (d_hits, d_misses))`.
    #[must_use]
    pub fn l1_stats(&self) -> ((u64, u64), (u64, u64)) {
        (self.l1i.stats(), self.l1d.stats())
    }

    /// Store-buffer statistics `(coalesced_stores, drained_entries)`.
    #[must_use]
    pub fn sb_stats(&self) -> (u64, u64) {
        self.sb.stats()
    }

    fn ifetch_port(&self) -> PortId {
        PortId { core: self.id, unit: BusUnit::IFetch }
    }
    fn data_port(&self) -> PortId {
        PortId { core: self.id, unit: BusUnit::Data }
    }
    fn store_port(&self) -> PortId {
        PortId { core: self.id, unit: BusUnit::Store }
    }

    fn in_code(&self, addr: u64) -> bool {
        self.text.contains(addr)
    }

    fn data_space(&self, addr: u64) -> MemSpace {
        if self.in_code(addr) {
            MemSpace::Code
        } else {
            MemSpace::Private(self.id)
        }
    }

    // ---- stage bookkeeping -------------------------------------------------------

    fn occupied(&self, stage: usize) -> bool {
        self.occ & stage_bit(stage) != 0
    }

    fn group(&self, stage: usize) -> &Group {
        &self.groups[usize::from(self.at[stage])]
    }

    fn slot(&self, stage: usize, i: usize) -> &Slot {
        self.group(stage)[i].as_ref().expect("slot exists")
    }

    fn slot_mut(&mut self, stage: usize, i: usize) -> &mut Slot {
        self.groups[usize::from(self.at[stage])][i].as_mut().expect("slot exists")
    }

    /// Moves the group of stage `from` into the empty stage `to`: the two
    /// stages swap group indices, the latches of `to` take the entering
    /// encodings and those of `from` drop their valid bits.
    fn advance(&mut self, from: usize, to: usize) {
        debug_assert!(self.occupied(from) && !self.occupied(to));
        self.at.swap(from, to);
        self.occ ^= stage_bit(from) | stage_bit(to);
        self.entered |= stage_bit(to);
        let [src, dst] = self.probe.stages.get_disjoint_mut([from, to]).expect("two stages");
        for ((s, d), before) in src.iter_mut().zip(dst).zip(&mut self.latch_before[to]) {
            *before = d.raw;
            if s.valid {
                *d = *s;
                s.valid = false;
            }
        }
    }

    /// Empties stage `stage`; its latches keep their encodings, as
    /// hardware registers are not cleared on squash.
    fn clear(&mut self, stage: usize) {
        self.groups[usize::from(self.at[stage])] = Default::default();
        self.occ &= !stage_bit(stage);
        for l in &mut self.probe.stages[stage] {
            l.valid = false;
        }
    }

    /// Halts on `cause` and flushes the pipeline. The latches show the
    /// pipeline as the cycle ends, so a stage entered earlier in this
    /// cycle goes back to the encodings it held before the entry.
    fn trap(&mut self, cause: TrapCause) {
        self.exit = CoreExit::Trap(cause);
        let entered = self.entered;
        for s in (0..PIPE_STAGES).filter(|&s| entered & stage_bit(s) != 0) {
            for (l, raw) in self.probe.stages[s].iter_mut().zip(self.latch_before[s]) {
                l.raw = raw;
            }
        }
        self.flush_all();
    }

    fn flush_all(&mut self) {
        for s in 0..PIPE_STAGES {
            self.clear(s);
        }
        self.producer = [None; 32];
        self.ex_done = false;
        self.ex_remaining = 0;
        self.d_predecoded = false;
    }

    fn flush_front(&mut self, new_pc: u64) {
        for s in [F, D, RA] {
            self.clear(s);
        }
        self.d_predecoded = false;
        self.fetch_pc = new_pc;
        // An in-flight ifetch (ifetch_key) is not cancelled: the line still
        // arrives and fills the L1I, but its words are discarded because
        // fetch restarts from `new_pc`.
    }

    /// Advances the core by one clock cycle.
    pub fn step(&mut self, uncore: &mut Uncore) {
        if self.halted() {
            // Keep draining the store buffer so memory reaches a consistent
            // final state for result checking.
            self.probe.idle_ports();
            self.sb.tick();
            self.service_store_port(uncore, true);
            // A stray ifetch completion is still collected so the port frees.
            if uncore.take_done(self.ifetch_port()).is_some() {
                if let Some(key) = self.ifetch_key.take() {
                    self.l1i.fill(key);
                }
            }
            self.end_cycle(true, 0);
            return;
        }

        self.csrs.mcycle += 1;
        self.stats.cycles += 1;
        self.probe.idle_ports();
        self.entered = 0;

        self.sb.tick();
        self.service_store_port(uncore, self.sb_force);
        if self.sb.is_empty() {
            self.sb_force = false;
        }

        if self.ext_stall {
            self.stats.hold_cycles += 1;
            self.end_cycle(true, 0);
            return;
        }

        let mut progress = false;
        let mut committed = 0u8;
        // Stall-cause attribution: which stages were blocked this cycle.
        // Only charged when the whole pipeline fails to make progress.
        let mut me_blocked = false;
        let mut ex_blocked = false;
        let mut operand_blocked = false;
        let mut fetch_blocked = false;

        // ---- WB: commit -------------------------------------------------
        if self.occupied(WB) {
            committed = self.commit();
            if committed == 2 {
                self.stats.dual_commits += 1;
            }
            progress = true;
        }

        // ---- XC -> WB ----------------------------------------------------
        if !self.halted() && !self.occupied(WB) && self.occupied(XC) {
            self.advance(XC, WB);
            progress = true;
        }

        // ---- ME ----------------------------------------------------------
        if !self.halted() && self.occupied(ME) {
            let all_done = self.process_me(uncore);
            if all_done && !self.occupied(XC) {
                self.advance(ME, XC);
                progress = true;
            } else if !all_done {
                me_blocked = true;
            }
        }

        // ---- EX ----------------------------------------------------------
        if !self.halted() && self.occupied(EX) {
            if !self.ex_done {
                let latency = self.execute_group();
                self.ex_done = true;
                self.ex_remaining = latency.saturating_sub(1);
            } else if self.ex_remaining > 0 {
                self.ex_remaining -= 1;
            }
            if self.ex_done && self.ex_remaining == 0 && !self.occupied(ME) {
                self.advance(EX, ME);
                self.ex_done = false;
                progress = true;
            } else if self.ex_remaining > 0 {
                ex_blocked = true;
            }
        }

        // ---- RA -> EX ------------------------------------------------------
        if !self.halted() && self.occupied(RA) && !self.occupied(EX) {
            if self.read_operands() {
                self.advance(RA, EX);
                // The entering group holds the youngest producers of its
                // destinations (dual issue never pairs two writes of one
                // register).
                let g = self.at[EX];
                for (i, slot) in self.groups[usize::from(g)].iter().enumerate() {
                    if let Some(rd) = slot.as_ref().and_then(|s| s.inst().rd()) {
                        self.producer[usize::from(rd.index())] = Some((g, i as u8));
                    }
                }
                progress = true;
            } else {
                operand_blocked = true;
            }
        }

        // ---- D: predecode, then issue to RA ---------------------------------
        if !self.halted() && self.occupied(D) {
            if !self.d_predecoded && !self.decode_and_predecode() {
                // trapped on illegal instruction
            } else if !self.halted() && !self.occupied(RA) {
                self.issue();
                progress = true;
            }
        }

        // ---- F -> D -----------------------------------------------------------
        if !self.halted() && self.occupied(F) && !self.occupied(D) {
            self.advance(F, D);
            self.d_predecoded = false;
            progress = true;
        }

        // ---- fetch ---------------------------------------------------------------
        if !self.halted() && !self.occupied(F) {
            if self.fetch(uncore) {
                progress = true;
            } else {
                fetch_blocked = true;
            }
        }

        if !progress {
            self.stats.hold_cycles += 1;
            // Memory backpressure dominates, then execution latency, then
            // interlocks, then fetch.
            if me_blocked {
                self.stats.stall_mem_cycles += 1;
            } else if ex_blocked {
                self.stats.stall_ex_cycles += 1;
            } else if operand_blocked {
                self.stats.stall_operand_cycles += 1;
            } else if fetch_blocked {
                self.stats.stall_fetch_cycles += 1;
            }
        }
        self.end_cycle(!progress, committed);
    }

    /// Commits the `WB` group in place, then empties `WB`. Returns the
    /// number of instructions committed.
    fn commit(&mut self) -> u8 {
        let g = self.at[WB];
        let mut committed = 0;
        for i in 0..PIPE_WIDTH {
            let Some(slot) = self.groups[usize::from(g)][i].as_ref() else { continue };
            let (pc, raw, inst, result, csr_write) =
                (slot.pc, slot.raw, slot.inst(), slot.result, slot.csr_write);
            if let Some((trace, cap)) = self.commit_trace.as_mut() {
                if trace.len() >= *cap {
                    trace.pop_front();
                }
                trace.push_back(CommitRecord {
                    cycle: self.csrs.mcycle,
                    pc,
                    raw,
                    rd: inst.rd(),
                    value: inst.rd().and(result),
                });
            }
            if let Some(rd) = inst.rd() {
                let v = result.expect("committing instruction has result");
                self.probe.drive_port(READ_PORTS + i, v);
                self.regs.write(rd, v);
                let producer = &mut self.producer[usize::from(rd.index())];
                if *producer == Some((g, i as u8)) {
                    *producer = None;
                }
            } else if let Some(v) = result {
                if !matches!(inst, Inst::Branch { .. } | Inst::Store { .. }) {
                    // x0-destination writes still drive the port lines.
                    self.probe.drive_port(READ_PORTS + i, v);
                }
            }
            if let Some((csr, v)) = csr_write {
                self.csrs.write(csr, v);
            }
            self.csrs.minstret += 1;
            self.stats.retired += 1;
            self.last_commit_pc = Some(pc);
            committed += 1;
            match inst {
                Inst::Ebreak => {
                    self.exit = CoreExit::Ebreak { pc };
                    self.flush_all();
                    break;
                }
                Inst::Ecall => {
                    self.exit = CoreExit::Ecall { pc };
                    self.flush_all();
                    break;
                }
                _ => {}
            }
        }
        self.clear(WB);
        committed
    }

    /// Sets the probe's per-cycle fields; its stage latches and port row
    /// are current.
    fn end_cycle(&mut self, hold: bool, committed: u8) {
        let p = &mut self.probe;
        p.cycle = self.csrs.mcycle;
        p.hold = hold;
        p.committed = committed;
        p.halted = !self.exit.is_running();
    }

    // ---- fetch ----------------------------------------------------------------

    /// Returns `true` when instructions were delivered into `F`.
    fn fetch(&mut self, uncore: &mut Uncore) -> bool {
        let pc = self.fetch_pc;
        if !pc.is_multiple_of(4) || !self.in_code(pc) {
            // Sequential prefetch may legitimately run off the end of the
            // text section while an `ebreak` is still in flight. Only a
            // drained pipeline with an invalid fetch PC is a true runaway.
            if self.occ == 0 && !uncore.in_flight(self.ifetch_port()) {
                self.trap(TrapCause::FetchFault { pc });
            }
            return false;
        }
        let line = self.l1i.line_base(pc);
        let key = MemSpace::Code.fold(line);

        if let Some(BusResult::Done) = uncore.take_done(self.ifetch_port()) {
            // Fill the line that was actually requested (a redirect may have
            // changed `fetch_pc` since the request was issued).
            let filled = self.ifetch_key.take().expect("completion implies a request");
            self.l1i.fill(filled);
        }
        if uncore.in_flight(self.ifetch_port()) {
            return false;
        }
        if !self.l1i.lookup(key) {
            self.ifetch_key = Some(key);
            uncore.request(self.ifetch_port(), BusOp::ReadLine { key });
            return false;
        }

        let f = usize::from(self.at[F]);
        let mut count = 0;
        for i in 0..PIPE_WIDTH {
            let a = pc + 4 * i as u64;
            if self.l1i.line_base(a) != line || !self.in_code(a) {
                break;
            }
            let fetched = self.text.at(a);
            self.probe.stages[F][i] = StageSlot { valid: true, raw: fetched.0 };
            self.groups[f][i] = Some(Slot::fetched(a, fetched));
            count += 1;
        }
        if count == 0 {
            self.trap(TrapCause::FetchFault { pc });
            return false;
        }
        self.occ |= stage_bit(F);
        self.fetch_pc = pc + 4 * count as u64;
        true
    }

    // ---- decode / predecode ------------------------------------------------------

    /// Traps on an undecodable word in `D` and applies front-end redirects
    /// (`jal`, predicted-taken branches). Returns `false` on an
    /// illegal-instruction trap.
    fn decode_and_predecode(&mut self) -> bool {
        let d = usize::from(self.at[D]);
        if let Some(slot) = self.groups[d].iter().flatten().find(|s| s.inst.is_none()) {
            let cause = TrapCause::IllegalInstruction { pc: slot.pc, word: slot.raw };
            self.trap(cause);
            return false;
        }
        // Front-end redirect at the first control-flow slot.
        for i in 0..PIPE_WIDTH {
            let Some(slot) = self.groups[d][i].as_mut() else { continue };
            let target = match slot.inst() {
                Inst::Jal { offset, .. } => slot.pc.wrapping_add(offset as u64),
                // Static backward-taken / forward-not-taken prediction.
                Inst::Branch { offset, .. } if offset < 0 => {
                    slot.predicted_taken = true;
                    slot.pc.wrapping_add(offset as u64)
                }
                _ => continue,
            };
            for j in i + 1..PIPE_WIDTH {
                self.groups[d][j] = None;
                self.probe.stages[D][j].valid = false;
            }
            self.flush_stage_f_and_redirect(target);
            break;
        }
        self.d_predecoded = true;
        true
    }

    fn flush_stage_f_and_redirect(&mut self, target: u64) {
        self.clear(F);
        self.fetch_pc = target;
    }

    /// Moves the `D` group into `RA`, splitting a pair that violates a
    /// dual-issue constraint: the older slot issues and the younger one
    /// stays in `D`, already predecoded.
    fn issue(&mut self) {
        let d = usize::from(self.at[D]);
        let split = match &self.groups[d] {
            [Some(s0), Some(s1)] => !Self::can_dual_issue(&s0.inst(), &s1.inst()),
            _ => false,
        };
        self.advance(D, RA);
        if !split {
            self.d_predecoded = false;
            return;
        }
        // The younger slot goes back to slot 0 of the (empty) group now in
        // `D`; RA's second latch keeps the encoding it held.
        let younger = self.groups[d][1].take().expect("split pair");
        self.probe.stages[RA][1] = StageSlot { valid: false, raw: self.latch_before[RA][1] };
        self.probe.stages[D][0] = StageSlot { valid: true, raw: younger.raw };
        self.groups[usize::from(self.at[D])][0] = Some(younger);
        self.occ |= stage_bit(D);
    }

    fn can_dual_issue(older: &Inst, younger: &Inst) -> bool {
        // Structural: one memory port, one mul/div unit, system ops alone.
        if older.is_system() || younger.is_system() {
            return false;
        }
        if older.is_mem() && younger.is_mem() {
            return false;
        }
        if older.is_muldiv() && younger.is_muldiv() {
            return false;
        }
        // Control flow only in the younger slot.
        if older.is_control_flow() {
            return false;
        }
        // Data: no intra-pair RAW or WAW, via the operand masks shared with
        // the static analyzer (see `Inst::use_mask`/`Inst::def_mask`).
        if older.def_mask() & (younger.use_mask() | younger.def_mask()) != 0 {
            return false;
        }
        true
    }

    // ---- register access -------------------------------------------------------------

    /// Attempts to read all operands of the `RA` group with forwarding.
    /// Returns `false` (stall) when a producer's value is not yet available.
    fn read_operands(&mut self) -> bool {
        let ra = usize::from(self.at[RA]);
        // First check availability for every operand.
        for slot in self.groups[ra].iter().flatten() {
            let inst = slot.inst();
            for r in [inst.rs1(), inst.rs2()].into_iter().flatten() {
                if self.forward_value(r).is_none() {
                    return false;
                }
            }
        }
        // All available: perform the reads, driving the port lines (a
        // forwarded operand still drives its port).
        for i in 0..PIPE_WIDTH {
            let Some(inst) = self.groups[ra][i].as_ref().map(Slot::inst) else { continue };
            let mut vals = [0; 2];
            for (k, r) in [inst.rs1(), inst.rs2()].into_iter().enumerate() {
                if let Some(r) = r {
                    let v = self.regs.read(r);
                    self.probe.drive_port(2 * i + k, v);
                    vals[k] = self.bypass(r).unwrap_or(v);
                }
            }
            let s = self.groups[ra][i].as_mut().expect("slot exists");
            [s.rs1_val, s.rs2_val] = vals;
        }
        true
    }

    /// Value of `r` considering in-flight producers; `None` when a producer
    /// exists but has not produced yet (stall).
    fn forward_value(&self, r: Reg) -> Option<u64> {
        if r.is_zero() {
            return Some(0);
        }
        match self.bypass_producer(r) {
            Some(slot) => slot.result,
            None => Some(self.regs.read(r)),
        }
    }

    /// The bypass network value for `r` (None = read the register file).
    fn bypass(&self, r: Reg) -> Option<u64> {
        self.bypass_producer(r).map(|s| s.result.expect("checked by forward_value"))
    }

    /// The youngest in-flight producer of `r` in `EX`..`WB`.
    fn bypass_producer(&self, r: Reg) -> Option<&Slot> {
        let (g, i) = self.producer[usize::from(r.index())]?;
        Some(self.groups[usize::from(g)][usize::from(i)].as_ref().expect("producer in flight"))
    }

    // ---- execute ------------------------------------------------------------------------

    /// Computes results for the `EX` group; returns the group latency.
    fn execute_group(&mut self) -> u32 {
        let ex = usize::from(self.at[EX]);
        // A CSR instruction (which issues alone) reads the committed file
        // with the pending writes of the older groups in `WB`, `XC` and
        // `ME` replayed over it, oldest first: CSR writes apply at `WB`.
        let is_csr = |s: &Slot| matches!(s.inst(), Inst::Csr { .. } | Inst::CsrImm { .. });
        let csrs = self.groups[ex].iter().flatten().any(is_csr).then(|| {
            let mut csrs = self.csrs.clone();
            for stage in [WB, XC, ME] {
                for (c, v) in self.group(stage).iter().flatten().filter_map(|s| s.csr_write) {
                    csrs.write(c, v);
                }
            }
            csrs
        });
        let csr_at_ex = |csr| csrs.as_ref().and_then(|f| f.read(csr)).unwrap_or(0);
        let mut latency = 1u32;
        let mut redirect: Option<u64> = None;
        for slot in self.groups[ex].iter_mut().flatten() {
            let inst = slot.inst();
            let pc = slot.pc;
            let (a, b) = (slot.rs1_val, slot.rs2_val);
            match inst {
                Inst::Op { kind, .. } => {
                    slot.result = Some(alu(kind, a, b));
                    if kind.is_div() {
                        latency = latency.max(self.cfg.div_latency);
                    } else if kind.is_muldiv() {
                        latency = latency.max(self.cfg.mul_latency);
                    }
                }
                Inst::OpImm { kind, imm, .. } => {
                    slot.result = Some(alu(kind, a, imm as u64));
                }
                Inst::Lui { imm, .. } => slot.result = Some(imm as u64),
                Inst::Auipc { imm, .. } => slot.result = Some(pc.wrapping_add(imm as u64)),
                Inst::Jal { .. } => slot.result = Some(pc + 4),
                Inst::Jalr { offset, .. } => {
                    slot.result = Some(pc + 4);
                    let target = a.wrapping_add(offset as u64) & !1;
                    if target != pc + 4 {
                        redirect = Some(target);
                        self.stats.mispredicts += 1;
                    }
                }
                Inst::Branch { kind, offset, .. } => {
                    let taken = branch_taken(kind, a, b);
                    let predicted = slot.predicted_taken;
                    if taken != predicted {
                        let target = if taken { pc.wrapping_add(offset as u64) } else { pc + 4 };
                        redirect = Some(target);
                        self.stats.mispredicts += 1;
                    }
                }
                Inst::Load { offset, .. } => {
                    slot.eff_addr = a.wrapping_add(offset as u64);
                }
                Inst::Store { offset, .. } => {
                    slot.eff_addr = a.wrapping_add(offset as u64);
                    slot.rs2_val = b; // store data
                }
                Inst::Csr { kind, csr, rs1, .. } => {
                    let old = csr_at_ex(csr);
                    slot.result = Some(old);
                    let new = match kind {
                        CsrKind::Rw => a,
                        CsrKind::Rs => old | a,
                        CsrKind::Rc => old & !a,
                    };
                    let writes = matches!(kind, CsrKind::Rw) || !rs1.is_zero();
                    if writes {
                        slot.csr_write = Some((csr, new));
                    }
                }
                Inst::CsrImm { kind, csr, zimm, .. } => {
                    let old = csr_at_ex(csr);
                    slot.result = Some(old);
                    let z = u64::from(zimm);
                    let new = match kind {
                        CsrKind::Rw => z,
                        CsrKind::Rs => old | z,
                        CsrKind::Rc => old & !z,
                    };
                    let writes = matches!(kind, CsrKind::Rw) || zimm != 0;
                    if writes {
                        slot.csr_write = Some((csr, new));
                    }
                }
                Inst::Fence | Inst::Ecall | Inst::Ebreak => {}
            }
        }
        if let Some(target) = redirect {
            self.flush_front(target);
        }
        latency
    }

    // ---- memory stage -----------------------------------------------------------------------

    /// Processes memory operations of the `ME` group. Returns `true` when
    /// every slot has completed.
    fn process_me(&mut self, uncore: &mut Uncore) -> bool {
        for i in 0..PIPE_WIDTH {
            let Some(slot) = self.group(ME)[i].as_ref() else { continue };
            if slot.mem_done {
                continue;
            }
            match slot.inst() {
                Inst::Load { kind, .. } => {
                    if !self.process_load(uncore, i, kind) {
                        return false;
                    }
                }
                Inst::Store { kind, .. } => {
                    if !self.process_store(uncore, i, kind) {
                        return false;
                    }
                }
                Inst::Fence => {
                    self.sb_force = true;
                    if !self.sb.is_empty() {
                        return false;
                    }
                    self.slot_mut(ME, i).mem_done = true;
                }
                _ => {
                    self.slot_mut(ME, i).mem_done = true;
                }
            }
            if self.halted() {
                return false;
            }
        }
        self.group(ME).iter().flatten().all(|s| s.mem_done)
    }

    fn process_load(&mut self, uncore: &mut Uncore, i: usize, kind: LoadKind) -> bool {
        let slot = self.slot(ME, i);
        let (addr, pc) = (slot.eff_addr, slot.pc);
        if slot.fill_issued {
            // Only the fill can complete this load now. Stores enter the
            // buffer only at `ME`, which this load holds, and dual issue
            // never pairs two memory ops, so the forward that found nothing
            // when the fill was issued would still find nothing.
            if let Some(BusResult::Done) = uncore.take_done(self.data_port()) {
                let space = self.data_space(addr);
                self.l1d.fill(space.fold(self.l1d.line_base(addr)));
                let window = uncore.mem.read_dword_window(space, addr);
                let slot = self.slot_mut(ME, i);
                slot.result = Some(load_value(kind, window, addr));
                slot.mem_done = true;
                return true;
            }
            return false;
        }
        let size = kind.size();
        if !is_aligned(addr, size) {
            self.trap(TrapCause::MisalignedAccess { pc, addr });
            return false;
        }
        if self.cfg.in_apb(addr, size) {
            return self.process_apb_load(uncore, i, kind, addr);
        }
        if !self.cfg.in_ram(addr, size) {
            self.trap(TrapCause::AccessFault { pc, addr });
            return false;
        }
        let space = self.data_space(addr);
        let window = uncore.mem.read_dword_window(space, addr);
        match self.sb.forward(space, addr, size, window) {
            SbForward::Full(w) => {
                let slot = self.slot_mut(ME, i);
                slot.result = Some(load_value(kind, w, addr));
                slot.mem_done = true;
                true
            }
            SbForward::Partial => {
                self.sb_force = true;
                false
            }
            SbForward::None => {
                let key = space.fold(self.l1d.line_base(addr));
                let hit = self.l1d.lookup(key);
                let slot = self.slot_mut(ME, i);
                if hit {
                    slot.result = Some(load_value(kind, window, addr));
                    slot.mem_done = true;
                    return true;
                }
                // miss: request the line
                slot.fill_issued = true;
                uncore.request(self.data_port(), BusOp::ReadLine { key });
                false
            }
        }
    }

    fn process_apb_load(
        &mut self,
        uncore: &mut Uncore,
        i: usize,
        kind: LoadKind,
        addr: u64,
    ) -> bool {
        let port = self.data_port();
        if self.slot(ME, i).apb_issued {
            if let Some(BusResult::ApbData(data)) = uncore.take_done(port) {
                // APB registers are 64-bit; narrow loads extract their lane.
                let slot = self.slot_mut(ME, i);
                slot.result = Some(load_value(kind, data, addr));
                slot.mem_done = true;
                return true;
            }
            return false;
        }
        if uncore.in_flight(port) {
            return false;
        }
        self.slot_mut(ME, i).apb_issued = true;
        uncore.request(port, BusOp::ApbRead { addr: addr & !7 });
        false
    }

    fn process_store(&mut self, uncore: &mut Uncore, i: usize, kind: StoreKind) -> bool {
        let slot = self.slot(ME, i);
        let (addr, pc, value) = (slot.eff_addr, slot.pc, slot.rs2_val);
        let size = kind.size();
        if !is_aligned(addr, size) {
            self.trap(TrapCause::MisalignedAccess { pc, addr });
            return false;
        }
        if self.cfg.in_apb(addr, size) {
            let port = self.data_port();
            if self.slot(ME, i).apb_issued {
                if let Some(BusResult::Done) = uncore.take_done(port) {
                    self.slot_mut(ME, i).mem_done = true;
                    return true;
                }
                return false;
            }
            if uncore.in_flight(port) {
                return false;
            }
            self.slot_mut(ME, i).apb_issued = true;
            uncore.request(port, BusOp::ApbWrite { addr: addr & !7, data: value });
            return false;
        }
        if !self.cfg.in_ram(addr, size) {
            self.trap(TrapCause::AccessFault { pc, addr });
            return false;
        }
        if self.in_code(addr) {
            self.trap(TrapCause::StoreToCode { pc, addr });
            return false;
        }
        let space = self.data_space(addr);
        let bytes = value.to_le_bytes();
        if self.sb.push(space, addr, &bytes[..size as usize]).is_err() {
            self.sb_force = true; // full: drain and retry
            self.stats.sb_full_events += 1;
            return false;
        }
        self.slot_mut(ME, i).mem_done = true;
        true
    }

    fn service_store_port(&mut self, uncore: &mut Uncore, force: bool) {
        // An entry leaves the buffer only when its write completes, so an
        // empty buffer has no drain in flight and none to start.
        if self.sb.is_empty() {
            return;
        }
        if let Some(BusResult::Done) = uncore.take_done(self.store_port()) {
            self.sb.finish_drain();
        }
        if self.sb.drain_ready(force) && !uncore.in_flight(self.store_port()) {
            let entry = self.sb.begin_drain();
            uncore.request(self.store_port(), BusOp::WriteLine(Box::new(entry)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{PortSample, PORT_WORDS, WRITE_PORTS};
    use crate::{MpSoc, SocConfig};
    use safedm_asm::Asm;

    fn inst(text_kind: &str) -> Inst {
        match text_kind {
            "add" => {
                Inst::Op { kind: safedm_isa::AluKind::Add, rd: Reg::T0, rs1: Reg::T1, rs2: Reg::T2 }
            }
            "add2" => {
                Inst::Op { kind: safedm_isa::AluKind::Add, rd: Reg::T3, rs1: Reg::T4, rs2: Reg::T5 }
            }
            "dep" => {
                Inst::Op { kind: safedm_isa::AluKind::Add, rd: Reg::T3, rs1: Reg::T0, rs2: Reg::T5 }
            }
            "waw" => {
                Inst::Op { kind: safedm_isa::AluKind::Sub, rd: Reg::T0, rs1: Reg::T4, rs2: Reg::T5 }
            }
            "load" => Inst::Load { kind: LoadKind::D, rd: Reg::A0, rs1: Reg::SP, offset: 0 },
            "load2" => Inst::Load { kind: LoadKind::W, rd: Reg::A1, rs1: Reg::SP, offset: 8 },
            "store" => Inst::Store {
                kind: safedm_isa::StoreKind::D,
                rs1: Reg::SP,
                rs2: Reg::A2,
                offset: 16,
            },
            "mul" => {
                Inst::Op { kind: safedm_isa::AluKind::Mul, rd: Reg::A3, rs1: Reg::T1, rs2: Reg::T2 }
            }
            "div" => {
                Inst::Op { kind: safedm_isa::AluKind::Div, rd: Reg::A4, rs1: Reg::T1, rs2: Reg::T2 }
            }
            "branch" => Inst::Branch {
                kind: safedm_isa::BranchKind::Eq,
                rs1: Reg::A5,
                rs2: Reg::A6,
                offset: 16,
            },
            "jal" => Inst::Jal { rd: Reg::RA, offset: 32 },
            "csr" => Inst::Csr { kind: CsrKind::Rs, rd: Reg::T0, rs1: Reg::ZERO, csr: 0xf14 },
            "fence" => Inst::Fence,
            "ebreak" => Inst::Ebreak,
            _ => unreachable!(),
        }
    }

    #[test]
    fn dual_issue_rules() {
        // independent ALU pair: ok
        assert!(Core::can_dual_issue(&inst("add"), &inst("add2")));
        // intra-pair RAW: split
        assert!(!Core::can_dual_issue(&inst("add"), &inst("dep")));
        // WAW: split
        assert!(!Core::can_dual_issue(&inst("add"), &inst("waw")));
        // two memory ops: split
        assert!(!Core::can_dual_issue(&inst("load"), &inst("load2")));
        // one memory + one ALU: ok
        assert!(Core::can_dual_issue(&inst("load"), &inst("add2")));
        assert!(Core::can_dual_issue(&inst("add"), &inst("store")));
        // two muldiv: split; one is fine
        assert!(!Core::can_dual_issue(&inst("mul"), &inst("div")));
        assert!(Core::can_dual_issue(&inst("mul"), &inst("add2")));
        // control flow only in the younger slot
        assert!(!Core::can_dual_issue(&inst("branch"), &inst("add2")));
        assert!(Core::can_dual_issue(&inst("add"), &inst("branch")));
        assert!(!Core::can_dual_issue(&inst("jal"), &inst("add2")));
        // system ops always alone
        assert!(!Core::can_dual_issue(&inst("csr"), &inst("add2")));
        assert!(!Core::can_dual_issue(&inst("add"), &inst("fence")));
        assert!(!Core::can_dual_issue(&inst("add"), &inst("ebreak")));
    }

    fn run_core(build: impl FnOnce(&mut Asm)) -> MpSoc {
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.link(0x8000_0000).unwrap();
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let mut soc = MpSoc::new(cfg);
        soc.load_program(&prog);
        let r = soc.run(1_000_000);
        assert!(r.all_clean(), "{:?}", r.exits);
        soc
    }

    #[test]
    fn probe_reports_stale_raw_bits_for_invalid_slots() {
        let soc = run_core(|a| {
            a.li(Reg::T0, 1);
            a.ebreak();
        });
        // After halting, all slots are invalid but the stale encodings of the
        // last instructions remain visible (hardware registers keep values).
        let p = soc.probe(0);
        assert_eq!(p.occupancy(), 0);
        let any_stale = p.stages.iter().flatten().any(|s| s.raw != 0);
        assert!(any_stale, "stale encodings must persist after squash");
        assert!(p.halted);
    }

    #[test]
    fn an_x0_result_drives_its_write_port_and_idle_ports_keep_their_lines() {
        let mut a = Asm::new();
        a.li(Reg::T0, 7);
        a.addi(Reg::ZERO, Reg::T0, 1);
        a.ebreak();
        let mut soc = MpSoc::new(SocConfig { cores: 1, ..SocConfig::default() });
        soc.load_program(&a.link(0x8000_0000).unwrap());
        let driven = PortSample { enable: true, value: 8 };
        let mut wrote = false;
        while !soc.core(0).halted() {
            soc.step();
            wrote |= (0..WRITE_PORTS).any(|i| soc.probe(0).write_port(i) == driven);
        }
        assert!(wrote, "the x0 destination's value reaches a write port");
        assert_eq!(soc.core(0).reg(Reg::ZERO), 0);
        soc.step();
        let p = soc.probe(0);
        assert_eq!(p.ports[PORT_WORDS - 1], 0, "a halted core drives no port");
        assert!((0..WRITE_PORTS).any(|i| p.write_port(i).value == 8), "idle lines keep values");
    }

    #[test]
    fn trap_cycle_latches_show_the_cycle_before() {
        // A trap flushes the pipeline mid-cycle, after older groups may
        // already have advanced: none of those moves reaches the latches,
        // which keep the previous cycle's encodings with every valid bit
        // clear.
        for illegal in [false, true] {
            // Independent pairs of distinct encodings fill the stages
            // behind the trapping word.
            let mut a = Asm::new();
            for i in 0..10 {
                a.addi(Reg::new(5 + i as u8), Reg::ZERO, i);
            }
            if illegal {
                a.word(0xffff_ffff);
            } else {
                a.ld(Reg::A0, 1, Reg::ZERO);
            }
            a.ebreak();
            let cfg = SocConfig { cores: 1, ..SocConfig::default() };
            let mut soc = MpSoc::new(cfg);
            soc.load_program(&a.link(0x8000_0000).unwrap());
            let mut before = *soc.probe(0);
            while !soc.core(0).halted() {
                before = *soc.probe(0);
                soc.step();
            }
            assert!(matches!(soc.core(0).exit(), CoreExit::Trap(_)));
            let after = soc.probe(0);
            for (s, (b, a)) in before.stages.iter().zip(&after.stages).enumerate() {
                for (b, a) in b.iter().zip(a) {
                    assert_eq!((a.valid, a.raw), (false, b.raw), "stage {s}, illegal {illegal}");
                }
            }
        }
    }

    #[test]
    fn csr_reads_cycle_and_instret() {
        let soc = run_core(|a| {
            a.li(Reg::T0, 50);
            let top = a.here("top");
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.csrr(Reg::A0, safedm_isa::csr::addr::CYCLE);
            a.csrr(Reg::A1, safedm_isa::csr::addr::INSTRET);
            a.ebreak();
        });
        let cyc = soc.core(0).reg(Reg::A0);
        let ret = soc.core(0).reg(Reg::A1);
        assert!(cyc > 100, "cycle counter must advance: {cyc}");
        assert!((101..110).contains(&ret), "instret at read: {ret}");
        assert_eq!(soc.core(0).retired(), 104);
    }

    #[test]
    fn csr_read_sees_older_in_flight_csr_write() {
        let soc = run_core(|a| {
            let csrrw = |rd, rs1| Inst::Csr {
                kind: CsrKind::Rw,
                rd,
                rs1,
                csr: safedm_isa::csr::addr::MSCRATCH,
            };
            a.li(Reg::T0, 5);
            a.li(Reg::T1, 9);
            a.inst(csrrw(Reg::A0, Reg::T0));
            a.inst(csrrw(Reg::A1, Reg::T1));
            a.csrr(Reg::A2, safedm_isa::csr::addr::MSCRATCH);
            a.ebreak();
        });
        let core = soc.core(0);
        assert_eq!([core.reg(Reg::A0), core.reg(Reg::A1), core.reg(Reg::A2)], [0, 5, 9]);
    }

    #[test]
    fn mul_and_div_latency_ordering() {
        // A divide-heavy loop takes longer than a multiply-heavy one.
        let time = |kind: &str| {
            let mut a = Asm::new();
            a.li(Reg::T1, 1000);
            a.li(Reg::T2, 3);
            a.li(Reg::T0, 200);
            let top = a.here("top");
            match kind {
                "mul" => {
                    a.mul(Reg::T3, Reg::T1, Reg::T2);
                }
                _ => {
                    a.div(Reg::T3, Reg::T1, Reg::T2);
                }
            };
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.ebreak();
            let prog = a.link(0x8000_0000).unwrap();
            let cfg = SocConfig { cores: 1, ..SocConfig::default() };
            let mut soc = MpSoc::new(cfg);
            soc.load_program(&prog);
            let r = soc.run(1_000_000);
            assert!(r.all_clean());
            r.cycles
        };
        let mul_cycles = time("mul");
        let div_cycles = time("div");
        assert!(
            div_cycles > mul_cycles + 1000,
            "div latency must dominate: {div_cycles} vs {mul_cycles}"
        );
    }

    #[test]
    fn flip_stage_result_only_lands_on_present_results() {
        let cfg = SocConfig::default();
        let mut core = Core::new(0, &cfg);
        assert!(!core.flip_stage_result_bit(3, 0, 5), "empty pipeline has no latches");
        assert_eq!(core.peek_stage_result(3, 0), None);
    }

    #[test]
    fn reset_preserves_code_range_and_clears_state() {
        let cfg = SocConfig::default();
        let mut core = Core::new(0, &cfg);
        let mut a = Asm::new();
        a.nop();
        a.ebreak();
        let mut mem = crate::MainMemory::new(cfg.ram_base, cfg.ram_size);
        core.set_text(Arc::new(Text::load(&cfg, &mut mem, &a.link(0x8000_0000).unwrap())));
        core.set_reg(Reg::A0, 99);
        core.reset(0x8000_0004);
        assert!(core.in_code(0x8000_0004) && !core.in_code(0x8000_0008));
        assert_eq!(core.reg(Reg::A0), 0);
        assert!(!core.halted());
        assert_eq!(core.stats(), CoreStats::default());
    }

    #[test]
    fn external_stall_probe_is_hold() {
        let mut a = Asm::new();
        a.li(Reg::T0, 100);
        let top = a.here("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let prog = a.link(0x8000_0000).unwrap();
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let mut soc = MpSoc::new(cfg);
        soc.load_program(&prog);
        for _ in 0..60 {
            soc.step();
        }
        soc.core_mut(0).set_external_stall(true);
        soc.step();
        assert!(soc.probe(0).hold, "stalled core must assert hold");
        assert_eq!(soc.probe(0).committed, 0);
    }

    #[test]
    fn commit_trace_records_in_order_with_values() {
        let mut a = Asm::new();
        a.li(Reg::T0, 7);
        a.addi(Reg::T1, Reg::T0, 1);
        a.ebreak();
        let prog = a.link(0x8000_0000).unwrap();
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let mut soc = MpSoc::new(cfg);
        soc.load_program(&prog);
        soc.core_mut(0).enable_commit_trace(16);
        assert!(soc.run(100_000).all_clean());
        let trace = soc.core_mut(0).take_commit_trace();
        assert_eq!(trace.len(), 3);
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert_eq!(trace[0].pc, 0x8000_0000);
        assert_eq!(trace[0].value, Some(7));
        assert_eq!(trace[1].value, Some(8));
        assert_eq!(trace[2].rd, None); // ebreak
        let line = trace[1].to_string();
        assert!(line.contains("addi t1, t0, 1"), "{line}");
        assert!(line.contains("t1 <- 0x8"), "{line}");
    }

    #[test]
    fn commit_trace_is_bounded() {
        let mut a = Asm::new();
        a.li(Reg::T0, 100);
        let top = a.here("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let prog = a.link(0x8000_0000).unwrap();
        let cfg = SocConfig { cores: 1, ..SocConfig::default() };
        let trace_of = |capacity: usize| {
            let mut soc = MpSoc::new(cfg.clone());
            soc.load_program(&prog);
            soc.core_mut(0).enable_commit_trace(capacity);
            assert!(soc.run(100_000).all_clean());
            soc.core_mut(0).take_commit_trace()
        };
        let trace = trace_of(10);
        assert_eq!(trace.len(), 10, "ring keeps only the newest");
        // the last record is the ebreak
        assert!(trace.last().unwrap().to_string().contains("ebreak"));
        // The kept records are the last ten of an unbounded trace, oldest
        // first.
        let full = trace_of(1_000);
        assert!((200..1_000).contains(&full.len()), "two records per loop iteration");
        assert_eq!(trace[..], full[full.len() - 10..]);
    }

    #[test]
    fn misaligned_jalr_target_clears_low_bit() {
        // jalr clears bit 0 per the ISA; jumping to text+2 would misalign
        // and trap, but text+1 is rounded down to text.
        let soc = run_core(|a| {
            let target = a.new_label("target");
            a.la(Reg::T0, target);
            a.addi(Reg::T0, Reg::T0, 1); // odd address
            a.li(Reg::A0, 0);
            a.jalr(Reg::RA, Reg::T0, 0); // lands on `target` (bit 0 cleared)
            a.bind(target).unwrap();
            a.addi(Reg::A0, Reg::A0, 5);
            a.ebreak();
        });
        assert_eq!(soc.core(0).reg(Reg::A0), 5);
    }
}
