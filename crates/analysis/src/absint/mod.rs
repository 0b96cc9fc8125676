//! Abstract-interpretation diversity prover.
//!
//! A worklist fixpoint over the [`Cfg`] with three composable abstract
//! domains:
//!
//! * [`interval::Interval`] — value ranges with widening/narrowing, used to
//!   exclude wrap-around so the congruence arithmetic is valid;
//! * [`congruence::Congruence`] — `value ≡ r (mod m)`, the residue facts
//!   that decide FIFO-period collisions;
//! * [`stagger::DeltaState`] — the relational core-1-minus-core-0 register
//!   deltas plus the memory-mirror flag.
//!
//! From the fixpoint the prover emits a three-valued [`Verdict`] per program
//! point and a [`LoopCertificate`] per natural loop carrying the minimum
//! staggering (in committed instructions of *effective* inter-core delta)
//! for which diversity is proved — or `None` with the refuting witness.
//!
//! ## The model behind the verdicts
//!
//! Both cores execute the same binary from the same reset state, so their
//! committed instruction streams are identical and the data-signature FIFO
//! of the delayed core observes the *same sample sequence* shifted by the
//! effective stagger. Collision verdicts are *existential* (at least one
//! no-diversity cycle must be observed while both cores execute the region):
//! either the cores are in lockstep (effective stagger 0 and every read
//! provably delta-zero), or an iteration-invariant traffic pattern re-aligns
//! because the stagger is ≡ 0 modulo the pattern's rotation period. Diverse
//! verdicts are *universal* (no no-diversity cycle may occur while both
//! cores are warmed up inside the region): every instruction of the loop
//! body reads a provably iteration-injective value, so any non-zero window
//! alignment compares distinct counter states. The dual-issue front end
//! quantises the alignment in groups of up to two instructions, which is why
//! certificates start at an effective delta of 2, and the grouping-alignment
//! argument is machine-checked by the `prove_soundness` harness across the
//! full kernels × staggers grid.
//!
//! ## Interprocedural composition
//!
//! [`prove`] first builds the whole-program call graph
//! ([`crate::callgraph::CallGraph`]) and its bottom-up function summaries
//! ([`crate::summary::FnSummary`]), then uses them in two places. The
//! fixpoint applies each callee's [`CallEffect`] along the call's
//! fall-through edge — only the may-clobber set havocs, a provably balanced
//! callee preserves the caller's `sp` facts, a returning callee preserves
//! `ra`, and a CSR-free callee with delta-zero inputs and a mirrored memory
//! preserves the relational state (identical inputs drive identical
//! execution on both cores). Loop certification splices composable
//! (straight-line leaf) callee bodies into the iteration's committed stream,
//! so loops containing calls are certified over their *true* commit sequence
//! instead of refuted at the call. Without summaries
//! ([`AbsInt::compute`]), every call fall-through conservatively havocs the
//! whole state.
//!
//! ## Findings
//!
//! [`prove`] emits every single-program finding, all from the facts above:
//! DIV001 from the iteration-invariant branch of a loop certificate (the
//! period is the re-alignment period `lcm(ds_period, is_period)`), DIV002
//! from the identical-word sleds found in one pass over the points, DIV003
//! from a loop's data-independent committed stream in the delta domain,
//! DIV004 from checking DIV001/DIV002 against the effective stagger, and
//! DIV005–DIV008 from the verdicts and certificates. The
//! [`AnalysisConfig::levels`] overrides apply once, to the whole list.

pub mod congruence;
pub mod interval;
pub mod pair;
pub mod stagger;

use std::fmt;

use safedm_isa::csr::addr::MHARTID;
use safedm_isa::{abs_transfer, call_return_transfer, AbsValue, AluKind, Inst, Reg};

use crate::cfg::{Cfg, DecodedProgram, NaturalLoop};
use crate::dataflow::{invariant_mask, ConstProp};
use crate::diag::{Diagnostic, LintCode, PcSpan, Severity};
use crate::summary::{CallEffect, Interproc};
use crate::AnalysisConfig;

pub use congruence::Congruence;
pub use interval::Interval;
pub use pair::{prove_pair, PairCertificate, PairReport};
pub use stagger::{Delta, DeltaState};

// ---------------------------------------------------------------------------
// The product value domain
// ---------------------------------------------------------------------------

/// Reduced product of the interval and congruence domains. The interval half
/// gates the congruence transfer: a non-constant congruence result is only
/// kept when the interval proves the machine operation did not wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abs {
    /// Range information.
    pub itv: Interval,
    /// Residue information.
    pub cong: Congruence,
}

impl Abs {
    /// The full value set.
    pub const TOP: Abs = Abs { itv: Interval::TOP, cong: Congruence::TOP };

    /// The single member, when either half pins one down.
    #[must_use]
    pub fn as_const(&self) -> Option<u64> {
        self.itv.as_const().or_else(|| self.cong.as_const())
    }

    /// Whether `v` is a member of both halves.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        self.itv.contains(v) && self.cong.contains(v)
    }

    /// Pointwise least upper bound.
    #[must_use]
    pub fn join(&self, other: &Abs) -> Abs {
        Abs { itv: self.itv.join(&other.itv), cong: self.cong.join(&other.cong) }
    }

    /// Widening: intervals widen, congruences join (their chains are finite).
    #[must_use]
    pub fn widen(&self, next: &Abs) -> Abs {
        Abs { itv: self.itv.widen(&next.itv), cong: self.cong.join(&next.cong) }
    }
}

impl AbsValue for Abs {
    fn top() -> Abs {
        Abs::TOP
    }

    fn constant(c: u64) -> Abs {
        Abs { itv: Interval::constant(c), cong: Congruence::constant(c) }
    }

    fn alu(kind: AluKind, a: &Abs, b: &Abs) -> Abs {
        let itv = Interval::alu(kind, &a.itv, &b.itv);
        // Congruences are integer facts; they only survive machine
        // arithmetic when it provably does not wrap (or when both operands
        // are constants — wrapping constants track the machine exactly).
        let wrap_sensitive =
            matches!(kind, AluKind::Add | AluKind::Sub | AluKind::Mul | AluKind::Sll);
        let both_const = a.as_const().is_some() && b.as_const().is_some();
        let cong = if !wrap_sensitive || both_const || !itv.is_top() {
            Congruence::alu(kind, &a.cong, &b.cong)
        } else {
            Congruence::TOP
        };
        Abs { itv, cong }
    }

    fn csr(csr: u16) -> Abs {
        if csr == MHARTID {
            // Two harts: the value is 0 or 1 on this platform.
            Abs { itv: Interval { lo: 0, hi: 1 }, cong: Congruence::TOP }
        } else {
            Abs::TOP
        }
    }
}

// ---------------------------------------------------------------------------
// The fixpoint state and engine
// ---------------------------------------------------------------------------

/// Abstract machine state at a program point: per-register product values
/// plus the relational inter-core deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// `regs[i]` abstracts `x{i}` (index 0 is pinned to constant 0).
    pub regs: [Abs; 32],
    /// Relational inter-core state.
    pub delta: DeltaState,
}

impl AbsState {
    /// The platform reset state: zeroed registers, mirrored memories.
    #[must_use]
    pub fn reset() -> AbsState {
        AbsState { regs: [Abs::constant(0); 32], delta: DeltaState::equal() }
    }

    /// The abstract value of one register.
    #[must_use]
    pub fn get(&self, r: Reg) -> Abs {
        if r.is_zero() {
            Abs::constant(0)
        } else {
            self.regs[r.index() as usize]
        }
    }

    fn join(&self, other: &AbsState) -> AbsState {
        let mut regs = [Abs::TOP; 32];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = self.regs[i].join(&other.regs[i]);
        }
        AbsState { regs, delta: self.delta.join(&other.delta) }
    }

    fn widen(&self, next: &AbsState) -> AbsState {
        let mut regs = [Abs::TOP; 32];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = self.regs[i].widen(&next.regs[i]);
        }
        AbsState { regs, delta: self.delta.join(&next.delta) }
    }

    /// Applies one instruction to both halves of the state.
    pub fn transfer(&mut self, pc: u64, inst: &Inst) {
        if let Some((rd, v)) = abs_transfer::<Abs>(inst, pc, |r| self.get(r)) {
            self.regs[rd.index() as usize] = v;
        }
        self.delta.transfer(pc, inst);
    }
}

/// The fixpoint solution: one abstract state per basic-block entry
/// (`None` = block unreachable from the entry point).
#[derive(Debug, Clone)]
pub struct AbsInt {
    /// Per-block entry states.
    pub block_in: Vec<Option<AbsState>>,
}

impl AbsInt {
    /// Runs the worklist fixpoint with widening at natural-loop headers.
    ///
    /// No interprocedural summaries: every call fall-through edge applies
    /// the worst-case [`CallEffect`] (full havoc, broken memory mirror). Use
    /// [`AbsInt::compute_with_summaries`] for the summary-refined fixpoint.
    #[must_use]
    pub fn compute(prog: &DecodedProgram, cfg: &Cfg) -> AbsInt {
        AbsInt::compute_with_summaries(prog, cfg, None)
    }

    /// The worklist fixpoint with per-callee [`CallEffect`]s applied along
    /// call fall-through edges: only the callee's may-clobber set havocs, a
    /// provably balanced callee preserves the caller's `sp` facts, a
    /// returning callee preserves `ra`, and a CSR-free callee with
    /// delta-zero inputs preserves the relational state.
    #[must_use]
    pub fn compute_with_summaries(
        prog: &DecodedProgram,
        cfg: &Cfg,
        ipo: Option<&Interproc>,
    ) -> AbsInt {
        let nb = cfg.blocks.len();
        let mut block_in: Vec<Option<AbsState>> = vec![None; nb];
        let mut joins = vec![0u32; nb];
        let is_header: Vec<bool> =
            (0..nb).map(|b| cfg.loops.iter().any(|l| l.header == b)).collect();
        // Joins at a header beyond this trip widening kicks in. Two passes
        // are enough to discover a counter's step before the range widens.
        const WIDEN_AFTER: u32 = 2;
        // Irreducible cycles have no natural-loop header to widen at, yet a
        // counter inside one still climbs the interval lattice one step per
        // pass. Any block re-joined this often is on some cycle: widen there
        // too so the fixpoint terminates (reducible code never gets near
        // this count, so precision is unaffected).
        const WIDEN_AFTER_ANY: u32 = 16;

        let Some(entry) = cfg.entry_block else { return AbsInt { block_in } };
        block_in[entry] = Some(AbsState::reset());
        let mut worklist = vec![entry];
        while let Some(b) = worklist.pop() {
            let Some(mut state) = block_in[b].clone() else { continue };
            let blk = &cfg.blocks[b];
            for i in blk.start..blk.end {
                if let Some(inst) = prog.slots[i].inst {
                    state.transfer(prog.slots[i].pc, &inst);
                }
            }
            // A linking jump's fall-through successor is the abstract return
            // edge: the callee runs in between, so its effect applies there
            // (and only there — the edge into the callee sees the post-call
            // state as-is).
            let last = blk.end.wrapping_sub(1);
            let is_call = blk.end > blk.start
                && matches!(
                    prog.slots[last].inst,
                    Some(Inst::Jal { rd, .. } | Inst::Jalr { rd, .. }) if !rd.is_zero()
                );
            for &s in &blk.succs {
                let mut out = state.clone();
                if is_call && cfg.blocks[s].start == blk.end {
                    let eff = ipo.map_or_else(CallEffect::unknown, |i| i.effect_for_slot(last));
                    apply_call_return(&mut out, &eff);
                }
                let merged = match &block_in[s] {
                    None => out,
                    Some(old) => {
                        let joined = old.join(&out);
                        let widen_at = if is_header[s] { WIDEN_AFTER } else { WIDEN_AFTER_ANY };
                        if joins[s] >= widen_at {
                            old.widen(&joined)
                        } else {
                            joined
                        }
                    }
                };
                if block_in[s].as_ref() != Some(&merged) {
                    joins[s] += 1;
                    block_in[s] = Some(merged);
                    worklist.push(s);
                }
            }
        }
        AbsInt { block_in }
    }
}

/// Applies a callee's abstract effect to the caller's state at the call's
/// fall-through point.
///
/// The value half delegates to [`call_return_transfer`]. The relational half
/// rests on a relational argument about the two cores: when the callee is
/// transitively CSR-free, the memory mirror is intact and every register the
/// callee may read is provably delta-zero, both cores feed the callee
/// identical inputs and therefore execute it identically — every output is
/// delta-zero and the mirror survives (may-clobbered registers join with
/// [`Delta::Zero`], covering not-actually-written paths). Otherwise the
/// callee may diverge: clobbered deltas become unknown — except `sp`, whose
/// delta is preserved when the callee nets the same statically-known
/// adjustment on every path of either core, and `ra`, which on a returning
/// callee still holds the (equal) link value the call wrote — and the mirror
/// only survives a provably store-free callee.
fn apply_call_return(st: &mut AbsState, eff: &CallEffect) {
    let old = st.regs;
    call_return_transfer::<Abs>(
        eff.clobbers,
        eff.sp_delta,
        eff.ra_restored,
        |r| old[r.index() as usize],
        |r, v| st.regs[r.index() as usize] = v,
    );

    let inputs_equal = eff.csr_free
        && st.delta.mem_equal
        && (1..32).all(|i| eff.uses & (1 << i) == 0 || st.delta.regs[i].is_zero());
    for i in 1..32 {
        if eff.clobbers & (1 << i) == 0 {
            continue;
        }
        if inputs_equal {
            st.delta.regs[i] = st.delta.regs[i].join(&Delta::Zero);
        } else if i == Reg::SP.index() as usize && eff.sp_delta.is_some() {
            // sp' = sp + d on every path of either core: the delta carries.
        } else if i == Reg::RA.index() as usize && eff.ra_restored {
            // ra still holds the link value, equal on both cores.
        } else {
            st.delta.regs[i] = Delta::Unknown;
        }
    }
    if !inputs_equal && eff.may_store {
        st.delta.mem_equal = false;
    }
}

// ---------------------------------------------------------------------------
// Verdicts and certificates
// ---------------------------------------------------------------------------

/// Three-valued diversity verdict for a program point at the configured
/// staggering.
///
/// Both proved verdicts carry a precondition a monitored run can observe,
/// and [`crate::SoundnessGuard`] checks each claim on exactly the cycles
/// that meet it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Existential claim: at least one no-diversity cycle among the
    /// monitored cycles in which both cores' last commits lie inside the
    /// region at the stream lead the verdict assumes. The stream lead is
    /// how many instructions of the shared stream core 0 has committed
    /// ahead of core 1 (the effective stagger plus the monitor's
    /// committed-instruction stagger); a lockstep claim assumes a lead of
    /// 0, an iteration-invariant loop any lead ≡ 0 modulo its re-alignment
    /// period. The claim does not always hold: at stagger 0 four lockstep
    /// loop regions of `filterbank` meet the precondition (in 26 to 426
    /// cycles each) without a single no-diversity cycle, so the guard
    /// reports such regions and fails a run only for a DIV001/DIV002 one.
    ProvedCollision,
    /// Universal claim: no no-diversity cycle once both cores' last commits
    /// have stayed inside the region for `2 * fifo_depth` consecutive
    /// monitored cycles (both signature FIFOs then hold only in-region
    /// traffic); machine-checked by the soundness harness.
    ProvedDiverse,
    /// Neither direction is proved.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::ProvedCollision => "proved-collision",
            Verdict::ProvedDiverse => "proved-diverse",
            Verdict::Unknown => "unknown",
        })
    }
}

/// Per-loop result: the minimum staggering for which diversity is proved, or
/// the witness refuting provability.
#[derive(Debug, Clone)]
pub struct LoopCertificate {
    /// PC of the loop header.
    pub header_pc: u64,
    /// The loop body region.
    pub span: PcSpan,
    /// Body spans of composable callees spliced into the iteration stream:
    /// together with `span`, every PC one iteration's committed stream can
    /// occupy. Empty for call-free loops (and when splicing was refuted).
    pub callee_spans: Vec<PcSpan>,
    /// Committed instructions per iteration, for single-path bodies.
    pub body_len: Option<u64>,
    /// Minimal rotation period of the data-signature traffic pattern, for
    /// iteration-invariant loops (collisions at stagger ≡ 0 mod this).
    pub ds_period: Option<u64>,
    /// Minimal rotation period of the instruction (opcode) sequence.
    pub is_period: Option<u64>,
    /// Smallest effective inter-core delta (committed instructions) for
    /// which diversity is proved, or `None` when no stagger is provably
    /// safe.
    pub min_safe_stagger: Option<u64>,
    /// Why no certificate exists, when `min_safe_stagger` is `None`.
    pub witness: Option<String>,
    /// The verdict at the configured staggering.
    pub verdict: Verdict,
    /// The committed stream (spliced callees included) reads no load or
    /// CSR value and every read is provably delta-zero: both cores compute
    /// identical register traffic, whatever the stagger.
    pub data_independent: bool,
}

impl LoopCertificate {
    /// Every PC one iteration's committed stream can occupy: the loop span
    /// plus each spliced callee-body span. A run-time check of the verdict
    /// must watch the whole union.
    #[must_use]
    pub(crate) fn region(&self) -> Vec<PcSpan> {
        let mut region = vec![self.span];
        region.extend(self.callee_spans.iter().copied());
        region
    }

    /// The re-alignment period `lcm(ds_period, is_period)` of an
    /// iteration-invariant loop: any stream lead that is a multiple of it
    /// re-aligns identical signature windows. `None` for other loops.
    #[must_use]
    pub(crate) fn realign_period(&self) -> Option<u64> {
        self.ds_period.map(|ds| lcm(ds, self.is_period.unwrap_or(ds)))
    }

    /// One-line rendering used by reports and golden summaries.
    #[must_use]
    pub fn summary(&self) -> String {
        let cert = match self.min_safe_stagger {
            Some(m) => format!("min-safe-stagger={m}"),
            None => "min-safe-stagger=none".to_owned(),
        };
        let mut line = format!(
            "loop {:#x} [{}] {} verdict={}",
            self.header_pc,
            self.body_len.map_or("irregular".to_owned(), |n| format!("{n} insts/iter")),
            cert,
            self.verdict
        );
        if let Some(p) = self.ds_period {
            line.push_str(&format!(" ds-period={p}"));
        }
        if let Some(p) = self.is_period {
            line.push_str(&format!(" is-period={p}"));
        }
        if !self.callee_spans.is_empty() {
            let spans: Vec<String> = self.callee_spans.iter().map(ToString::to_string).collect();
            line.push_str(&format!(" spliced-callees={}", spans.join(",")));
        }
        if let Some(w) = &self.witness {
            line.push_str(&format!(" witness: {w}"));
        }
        line
    }
}

/// A straight-line run of at least `pipeline_slots` identical decodable
/// instruction words (DIV002): below its minimum safe stagger both
/// pipelines hold only its opcode.
#[derive(Debug, Clone)]
pub struct Sled {
    /// The run of identical words.
    pub span: PcSpan,
    /// The repeated instruction.
    pub inst: Inst,
    /// Smallest stagger (committed instructions) clearing the collision:
    /// `len - pipeline_slots + 1`.
    pub min_safe_stagger: u64,
    /// `ProvedCollision` when every point of the sled is, else `Unknown`.
    pub verdict: Verdict,
}

/// Everything the prover learned about one program at one configuration.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// Per-slot verdicts, parallel to `DecodedProgram::slots`.
    pub points: Vec<Verdict>,
    /// Per-natural-loop certificates, in `Cfg::loops` order.
    pub certificates: Vec<LoopCertificate>,
    /// Identical-instruction sleds, in address order.
    pub sleds: Vec<Sled>,
    /// DIV001–DIV008 findings, sorted by address then code, with the
    /// [`AnalysisConfig::levels`] overrides applied.
    pub diagnostics: Vec<Diagnostic>,
    /// The effective inter-core committed-instruction delta the verdicts are
    /// for (configured nops plus the harness phase correction).
    pub effective_stagger: i64,
}

impl ProveReport {
    /// Count of points with the given verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.points.iter().filter(|p| **p == v).count()
    }

    /// The one-line machine-comparable summary used by the golden test.
    #[must_use]
    pub fn summary_line(&self, name: &str) -> String {
        let mut certs: Vec<String> = self.certificates.iter().map(|c| c.summary()).collect();
        certs.sort();
        format!(
            "{name} stagger={} points={} collision={} diverse={} unknown={} | {}",
            self.effective_stagger,
            self.points.len(),
            self.count(Verdict::ProvedCollision),
            self.count(Verdict::ProvedDiverse),
            self.count(Verdict::Unknown),
            if certs.is_empty() { "no loops".to_owned() } else { certs.join("; ") }
        )
    }

    /// Renders the certificates and diagnostics, rustc style.
    #[must_use]
    pub fn render(&self, prog: &DecodedProgram, snippet_lines: usize) -> String {
        use fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(prog, snippet_lines));
            out.push('\n');
        }
        let _ = writeln!(out, "certificates (effective stagger {}):", self.effective_stagger);
        if self.certificates.is_empty() {
            let _ = writeln!(out, "  (no natural loops)");
        }
        for c in &self.certificates {
            let _ = writeln!(out, "  {}", c.summary());
        }
        let _ = writeln!(
            out,
            "prove: {} points: {} proved-collision, {} proved-diverse, {} unknown",
            self.points.len(),
            self.count(Verdict::ProvedCollision),
            self.count(Verdict::ProvedDiverse),
            self.count(Verdict::Unknown),
        );
        out
    }
}

// ---------------------------------------------------------------------------
// The prover
// ---------------------------------------------------------------------------

/// Effective inter-core committed-instruction delta for a configuration:
/// the configured sled nops plus the harness phase correction
/// ([`AnalysisConfig::stagger_phase`]); 0 when no staggering is configured.
#[must_use]
pub fn effective_stagger(config: &AnalysisConfig) -> i64 {
    match config.stagger_nops {
        None => 0,
        Some(n) => (n as i64).saturating_add(config.stagger_phase),
    }
}

/// Runs the abstract-interpretation prover on a decoded program.
#[must_use]
pub fn prove(prog: &DecodedProgram, cfg: &Cfg, config: &AnalysisConfig) -> ProveReport {
    let constprop = ConstProp::compute(prog, cfg);
    let ipo = Interproc::compute(prog, cfg, &constprop);
    let absint = AbsInt::compute_with_summaries(prog, cfg, Some(&ipo));
    let s_eff = effective_stagger(config);

    let certificates: Vec<LoopCertificate> = cfg
        .loops
        .iter()
        .map(|lp| certify_loop(prog, cfg, lp, &absint, &ipo, config, s_eff))
        .collect();

    // Per-point verdicts: points inside a loop inherit the innermost
    // (smallest) enclosing loop's verdict; straight-line points are proved
    // colliding only in the delta-zero lockstep case.
    let mut points = vec![Verdict::Unknown; prog.slots.len()];
    // Lockstep collisions presuppose both cores committing the *same*
    // stream; a twin pair (pair_mode) runs two different copies, so the
    // delta-zero claim is off the table there.
    if s_eff == 0 && !config.pair_mode {
        lockstep_points(prog, cfg, &absint, &mut points);
    }
    let mut order: Vec<usize> = (0..certificates.len()).collect();
    // Larger loops first so inner loops overwrite their enclosing ones.
    order.sort_by_key(|&i| std::cmp::Reverse(cfg.loops[i].blocks.len()));
    for i in order {
        let lp = &cfg.loops[i];
        if certificates[i].verdict == Verdict::Unknown {
            continue;
        }
        for &bid in &lp.blocks {
            points[cfg.blocks[bid].start..cfg.blocks[bid].end].fill(certificates[i].verdict);
        }
    }

    let sleds = find_sleds(prog, cfg, config, &points);
    let diagnostics = config.levels.apply(prove_lints(config, &certificates, &sleds, s_eff));
    ProveReport { points, certificates, sleds, diagnostics, effective_stagger: s_eff }
}

/// Finds the identical-instruction sleds: per basic block, every maximal
/// run of identical decodable words at least `pipeline_slots` long. The
/// rule adds no point verdict; a sled is `ProvedCollision` exactly when the
/// lockstep rule already marked all of its points.
fn find_sleds(
    prog: &DecodedProgram,
    cfg: &Cfg,
    config: &AnalysisConfig,
    points: &[Verdict],
) -> Vec<Sled> {
    let mut sleds = Vec::new();
    for b in &cfg.blocks {
        let mut i = b.start;
        while i < b.end {
            let run = (i..b.end)
                .take_while(|&j| {
                    prog.slots[j].inst.is_some() && prog.slots[j].raw == prog.slots[i].raw
                })
                .count();
            if let Some(inst) = prog.slots[i].inst.filter(|_| run >= config.pipeline_slots) {
                let collide = points[i..i + run].iter().all(|&v| v == Verdict::ProvedCollision);
                sleds.push(Sled {
                    span: PcSpan { start: prog.pc_of(i), end: prog.pc_of(i + run) },
                    inst,
                    min_safe_stagger: (run - config.pipeline_slots + 1) as u64,
                    verdict: if collide { Verdict::ProvedCollision } else { Verdict::Unknown },
                });
            }
            i += run.max(1);
        }
    }
    sleds
}

/// Marks straight-line lockstep points: with an effective delta of 0, any
/// instruction whose reads are all provably delta-zero (with the memory
/// mirror intact) samples identical port traffic on both cores; since both
/// cores also sit at the same point of the same stream, the signature
/// windows coincide — a collision whenever the point executes.
fn lockstep_points(prog: &DecodedProgram, cfg: &Cfg, absint: &AbsInt, points: &mut [Verdict]) {
    for b in &cfg.blocks {
        let Some(state) = &absint.block_in[b.id] else { continue };
        let mut st = state.clone();
        for (i, point) in points.iter_mut().enumerate().take(b.end).skip(b.start) {
            let Some(inst) = prog.slots[i].inst else { continue };
            let reads_equal =
                [inst.rs1(), inst.rs2()].into_iter().flatten().all(|r| st.delta.get(r).is_zero());
            if reads_equal && st.delta.mem_equal {
                *point = Verdict::ProvedCollision;
            }
            st.transfer(prog.slots[i].pc, &inst);
        }
    }
}

/// The unique single-path body sequence of a deterministic loop, as slot
/// indices in execution order starting at the header.
fn body_sequence(cfg: &Cfg, lp: &NaturalLoop) -> Option<Vec<usize>> {
    let mut seq = Vec::with_capacity(lp.insts);
    let mut bid = lp.header;
    let mut visited = 0usize;
    loop {
        let b = &cfg.blocks[bid];
        seq.extend(b.start..b.end);
        let mut inside = b.succs.iter().filter(|s| lp.blocks.contains(s));
        let next = *inside.next()?;
        if inside.next().is_some() {
            return None; // not single-path
        }
        if next == lp.header {
            return Some(seq);
        }
        visited += 1;
        if visited > lp.blocks.len() {
            return None; // guards a malformed loop set
        }
        bid = next;
    }
}

/// Minimal `p` dividing `len` such that the sequence equals itself rotated
/// by `p`, under the supplied provable-equality predicate.
fn rotation_period<T>(seq: &[T], eq: impl Fn(&T, &T) -> bool) -> u64 {
    let len = seq.len();
    for p in 1..len {
        if len.is_multiple_of(p) && (0..len).all(|k| eq(&seq[k], &seq[(k + p) % len])) {
            return p as u64;
        }
    }
    len.max(1) as u64
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    a / gcd(a, b) * b
}

/// Phase-independent tag of one register read, for rotation comparison of
/// data-signature traffic. Only tags that denote the *same sample value at
/// every occurrence of the instruction* may compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValTag {
    /// The read always samples this constant.
    Const(u64),
    /// The read samples a register never written inside the loop.
    Fixed(Reg),
    /// Anything else.
    Opaque,
}

impl ValTag {
    fn provably_equal(&self, other: &ValTag) -> bool {
        match (self, other) {
            (ValTag::Const(a), ValTag::Const(b)) => a == b,
            (ValTag::Fixed(a), ValTag::Fixed(b)) => a == b,
            _ => false,
        }
    }
}

/// For each body position, whether the instruction reads at least one
/// provably *iteration-injective* value: a value distinct at every dynamic
/// occurrence of that position within one loop execution.
///
/// Seeds are single-def `addi r, r, step` counters (`step != 0`), injective
/// at every point of the body (a read before the def observes the previous
/// iteration's value — still distinct per iteration). The walk then tracks
/// injectivity through *values*, not register names, so multi-def chains
/// like `slli t1, t0, 3; add t1, t1, s0` stay injective: each def of a
/// register marks it injective exactly when it is an injective function of
/// a currently-injective value and loop-fixed operands (`defined` is the
/// in-loop def mask). Distinctness is modulo 2^64 and relies on iteration
/// counts being far below 2^34 (bounded by the cycle budget), which keeps
/// `k * step` and bounded left shifts away from wrap-around.
///
/// Flags entering the header come from the previous iteration, so the walk
/// repeats until the header-entry set stabilises (bounded by the register
/// count); if it somehow does not, the seeds-only fallback is sound.
fn injective_read_flags(prog: &DecodedProgram, body: &[usize], defined: u32) -> Vec<bool> {
    // Seeds: self-stepped counters with exactly one in-loop def.
    let mut def_count = [0u8; 32];
    let mut seeds = 0u32;
    for &s in body {
        let Some(inst) = prog.slots[s].inst else { continue };
        if let Some(rd) = inst.rd() {
            def_count[rd.index() as usize] = def_count[rd.index() as usize].saturating_add(1);
        }
    }
    for &s in body {
        if let Some(Inst::OpImm { kind: AluKind::Add, rd, rs1, imm }) = prog.slots[s].inst {
            if rd == rs1 && imm != 0 && !rd.is_zero() && def_count[rd.index() as usize] == 1 {
                seeds |= rd.bit();
            }
        }
    }

    let fixed = |x: Reg| x.bit() & defined == 0; // never written in the loop
    let step = |inj: u32, inst: &Inst| -> u32 {
        let Some(rd) = inst.rd() else { return inj };
        if seeds & rd.bit() != 0 {
            return inj | rd.bit(); // the counter's own step keeps it injective
        }
        let derived = match *inst {
            Inst::OpImm { kind: AluKind::Add | AluKind::Xor, rs1, .. } => inj & rs1.bit() != 0,
            Inst::OpImm { kind: AluKind::Sll, rs1, imm, .. } => {
                inj & rs1.bit() != 0 && (0..=30).contains(&imm)
            }
            Inst::Op { kind: AluKind::Add | AluKind::Xor | AluKind::Sub, rs1, rs2, .. } => {
                (inj & rs1.bit() != 0 && fixed(rs2)) || (inj & rs2.bit() != 0 && fixed(rs1))
            }
            _ => false,
        };
        if derived {
            inj | rd.bit()
        } else {
            inj & !rd.bit()
        }
    };

    // Least fixpoint of the header-entry flag set: `step` is monotone in
    // `inj` and preserves the seeds (their single def re-derives them), so
    // iterating from the seeds grows monotonically and converges within 32
    // rounds. Every flag in the fixpoint carries a derivation chain grounded
    // in a seed counter, which is the inductive soundness argument.
    let mut entry = seeds;
    for _ in 0..33 {
        let mut inj = entry;
        for &s in body {
            if let Some(inst) = prog.slots[s].inst {
                inj = step(inj, &inst);
            }
        }
        let next = inj | seeds;
        if next == entry {
            break;
        }
        entry = next;
    }

    let mut inj = entry;
    body.iter()
        .map(|&s| match prog.slots[s].inst {
            None => false,
            Some(inst) => {
                let ok = inst.use_mask() & inj != 0;
                inj = step(inj, &inst);
                ok
            }
        })
        .collect()
}

/// Builds the certificate and configured-stagger verdict for one loop.
fn certify_loop(
    prog: &DecodedProgram,
    cfg: &Cfg,
    lp: &NaturalLoop,
    absint: &AbsInt,
    ipo: &Interproc,
    config: &AnalysisConfig,
    s_eff: i64,
) -> LoopCertificate {
    let start = lp.blocks.iter().map(|&b| cfg.blocks[b].start).min().unwrap_or(0);
    let end = lp.blocks.iter().map(|&b| cfg.blocks[b].end).max().unwrap_or(0);
    let span = PcSpan { start: prog.pc_of(start), end: prog.pc_of(end) };
    let header_pc = prog.pc_of(cfg.blocks[lp.header].start);

    let mut cert = LoopCertificate {
        header_pc,
        span,
        callee_spans: Vec::new(),
        body_len: None,
        ds_period: None,
        is_period: None,
        min_safe_stagger: None,
        witness: None,
        verdict: Verdict::Unknown,
        data_independent: false,
    };

    // Lockstep collision applies to any loop shape: with effective delta 0
    // and every read provably equal across cores, the windows coincide.
    // Both collision arguments presuppose the cores committing the *same*
    // stream, which a twin pair (pair_mode) does not.
    let reads_equal = loop_reads_delta_zero(prog, cfg, lp, absint, ipo);
    cert.data_independent = reads_equal && stream_reads_no_input(prog, cfg, lp, ipo);
    let lockstep = s_eff == 0 && !config.pair_mode && reads_equal;

    let Some(body) = body_sequence(cfg, lp) else {
        cert.witness = Some("irregular control flow: the body is not a single path".into());
        if lockstep {
            cert.verdict = Verdict::ProvedCollision;
        }
        return cert;
    };
    // Splice composable callee bodies into the sequence: the certificate
    // arguments quantify over the exact committed stream of one iteration,
    // which includes every callee activation.
    let body = match splice_calls(prog, &body, ipo) {
        Ok((b, callee_spans)) => {
            cert.callee_spans = callee_spans;
            b
        }
        Err(w) => {
            cert.witness = Some(w);
            if lockstep {
                cert.verdict = Verdict::ProvedCollision;
            }
            return cert;
        }
    };
    let body_insts: Vec<Inst> = match body.iter().map(|&s| prog.slots[s].inst).collect() {
        Some(v) => v,
        None => {
            cert.witness = Some("undecodable instruction in the body".into());
            return cert;
        }
    };
    let len = body_insts.len() as u64;
    cert.body_len = Some(len);

    // Instruction-signature rotation period: full-instruction equality is
    // finer than any opcode tagging the monitor uses, hence sound for
    // collision claims.
    cert.is_period = Some(rotation_period(&body_insts, |a, b| a == b));

    // Body facts over the spliced stream — callee defs, loads and CSR reads
    // included.
    let defined = body_insts.iter().map(Inst::def_mask).fold(0, |a, m| a | m);
    let has_load = body_insts.iter().any(Inst::is_load);
    let has_csr = body_insts.iter().any(|i| matches!(i, Inst::Csr { .. } | Inst::CsrImm { .. }));
    let varying = defined & !invariant_mask(&body_insts, defined);

    let invariant = varying == 0 && !has_load && !has_csr;
    if invariant {
        // Data-signature rotation period over phase-independent read tags.
        let tags = read_tags(prog, lp, &body, defined, absint);
        cert.ds_period = Some(rotation_period(&tags, |a, b| {
            a.0 == b.0 // same enable structure
                && a.1.iter().zip(b.1.iter()).all(|(x, y)| x.provably_equal(y))
        }));
        let realign = lcm(cert.ds_period.unwrap_or(len), cert.is_period.unwrap_or(len));
        cert.witness = Some(format!(
            "iteration-invariant traffic: any stagger ≡ 0 (mod {realign}) re-aligns \
             identical windows"
        ));
        if s_eff.rem_euclid(realign as i64) == 0 && !config.pair_mode {
            cert.verdict = Verdict::ProvedCollision;
        }
        return cert;
    }

    // Diversity certificate. Strict rule: every instruction of the body
    // reads a provably iteration-injective value. Relaxed rule, for bodies
    // with *neutral* positions (typically spliced calls — the jump itself
    // and callee housekeeping read nothing iteration-varying): every
    // position is injective or neutral (reads nothing beyond constants and
    // loop-fixed registers), every cyclic FIFO-depth window of the body
    // contains at least one injective position, and the opcode sequence has
    // full rotation period. A stagger ≡ 0 (mod body) then compares distinct
    // iterations position-by-position and the injective read in every
    // window separates the data signatures; any other stagger misaligns the
    // full-period opcode stream. Both directions are machine-checked by the
    // soundness harness. Either way, the loop must not be nested (re-entry
    // would repeat counter values), every read of the committed stream must
    // be provably equal across cores, and the body must fit the window.
    let inj_reads = injective_read_flags(prog, &body, defined);
    let tags = read_tags(prog, lp, &body, defined, absint);
    let neutral: Vec<bool> = tags
        .iter()
        .map(|((has1, has2), t)| {
            let port_ok = |has: bool, tag: &ValTag| {
                !has || matches!(tag, ValTag::Const(_) | ValTag::Fixed(_))
            };
            port_ok(*has1, &t[0]) && port_ok(*has2, &t[1])
        })
        .collect();
    let nested = cfg
        .loops
        .iter()
        .any(|other| other.header != lp.header && other.blocks.contains(&lp.header));
    let window = 2 * config.fifo_depth as u64;

    let strict = !inj_reads.is_empty() && inj_reads.iter().all(|&ok| ok);
    let relaxed = !strict && inj_reads.iter().any(|&ok| ok) && {
        let n = body.len();
        let win = config.fifo_depth.min(n);
        (0..n).all(|i| inj_reads[i] || neutral[i])
            && (0..n).all(|w0| (0..win).any(|k| inj_reads[(w0 + k) % n]))
            && cert.is_period == Some(len)
    };

    let witness = if !strict && !relaxed {
        if inj_reads.iter().all(|ok| !ok) {
            Some("no provably iteration-injective value in the body".to_owned())
        } else if let Some(bad) = (0..body.len()).find(|&i| !inj_reads[i] && !neutral[i]) {
            Some(format!(
                "instruction at {:#x} reads no iteration-injective value",
                prog.pc_of(body[bad])
            ))
        } else if cert.is_period != Some(len) {
            Some(format!(
                "neutral positions with a repeating opcode pattern (period {} < body {len})",
                cert.is_period.unwrap_or(0)
            ))
        } else {
            Some(format!(
                "iteration-injective reads too sparse: some {}-instruction window has none",
                config.fifo_depth
            ))
        }
    } else if nested {
        Some("nested loop: re-entry may repeat counter values inside a window".to_owned())
    } else if len > window {
        Some(format!("body ({len} insts) exceeds the provable window ({window} insts)"))
    } else if !body_reads_delta_zero(prog, &body, absint, lp) {
        Some("a read is not provably equal across the cores".to_owned())
    } else {
        None
    };

    match witness {
        Some(w) => {
            cert.witness = Some(w);
            if lockstep {
                cert.verdict = Verdict::ProvedCollision;
            }
        }
        None => {
            // Effective delta 2: the dual-issue front end quantises window
            // alignment in groups of up to two instructions, so a delta of
            // 2 guarantees a non-zero window shift.
            cert.min_safe_stagger = Some(2);
            if s_eff >= 2 {
                cert.verdict = Verdict::ProvedDiverse;
            } else if lockstep {
                cert.verdict = Verdict::ProvedCollision;
            }
        }
    }
    cert
}

/// Whether every register read inside the loop is provably delta-zero with
/// the memory mirror intact, per the relational fixpoint. A call inside the
/// loop hands execution to the callee, whose reads are part of the loop's
/// committed stream too: the claim survives only when the callee provably
/// executes identically on both cores — transitively CSR-free with every
/// may-read register delta-zero at the call.
fn loop_reads_delta_zero(
    prog: &DecodedProgram,
    cfg: &Cfg,
    lp: &NaturalLoop,
    absint: &AbsInt,
    ipo: &Interproc,
) -> bool {
    for &bid in &lp.blocks {
        let Some(state) = &absint.block_in[bid] else { return false };
        let mut st = state.clone();
        let b = &cfg.blocks[bid];
        for i in b.start..b.end {
            let Some(inst) = prog.slots[i].inst else { continue };
            if !st.delta.mem_equal {
                return false;
            }
            let equal =
                [inst.rs1(), inst.rs2()].into_iter().flatten().all(|r| st.delta.get(r).is_zero());
            if !equal {
                return false;
            }
            let is_call =
                matches!(inst, Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } if !rd.is_zero());
            if is_call {
                let eff = ipo.effect_for_slot(i);
                let callee_identical = eff.csr_free
                    && (1..32).all(|r| eff.uses & (1 << r) == 0 || st.delta.regs[r].is_zero());
                if !callee_identical {
                    return false;
                }
            }
            st.transfer(prog.slots[i].pc, &inst);
        }
    }
    true
}

/// Whether a loop's committed stream reads no load or CSR value: no load
/// or CSR instruction in its blocks, and every call inside it goes to a
/// composable callee whose spliced body has none either (any other callee's
/// stream is unknown).
fn stream_reads_no_input(
    prog: &DecodedProgram,
    cfg: &Cfg,
    lp: &NaturalLoop,
    ipo: &Interproc,
) -> bool {
    let no_input =
        |inst: &Inst| !inst.is_load() && !matches!(inst, Inst::Csr { .. } | Inst::CsrImm { .. });
    lp.blocks.iter().flat_map(|&b| cfg.blocks[b].start..cfg.blocks[b].end).all(|i| {
        match prog.slots[i].inst {
            None => true,
            Some(Inst::Jal { rd, .. } | Inst::Jalr { rd, .. }) if !rd.is_zero() => {
                ipo.summary_for_slot(i).and_then(|f| f.body.as_ref()).is_some_and(|body| {
                    body.iter().all(|&c| prog.slots[c].inst.is_some_and(|x| no_input(&x)))
                })
            }
            Some(inst) => no_input(&inst),
        }
    })
}

/// Whether every read of the exact committed body stream (spliced callee
/// instructions included) is provably delta-zero with the memory mirror
/// intact, by sequential walk from the loop-header fixpoint state. Spliced
/// callee slots have no in-loop block states, so the walk re-derives their
/// states exactly — the body is the unique execution path.
fn body_reads_delta_zero(
    prog: &DecodedProgram,
    body: &[usize],
    absint: &AbsInt,
    lp: &NaturalLoop,
) -> bool {
    let Some(state) = &absint.block_in[lp.header] else { return false };
    let mut st = state.clone();
    for &s in body {
        let Some(inst) = prog.slots[s].inst else { return false };
        if !st.delta.mem_equal {
            return false;
        }
        let equal =
            [inst.rs1(), inst.rs2()].into_iter().flatten().all(|r| st.delta.get(r).is_zero());
        if !equal {
            return false;
        }
        st.transfer(prog.slots[s].pc, &inst);
    }
    true
}

/// Splices composable callee bodies into a loop's slot sequence, producing
/// the exact committed stream of one iteration plus the PC span of every
/// spliced callee body (deduplicated). Every call must target a resolved
/// function whose summary carries a straight-line leaf body; anything else
/// returns the refuting witness.
fn splice_calls(
    prog: &DecodedProgram,
    body: &[usize],
    ipo: &Interproc,
) -> Result<(Vec<usize>, Vec<PcSpan>), String> {
    const MAX_SPLICED: usize = 4096;
    let mut out = Vec::with_capacity(body.len());
    let mut callee_spans: Vec<PcSpan> = Vec::new();
    for &s in body {
        out.push(s);
        let is_call = matches!(
            prog.slots[s].inst,
            Some(Inst::Jal { rd, .. } | Inst::Jalr { rd, .. }) if !rd.is_zero()
        );
        if !is_call {
            continue;
        }
        let pc = prog.slots[s].pc;
        let Some(summary) = ipo.summary_for_slot(s) else {
            return Err(format!("unresolvable indirect call at {pc:#x}"));
        };
        let Some(callee_body) = &summary.body else {
            return Err(format!("call at {pc:#x} to non-composable function {:#x}", summary.entry));
        };
        out.extend_from_slice(callee_body);
        let pcs = callee_body.iter().map(|&c| prog.slots[c].pc);
        if let (Some(lo), Some(hi)) = (pcs.clone().min(), pcs.max()) {
            let span = PcSpan { start: lo, end: hi + 4 };
            if !callee_spans.contains(&span) {
                callee_spans.push(span);
            }
        }
        if out.len() > MAX_SPLICED {
            return Err(format!("spliced body exceeds {MAX_SPLICED} instructions"));
        }
    }
    Ok((out, callee_spans))
}

/// Per-body-position read tags: the enable structure (rs1/rs2 presence) and
/// a phase-independent [`ValTag`] per read port. `defined` is the def mask
/// of the body sequence itself (spliced callee defs included).
fn read_tags(
    prog: &DecodedProgram,
    lp: &NaturalLoop,
    body: &[usize],
    defined: u32,
    absint: &AbsInt,
) -> Vec<((bool, bool), [ValTag; 2])> {
    // Walk the body once from the header fixpoint state to obtain per-point
    // constants. Positions may span several blocks (and spliced callees);
    // re-derive states per position by sequential walk — the body is the
    // unique execution path, so this is exact.
    let mut st = absint.block_in[lp.header]
        .clone()
        .unwrap_or_else(|| AbsState { regs: [Abs::TOP; 32], delta: DeltaState::unknown() });
    let mut tags = Vec::with_capacity(body.len());
    for &s in body {
        let Some(inst) = prog.slots[s].inst else {
            tags.push(((false, false), [ValTag::Opaque, ValTag::Opaque]));
            continue;
        };
        let tag_of = |r: Option<Reg>, st: &AbsState| -> ValTag {
            match r {
                None => ValTag::Opaque,
                Some(r) if r.is_zero() => ValTag::Const(0),
                Some(r) => {
                    if let Some(c) = st.get(r).as_const() {
                        ValTag::Const(c)
                    } else if r.bit() & defined == 0 {
                        ValTag::Fixed(r)
                    } else {
                        ValTag::Opaque
                    }
                }
            }
        };
        let t1 = tag_of(inst.rs1(), &st);
        let t2 = tag_of(inst.rs2(), &st);
        tags.push(((inst.rs1().is_some(), inst.rs2().is_some()), [t1, t2]));
        st.transfer(prog.slots[s].pc, &inst);
    }
    tags
}

/// DIV001–DIV008 generation from the certificates and sleds, sorted by
/// address then code (the severity overrides apply afterwards).
fn prove_lints(
    config: &AnalysisConfig,
    certs: &[LoopCertificate],
    sleds: &[Sled],
    s_eff: i64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let stagger_known = config.stagger_nops.is_some();
    // DIV004 compares DIV001/DIV002 with one shared stream's effective
    // stagger: a twin pair runs two different streams, so it does not apply.
    let cross_check = config.stagger_nops.filter(|_| !config.pair_mode);
    for c in certs {
        // DIV001: iteration-invariant traffic repeats with the re-alignment
        // period, a code-shape fact independent of the stagger.
        if let Some(period) = c.realign_period() {
            diags.push(div001(config, c.span, period));
            if let Some(nops) = cross_check.filter(|_| s_eff.rem_euclid(period as i64) == 0) {
                diags.push(Diagnostic {
                    code: LintCode::Div004,
                    severity: Severity::Error,
                    span: c.span,
                    message: format!(
                        "configured stagger of {nops} nops (effective delta {s_eff}) \
                         is a multiple of this loop's {period}-instruction traffic period"
                    ),
                    notes: vec![format!(
                        "note: the periodic traffic re-aligns exactly, reproducing the \
                         stagger-0 data-signature collision; see DIV001 at {}",
                        c.span
                    )],
                    period: Some(period),
                    min_safe_stagger: None,
                });
            }
        }

        // DIV003: identical traffic on both cores that neither DIV001 nor
        // DIV005 already reports; only the stagger separates the cores. A
        // twin pair's cores run different streams, so it does not apply.
        if c.data_independent
            && c.ds_period.is_none()
            && c.verdict != Verdict::ProvedCollision
            && !config.pair_mode
        {
            diags.push(Diagnostic {
                code: LintCode::Div003,
                severity: Severity::Warning,
                span: c.span,
                message: "data-independent loop: both cores compute identical register traffic"
                    .into(),
                notes: vec![
                    "note: the committed stream reads no load or CSR value and every read is \
                     provably equal across the cores, so redundant cores compute identical \
                     register traffic"
                        .into(),
                    "note: diversity inside this loop relies on staggering alone".into(),
                ],
                period: None,
                min_safe_stagger: c.min_safe_stagger,
            });
        }

        match c.verdict {
            Verdict::ProvedCollision => {
                let realign = lcm(
                    c.ds_period.unwrap_or_else(|| c.body_len.unwrap_or(1)),
                    c.is_period.unwrap_or_else(|| c.body_len.unwrap_or(1)),
                );
                let (message, mut notes) = if s_eff == 0 {
                    (
                        "proved data-signature collision: lockstep cores with provably \
                         equal reads"
                            .to_owned(),
                        vec!["note: effective inter-core delta is 0 and every read in the loop \
                             is proved delta-zero, so the signature windows coincide"
                            .to_owned()],
                    )
                } else {
                    (
                        format!(
                            "proved data-signature collision: effective stagger {s_eff} is a \
                             multiple of the traffic rotation period {realign}"
                        ),
                        vec![format!(
                            "note: the invariant traffic pattern re-aligns exactly every \
                             {realign} committed instructions"
                        )],
                    )
                };
                notes.push(
                    "note: existential claim — at least one no-diversity cycle while both \
                     cores execute this loop"
                        .to_owned(),
                );
                diags.push(Diagnostic {
                    code: LintCode::Div005,
                    severity: Severity::Error,
                    span: c.span,
                    message,
                    notes,
                    period: (c.ds_period.is_some()).then_some(realign),
                    min_safe_stagger: c.min_safe_stagger,
                });
            }
            Verdict::ProvedDiverse => {}
            Verdict::Unknown => {}
        }

        // DIV006: the instruction signature provably re-aligns even where
        // the data signature is not proved to — a half-collision window.
        if let (Some(p_is), Verdict::Unknown) = (c.is_period, c.verdict) {
            if stagger_known && s_eff != 0 && s_eff.rem_euclid(p_is as i64) == 0 {
                diags.push(Diagnostic {
                    code: LintCode::Div006,
                    severity: Severity::Warning,
                    span: c.span,
                    message: format!(
                        "proved instruction-signature collision window: effective stagger \
                         {s_eff} is a multiple of the opcode rotation period {p_is}"
                    ),
                    notes: vec!["note: the opcode streams re-align; only the data signature can \
                         still separate the cores here"
                        .to_owned()],
                    period: Some(p_is),
                    min_safe_stagger: None,
                });
            }
        }

        // DIV007: a certificate exists and the configured stagger violates it.
        if let Some(m) = c.min_safe_stagger {
            if stagger_known && s_eff >= 0 && (s_eff as u64) < m {
                diags.push(Diagnostic {
                    code: LintCode::Div007,
                    severity: Severity::Error,
                    span: c.span,
                    message: format!(
                        "configured stagger (effective delta {s_eff}) violates this loop's \
                         minimum-safe-stagger certificate of {m}"
                    ),
                    notes: vec![format!(
                        "help: stagger the cores by at least {m} effective committed \
                         instructions to make this loop provably diverse"
                    )],
                    period: None,
                    min_safe_stagger: Some(m),
                });
            }
        }

        // DIV008: diversity of this loop is unprovable at the configured
        // stagger.
        if c.verdict == Verdict::Unknown {
            let mut notes = Vec::new();
            if let Some(w) = &c.witness {
                notes.push(format!("note: {w}"));
            }
            if let Some(m) = c.min_safe_stagger {
                notes.push(format!(
                    "note: a certificate exists: effective delta >= {m} is provably diverse"
                ));
            }
            notes.push(
                "note: unprovable is not unsafe — the runtime monitor stays authoritative"
                    .to_owned(),
            );
            diags.push(Diagnostic {
                code: LintCode::Div008,
                severity: Severity::Warning,
                span: c.span,
                message: "diversity of this loop is not provable at the configured stagger"
                    .to_owned(),
                notes,
                period: None,
                min_safe_stagger: c.min_safe_stagger,
            });
        }
    }
    for sled in sleds {
        diags.push(div002(config, sled));
        if let Some(nops) = cross_check.filter(|_| s_eff < sled.min_safe_stagger as i64) {
            let min_safe = sled.min_safe_stagger;
            diags.push(Diagnostic {
                code: LintCode::Div004,
                severity: Severity::Error,
                span: sled.span,
                message: format!(
                    "configured stagger of {nops} nops (effective delta {s_eff}) \
                     is below this sled's minimum safe stagger of {min_safe}"
                ),
                notes: vec![format!(
                    "note: both pipelines sit fully inside the sled at the same \
                     time; see DIV002 at {}",
                    sled.span
                )],
                period: None,
                min_safe_stagger: Some(min_safe),
            });
        }
    }
    diags.sort_by_key(|d| (d.span.start, d.code));
    diags
}

/// The DIV001 finding of an iteration-invariant loop with re-alignment
/// period `period`: an error when the period fits the signature FIFO.
fn div001(config: &AnalysisConfig, span: PcSpan, period: u64) -> Diagnostic {
    let fits = period <= config.fifo_depth as u64;
    let mut notes = vec![format!(
        "note: guaranteed data-signature collision between cores staggered by any multiple \
         of {period} committed instructions (including 0)"
    )];
    if fits {
        notes.push(format!(
            "note: the period fits inside the {}-cycle signature FIFO, so the collision \
             persists every cycle of the loop",
            config.fifo_depth
        ));
    }
    notes.push(format!(
        "help: stagger the cores by an amount that is not a multiple of {period}, or introduce \
         core-specific state (e.g. an mhartid-derived value) into the loop"
    ));
    Diagnostic {
        code: LintCode::Div001,
        severity: if fits { Severity::Error } else { Severity::Warning },
        span,
        message: format!(
            "cycle-periodic loop: register-port traffic repeats every {period} instructions"
        ),
        notes,
        period: Some(period),
        min_safe_stagger: None,
    }
}

/// The DIV002 finding of one sled.
fn div002(config: &AnalysisConfig, sled: &Sled) -> Diagnostic {
    let (len, inst, min_safe) = (sled.span.insts(), sled.inst, sled.min_safe_stagger);
    let mut notes = vec![
        format!(
            "note: {len} consecutive `{inst}` fill all {} pipeline slots of both cores with \
             identical opcodes when their stagger is below {min_safe} committed instructions",
            config.pipeline_slots
        ),
        "note: guaranteed instruction-signature collision in that window".into(),
    ];
    if inst.is_nop() {
        notes.push(
            "note: nops also read and write only x0, so the data signatures collide as well".into(),
        );
    }
    notes.push(format!(
        "help: stagger the cores by at least {min_safe} committed instructions, or diversify \
         the sled (e.g. alternate addi/ori encodings)"
    ));
    Diagnostic {
        code: LintCode::Div002,
        severity: Severity::Error,
        span: sled.span,
        message: format!("identical-instruction sled: {len} x `{inst}`"),
        notes,
        period: None,
        min_safe_stagger: Some(min_safe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;

    fn proved(f: impl FnOnce(&mut Asm), config: &AnalysisConfig) -> (DecodedProgram, ProveReport) {
        let mut a = Asm::new();
        f(&mut a);
        let p = DecodedProgram::from_program(&a.link(0x8000_0000).unwrap());
        let c = Cfg::build(&p);
        let r = prove(&p, &c, config);
        (p, r)
    }

    fn countdown(a: &mut Asm) {
        a.li(Reg::T0, 1000);
        let l = a.new_label("l");
        a.bind(l).unwrap();
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, l);
        a.ebreak();
    }

    #[test]
    fn countdown_loop_gets_a_certificate() {
        let (_, r) = proved(countdown, &AnalysisConfig::default());
        assert_eq!(r.certificates.len(), 1, "{:#?}", r.certificates);
        let c = &r.certificates[0];
        assert_eq!(c.body_len, Some(2));
        assert_eq!(c.min_safe_stagger, Some(2), "{c:?}");
        // No stagger configured: effective delta 0, lockstep collision.
        assert_eq!(c.verdict, Verdict::ProvedCollision);
        assert_eq!(r.effective_stagger, 0);
    }

    #[test]
    fn irreducible_counter_terminates() {
        // An irreducible cycle has no natural-loop header, so header-only
        // widening never fires and a counter inside the cycle would climb
        // the interval lattice forever. The any-block widening fallback
        // must bound the fixpoint.
        let mut a = Asm::new();
        let a_lbl = a.new_label("a");
        let b_lbl = a.new_label("b");
        a.bnez(Reg::A0, b_lbl); // entry -> {a, b}
        a.bind(a_lbl).unwrap();
        a.addi(Reg::T0, Reg::T0, 1); // counter inside the irreducible cycle
        a.j(b_lbl);
        a.bind(b_lbl).unwrap();
        a.nop();
        a.bnez(Reg::A1, a_lbl); // b -> a closes the cycle
        a.ebreak();
        let p = DecodedProgram::from_program(&a.link(0x8000_0000).unwrap());
        let c = Cfg::build(&p);
        assert!(c.loops.is_empty(), "{:?}", c.loops);
        let _ = AbsInt::compute(&p, &c);
    }

    #[test]
    fn pair_mode_drops_delta_zero_lockstep_claims() {
        // A twin pair runs *different* binaries on the two cores, so the
        // stagger-0 lockstep-collision argument does not apply and must not
        // be inherited by pair-mode analysis.
        let cfg = AnalysisConfig { pair_mode: true, ..AnalysisConfig::default() };
        let (_, r) = proved(countdown, &cfg);
        assert_eq!(r.count(Verdict::ProvedCollision), 0, "{}", r.summary_line("countdown"));
        assert_eq!(r.certificates[0].verdict, Verdict::Unknown);
        // The loop's own min-safe-stagger certificate is a property of the
        // code and stays.
        assert_eq!(r.certificates[0].min_safe_stagger, Some(2));

        let idle = |a: &mut Asm| {
            let l = a.new_label("l");
            a.bind(l).unwrap();
            a.nop();
            a.j(l);
        };
        // Invariant-traffic re-alignment (stagger 4 ≡ 0 mod 2) is equally a
        // same-stream argument; gated too.
        let cfg =
            AnalysisConfig { stagger_nops: Some(4), pair_mode: true, ..AnalysisConfig::default() };
        let (_, r) = proved(idle, &cfg);
        assert_eq!(r.certificates[0].verdict, Verdict::Unknown, "{:#?}", r.certificates);
        assert!(!r.diagnostics.iter().any(|d| d.code == LintCode::Div005), "{:#?}", r.diagnostics);
    }

    #[test]
    fn countdown_loop_proved_diverse_at_certified_stagger() {
        let cfg = AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() };
        let (_, r) = proved(countdown, &cfg);
        let c = &r.certificates[0];
        assert_eq!(c.verdict, Verdict::ProvedDiverse, "{c:?}");
        assert!(r.count(Verdict::ProvedDiverse) >= 2);
    }

    #[test]
    fn spliced_call_loop_region_covers_the_callee_body() {
        let call_loop = |a: &mut Asm| {
            a.li(Reg::T0, 16);
            let l = a.new_label("l");
            let leaf = a.new_label("leaf");
            a.bind(l).unwrap();
            a.call(leaf);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, l);
            a.ebreak();
            a.bind(leaf).unwrap();
            a.add(Reg::T2, Reg::T0, Reg::T0);
            a.xor(Reg::T3, Reg::T2, Reg::T0);
            a.ret();
        };
        let cfg = AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() };
        let (_, r) = proved(call_loop, &cfg);
        let c = &r.certificates[0];
        assert_eq!(c.verdict, Verdict::ProvedDiverse, "{c:?}");
        // jal + (add, xor, ret) + addi + bnez.
        assert_eq!(c.body_len, Some(6), "{c:?}");
        assert_eq!(c.callee_spans.len(), 1, "{c:?}");
        let leaf = c.callee_spans[0];
        assert_eq!(leaf.insts(), 3, "{leaf}");
        // The callee body sits outside the loop span but inside the region
        // the harness must guard.
        assert!(!c.span.contains(leaf.start));
        let region = c.region();
        assert!(region.iter().any(|s| s.contains(leaf.start)));
        assert!(region.iter().any(|s| s.contains(c.header_pc)));
        assert!(c.summary().contains("spliced-callees="), "{}", c.summary());
    }

    #[test]
    fn idle_loop_collides_at_period_residue_only() {
        let idle = |a: &mut Asm| {
            let l = a.new_label("l");
            a.bind(l).unwrap();
            a.nop();
            a.j(l);
        };
        // Effective stagger 4 ≡ 0 (mod 2): proved collision, DIV005.
        let cfg = AnalysisConfig { stagger_nops: Some(4), ..AnalysisConfig::default() };
        let (_, r) = proved(idle, &cfg);
        let c = &r.certificates[0];
        assert_eq!(c.verdict, Verdict::ProvedCollision, "{c:?}");
        assert_eq!(c.min_safe_stagger, None);
        assert!(c.witness.as_deref().unwrap_or("").contains("re-aligns"));
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::Div005));

        // Effective stagger 5: not a multiple — unknown, never diverse.
        let cfg = AnalysisConfig { stagger_nops: Some(5), ..AnalysisConfig::default() };
        let (_, r) = proved(idle, &cfg);
        assert_eq!(r.certificates[0].verdict, Verdict::Unknown);
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::Div008));
    }

    #[test]
    fn certificate_violation_fires_div007() {
        let cfg = AnalysisConfig {
            stagger_nops: Some(2),
            stagger_phase: -1, // harness sled: effective delta 1 < cert 2
            ..AnalysisConfig::default()
        };
        let (_, r) = proved(countdown, &cfg);
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::Div007), "{:#?}", r.diagnostics);
    }

    #[test]
    fn lockstep_points_marked_colliding_at_zero_stagger() {
        let (p, r) = proved(
            |a| {
                a.li(Reg::T0, 7);
                a.addi(Reg::T1, Reg::T0, 1);
                a.ebreak();
            },
            &AnalysisConfig::default(),
        );
        assert!(r.count(Verdict::ProvedCollision) >= 2, "{:?}", r.points);
        assert_eq!(r.points.len(), p.slots.len());
    }

    #[test]
    fn hartid_breaks_the_lockstep_proof() {
        let (_, r) = proved(
            |a| {
                a.hartid(Reg::T0);
                a.addi(Reg::T1, Reg::T0, 1);
                a.ebreak();
            },
            &AnalysisConfig::default(),
        );
        // The addi reads a register with non-zero delta: not proved colliding.
        assert!(r.count(Verdict::Unknown) >= 1, "{:?}", r.points);
    }

    #[test]
    fn memcpy_style_loop_qualifies_via_injective_closure() {
        let (_, r) = proved(
            |a| {
                a.li(Reg::A0, 0x8010_0000); // src
                a.li(Reg::A1, 0x8011_0000); // dst
                a.li(Reg::T0, 64); // count
                let l = a.new_label("l");
                a.bind(l).unwrap();
                a.lw(Reg::T1, 0, Reg::A0);
                a.sw(Reg::T1, 0, Reg::A1);
                a.addi(Reg::A0, Reg::A0, 4);
                a.addi(Reg::A1, Reg::A1, 4);
                a.addi(Reg::T0, Reg::T0, -1);
                a.bnez(Reg::T0, l);
                a.ebreak();
            },
            &AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() },
        );
        let c = &r.certificates[0];
        assert_eq!(c.min_safe_stagger, Some(2), "{c:?}");
        assert_eq!(c.verdict, Verdict::ProvedDiverse);
    }

    /// li s1; call leaf; use s1 — the fall-through point after the call.
    fn call_then_use(a: &mut Asm) {
        let f = a.new_label("f");
        a.li(Reg::S1, 7);
        a.call(f);
        a.addi(Reg::T1, Reg::S1, 0);
        a.ebreak();
        a.bind(f).unwrap();
        a.addi(Reg::T0, Reg::T0, 1);
        a.ret();
    }

    #[test]
    fn call_fallthrough_havocs_without_summaries_and_refines_with_them() {
        let mut a = Asm::new();
        call_then_use(&mut a);
        let p = DecodedProgram::from_program(&a.link(0x8000_0000).unwrap());
        let c = Cfg::build(&p);
        let cp = ConstProp::compute(&p, &c);
        let ipo = Interproc::compute(&p, &c, &cp);

        // The fall-through block starts right after the call slot.
        let use_slot = (0..p.slots.len())
            .find(|&i| {
                matches!(p.slots[i].inst, Some(Inst::OpImm { rd: Reg::T1, rs1: Reg::S1, .. }))
            })
            .unwrap();
        let bid = c.block_of_slot(use_slot).unwrap();

        // No summaries: any callee could have clobbered s1 — havocked.
        let plain = AbsInt::compute(&p, &c);
        let st = plain.block_in[bid].as_ref().unwrap();
        assert_eq!(st.get(Reg::S1).as_const(), None, "{st:?}");
        assert!(!st.delta.mem_equal);

        // Summaries: the leaf clobbers only t0 (and ra via the call), so the
        // caller's s1 constant and the relational state survive the call.
        let refined = AbsInt::compute_with_summaries(&p, &c, Some(&ipo));
        let st = refined.block_in[bid].as_ref().unwrap();
        assert_eq!(st.get(Reg::S1).as_const(), Some(7), "{st:?}");
        assert_eq!(st.get(Reg::T0).as_const(), None, "t0 is clobbered by the callee");
        assert!(st.delta.mem_equal);
        assert!(st.delta.get(Reg::S1).is_zero());
    }

    #[test]
    fn loop_with_composable_call_gets_a_certificate() {
        let cfg = AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() };
        let (_, r) = proved(
            |a| {
                let f = a.new_label("f");
                let l = a.new_label("l");
                a.li(Reg::T0, 64);
                a.bind(l).unwrap();
                a.call(f);
                a.addi(Reg::T0, Reg::T0, -1);
                a.bnez(Reg::T0, l);
                a.ebreak();
                a.bind(f).unwrap();
                a.addi(Reg::A0, Reg::A0, 1);
                a.ret();
            },
            &cfg,
        );
        assert_eq!(r.certificates.len(), 1, "{:#?}", r.certificates);
        let c = &r.certificates[0];
        // Spliced stream: jal + (addi a0 + ret) + addi t0 + bnez = 5 insts.
        assert_eq!(c.body_len, Some(5), "{c:?}");
        assert_eq!(c.min_safe_stagger, Some(2), "{c:?}");
        assert_eq!(c.verdict, Verdict::ProvedDiverse);
    }

    #[test]
    fn loop_calling_noncomposable_function_is_witnessed() {
        let (_, r) = proved(
            |a| {
                let f = a.new_label("f");
                let skip = a.new_label("skip");
                let l = a.new_label("l");
                a.li(Reg::T0, 64);
                a.bind(l).unwrap();
                a.call(f);
                a.addi(Reg::T0, Reg::T0, -1);
                a.bnez(Reg::T0, l);
                a.ebreak();
                a.bind(f).unwrap();
                a.beqz(Reg::A0, skip); // branchy callee: not composable
                a.addi(Reg::A0, Reg::A0, -1);
                a.bind(skip).unwrap();
                a.ret();
            },
            &AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() },
        );
        let c = &r.certificates[0];
        assert_eq!(c.min_safe_stagger, None, "{c:?}");
        assert!(c.witness.as_deref().unwrap_or("").contains("non-composable"), "{c:?}");
    }

    #[test]
    fn loop_with_unresolved_indirect_call_is_witnessed() {
        let (_, r) = proved(
            |a| {
                let l = a.new_label("l");
                a.li(Reg::T0, 64);
                a.bind(l).unwrap();
                a.ld(Reg::T2, 0, Reg::SP);
                a.jalr(Reg::RA, Reg::T2, 0); // target unknown statically
                a.addi(Reg::T0, Reg::T0, -1);
                a.bnez(Reg::T0, l);
                a.ebreak();
            },
            &AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() },
        );
        let c = &r.certificates[0];
        assert_eq!(c.min_safe_stagger, None, "{c:?}");
        assert!(c.witness.as_deref().unwrap_or("").contains("unresolvable"), "{c:?}");
    }

    #[test]
    fn hartid_reading_callee_blocks_the_lockstep_collision_claim() {
        // The caller's own loop reads are all delta-zero, but the callee
        // reads a register carrying the hartid delta — the cores do not
        // execute it identically, so no lockstep collision may be claimed.
        let (_, r) = proved(
            |a| {
                let f = a.new_label("f");
                let l = a.new_label("l");
                a.hartid(Reg::A0);
                a.li(Reg::T0, 64);
                a.bind(l).unwrap();
                a.call(f);
                a.addi(Reg::T0, Reg::T0, -1);
                a.bnez(Reg::T0, l);
                a.ebreak();
                a.bind(f).unwrap();
                a.addi(Reg::A1, Reg::A0, 1); // reads the divergent a0
                a.ret();
            },
            &AnalysisConfig::default(),
        );
        let c = &r.certificates[0];
        assert_ne!(c.verdict, Verdict::ProvedCollision, "{c:?}");
    }

    /// The findings of `prove` on the program `f` assembles.
    fn findings(config: &AnalysisConfig, f: impl FnOnce(&mut Asm)) -> Vec<Diagnostic> {
        proved(f, config).1.diagnostics
    }

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    fn idle(a: &mut Asm) {
        let l = a.new_label("l");
        a.bind(l).unwrap();
        a.nop();
        a.j(l);
    }

    fn counted(a: &mut Asm) {
        a.li(Reg::T0, 100);
        let l = a.new_label("l");
        a.bind(l).unwrap();
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, l);
        a.ebreak();
    }

    /// A stagger at which the counted loop is proved diverse, not a
    /// lockstep DIV005: the DIV003 cases run there.
    fn staggered() -> AnalysisConfig {
        AnalysisConfig { stagger_nops: Some(5), ..AnalysisConfig::default() }
    }

    #[test]
    fn severity_overrides_rewrite_and_drop_findings() {
        use crate::diag::{Level, LintLevels};

        // Baseline: DIV001 fires as an error.
        let d = findings(&AnalysisConfig::default(), idle);
        assert!(d.iter().any(|x| x.code == LintCode::Div001 && x.severity == Severity::Error));

        // --warn DIV001 downgrades, --allow DIV001 drops.
        let mut levels = LintLevels::default();
        levels.set(LintCode::Div001, Level::Warn);
        let d = findings(&AnalysisConfig { levels, ..AnalysisConfig::default() }, idle);
        assert!(d.iter().any(|x| x.code == LintCode::Div001 && x.severity == Severity::Warning));

        let mut levels = LintLevels::default();
        levels.set(LintCode::Div001, Level::Allow);
        let d = findings(&AnalysisConfig { levels, ..AnalysisConfig::default() }, idle);
        assert!(!codes(&d).contains(&LintCode::Div001), "{d:?}");

        // --deny DIV003 upgrades the warning-by-default lint.
        let mut levels = LintLevels::default();
        levels.set(LintCode::Div003, Level::Deny);
        let d = findings(&AnalysisConfig { levels, ..staggered() }, counted);
        assert!(d.iter().any(|x| x.code == LintCode::Div003 && x.severity == Severity::Error));
    }

    #[test]
    fn div001_fires_on_idle_loop() {
        let d = findings(&AnalysisConfig::default(), idle);
        let div1 = d.iter().find(|x| x.code == LintCode::Div001).expect("DIV001");
        assert_eq!(div1.period, Some(2));
        assert_eq!(div1.severity, Severity::Error);
    }

    #[test]
    fn div001_not_fired_on_counted_loop() {
        // A counter makes the write-port traffic vary per iteration ...
        let d = findings(&staggered(), counted);
        assert!(!codes(&d).contains(&LintCode::Div001), "{d:?}");
        // ... but DIV003 fires: the traffic is data-independent.
        assert!(codes(&d).contains(&LintCode::Div003), "{d:?}");
        // At stagger 0 the lockstep DIV005 reports the loop instead.
        let d = findings(&AnalysisConfig::default(), counted);
        assert!(codes(&d).contains(&LintCode::Div005), "{d:?}");
        assert!(!codes(&d).contains(&LintCode::Div003), "{d:?}");
    }

    #[test]
    fn div003_not_fired_when_loop_reads_loaded_data() {
        let d = findings(&staggered(), |a| {
            a.li(Reg::A0, 0x8010_0000);
            let l = a.new_label("l");
            a.bind(l).unwrap();
            a.lw(Reg::T0, 0, Reg::A0);
            a.bnez(Reg::T0, l);
            a.ebreak();
        });
        assert!(!codes(&d).contains(&LintCode::Div003), "{d:?}");
        assert!(!codes(&d).contains(&LintCode::Div001), "{d:?}");
    }

    #[test]
    fn div003_not_fired_when_loop_reads_hartid() {
        let d = findings(&staggered(), |a| {
            a.hartid(Reg::T0);
            let l = a.new_label("l");
            a.bind(l).unwrap();
            a.addi(Reg::T1, Reg::T0, 1);
            a.bnez(Reg::T1, l);
            a.ebreak();
        });
        assert!(!codes(&d).contains(&LintCode::Div003), "{d:?}");
    }

    #[test]
    fn div002_fires_on_nop_sled() {
        let cfg = AnalysisConfig::default();
        let (_, r) = proved(
            |a| {
                a.nops(40);
                a.ebreak();
            },
            &cfg,
        );
        let sled = r.diagnostics.iter().find(|x| x.code == LintCode::Div002).expect("DIV002");
        assert_eq!(sled.span.insts(), 40);
        assert_eq!(sled.min_safe_stagger, Some((40 - cfg.pipeline_slots + 1) as u64));
        assert_eq!(sled.min_safe_stagger, Some(27));
        // The lockstep rule already proves the sled's points colliding.
        assert_eq!(r.sleds[0].verdict, Verdict::ProvedCollision);
    }

    #[test]
    fn div002_ignores_short_sleds() {
        let cfg = AnalysisConfig::default();
        let d = findings(&cfg, |a| {
            a.nops(cfg.pipeline_slots - 1);
            a.ebreak();
        });
        assert!(!codes(&d).contains(&LintCode::Div002), "{d:?}");
    }

    #[test]
    fn div004_flags_stagger_multiple_of_period() {
        // 4 is a multiple of the 2-instruction period.
        let cfg = AnalysisConfig { stagger_nops: Some(4), ..AnalysisConfig::default() };
        assert!(codes(&findings(&cfg, idle)).contains(&LintCode::Div004));
        // 5 is not: safe.
        let cfg = AnalysisConfig { stagger_nops: Some(5), ..AnalysisConfig::default() };
        assert!(!codes(&findings(&cfg, idle)).contains(&LintCode::Div004));
    }

    #[test]
    fn pair_mode_suppresses_div004_residue_path() {
        // A twin pair at stagger 0 (or any stagger) runs different binaries;
        // the DIV004 residue argument presupposes one shared stream and must
        // not fire in pair mode. DIV001 itself (a per-copy code-shape fact)
        // still does.
        for nops in [0u64, 4] {
            let cfg = AnalysisConfig {
                stagger_nops: Some(nops),
                pair_mode: true,
                ..AnalysisConfig::default()
            };
            let d = findings(&cfg, idle);
            assert!(!codes(&d).contains(&LintCode::Div004), "nops={nops}: {d:?}");
            assert!(codes(&d).contains(&LintCode::Div001), "nops={nops}: {d:?}");
        }
    }

    #[test]
    fn div004_respects_the_stagger_phase() {
        // A configured stagger that is a multiple of the loop period *plus a
        // nonzero phase* lands in a different residue class and must not be
        // flagged. With the harness phase of -1, 4 nops give an effective
        // delta of 3 (safe against a period of 2) while 5 nops give 4 (a
        // true re-alignment).
        let phased = |nops| AnalysisConfig {
            stagger_nops: Some(nops),
            stagger_phase: -1,
            ..AnalysisConfig::default()
        };
        assert!(!codes(&findings(&phased(4), idle)).contains(&LintCode::Div004));
        let d = findings(&phased(5), idle);
        let div4 = d.iter().find(|x| x.code == LintCode::Div004).expect("DIV004");
        assert!(div4.message.contains("effective delta 4"), "{}", div4.message);
    }

    #[test]
    fn div004_flags_stagger_below_sled_minimum() {
        let cfg = AnalysisConfig { stagger_nops: Some(3), ..AnalysisConfig::default() };
        let d = findings(&cfg, |a| {
            a.nops(40);
            a.ebreak();
        });
        assert!(codes(&d).contains(&LintCode::Div004), "{d:?}");
    }

    #[test]
    fn sled_into_an_idle_loop_renders_both_hazards() {
        let (p, r) = proved(
            |a| {
                a.nops(20);
                let l = a.new_label("l");
                a.bind(l).unwrap();
                a.j(l);
            },
            &AnalysisConfig::default(),
        );
        let d = &r.diagnostics;
        assert_eq!(d.iter().find(|x| x.code == LintCode::Div001).unwrap().period, Some(1));
        let sled = d.iter().find(|x| x.code == LintCode::Div002).unwrap();
        assert_eq!(sled.min_safe_stagger, Some(7));
        let text = r.render(&p, 6);
        assert!(text.contains("error[DIV001]") && text.contains("error[DIV002]"), "{text}");
    }

    #[test]
    fn clean_program_has_no_guaranteed_hazards() {
        let d = findings(&AnalysisConfig::default(), |a| {
            a.li(Reg::A0, 0x8010_0000);
            a.lw(Reg::T0, 0, Reg::A0);
            a.addi(Reg::T0, Reg::T0, 1);
            a.ebreak();
        });
        assert!(!codes(&d).iter().any(|c| matches!(c, LintCode::Div001 | LintCode::Div002)));
    }

    #[test]
    fn render_and_summary_are_stable() {
        let cfg = AnalysisConfig { stagger_nops: Some(100), ..AnalysisConfig::default() };
        let (p, r) = proved(countdown, &cfg);
        let text = r.render(&p, 6);
        assert!(text.contains("certificates"), "{text}");
        assert!(text.contains("proved-diverse"), "{text}");
        let line = r.summary_line("countdown");
        assert!(line.contains("min-safe-stagger=2"), "{line}");
    }
}
