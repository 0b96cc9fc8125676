//! # safedm-analysis — static diversity analyzer
//!
//! A CFG/dataflow lint pass that predicts **no-diversity hazards** in a
//! linked [`Program`](safedm_asm::Program) *before* it ever runs under the
//! SafeDM monitor.
//!
//! SafeDM (DATE 2022) measures diversity between two redundant cores by
//! comparing per-cycle *data signatures* (register-port traffic over the
//! last *n* cycles) and *instruction signatures* (pipeline-stage opcode
//! occupancy). Some code shapes make those signatures collide no matter how
//! the cores are scheduled — idle loops, nop sleds, constant-traffic spins —
//! and this crate finds them statically:
//!
//! | lint | severity | finding |
//! |---|---|---|
//! | `DIV001` | error | cycle-periodic loop: traffic repeats with period *p* ≤ FIFO depth — guaranteed data-signature collision at stagger ≡ 0 (mod *p*) |
//! | `DIV002` | error | identical-instruction sled longer than the pipeline — guaranteed instruction-signature collision below its minimum safe stagger |
//! | `DIV003` | warning | data-independent loop: no load/CSR-derived value reaches the body, so redundant cores compute identical traffic |
//! | `DIV004` | error | the configured staggering is defeated by a DIV001/DIV002 hazard |
//! | `DIV005` | error | prover: data-signature collision proved at the configured stagger (lockstep or period re-alignment) |
//! | `DIV006` | warning | prover: instruction-signature collision window proved (opcode streams re-align) |
//! | `DIV007` | error | prover: configured stagger violates a loop's minimum-safe-stagger certificate |
//! | `DIV008` | warning | prover: diversity unprovable for a loop, with a refuting witness |
//! | `DIV009` | warning | pair prover: the diversity transform left a residue (shared encoding / unmapped body) that is not provably diverse at stagger 0 |
//! | `DIV010` | error | pair prover: correspondence-map violation — the twin is not a faithful renaming of the original |
//!
//! DIV001–DIV004 come from the syntactic lint pass ([`lints`]); DIV005–DIV008
//! come from the abstract-interpretation prover ([`absint::prove`]), which
//! runs a worklist fixpoint over interval, congruence and relational
//! stagger-offset domains and emits a per-loop minimum-safe-stagger
//! certificate. DIV009/DIV010 come from the two-program relational prover
//! ([`absint::prove_pair`]), which verifies a transform-produced
//! correspondence map between a program and its diversity-transformed twin
//! and certifies encoding-disjoint loop-body pairs diverse at stagger 0.
//!
//! The pipeline: [`cfg::DecodedProgram`] decodes the text section,
//! [`cfg::Cfg`] builds basic blocks / dominators / natural loops, the
//! [`dataflow`] passes (reaching definitions, constant propagation,
//! liveness, input taint) feed [`lints`], and findings come back as
//! rustc-style [`diag::Diagnostic`]s.
//!
//! ```
//! use safedm_analysis::{analyze, AnalysisConfig, LintCode};
//! use safedm_asm::Asm;
//!
//! let mut a = Asm::new();
//! let spin = a.new_label("spin");
//! a.bind(spin).unwrap();
//! a.nop();
//! a.j(spin);
//! let prog = a.link(0x8000_0000).unwrap();
//!
//! let report = analyze(&prog, &AnalysisConfig::default());
//! assert!(report.diagnostics.iter().any(|d| d.code == LintCode::Div001));
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod gate;
pub mod lints;
pub mod sarif;
pub mod summary;

pub use absint::{
    prove, prove_pair, Abs, AbsInt, AbsState, LoopCertificate, PairCertificate, PairReport,
    ProveReport, Verdict,
};
pub use baseline::{Baseline, BaselineEntry, BaselineFilter};
pub use callgraph::{CallGraph, CallSite, CallTarget, Function};
pub use cfg::{BasicBlock, Cfg, DecodedProgram, NaturalLoop, Slot, Terminator};
pub use dataflow::{ConstProp, ConstVal, Liveness, LoopTraffic, ReachingDefs, Taint};
pub use diag::{Diagnostic, Level, LintCode, LintLevels, PcSpan, Severity};
pub use gate::{DiversityGate, GateCheck};
pub use lints::{registry, LintContext, LintPass};
pub use summary::{CallEffect, FnSummary, Interproc, Summaries, ALL_WRITABLE};

use safedm_asm::Program;
use safedm_soc::{PIPE_STAGES, PIPE_WIDTH};

/// Tunables of the analyzer, mirroring the monitored platform.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Depth *n* of the data-signature FIFO (cycles of port traffic per
    /// signature). Mirrors `SafeDmConfig::data_fifo_depth`.
    pub fifo_depth: usize,
    /// Total pipeline slots per core (stages x issue width); an identical
    /// sled at least this long fills the whole instruction signature.
    pub pipeline_slots: usize,
    /// Staggering the run is configured with (nops delaying one core), when
    /// known. Enables the DIV004 cross-check.
    pub stagger_nops: Option<u64>,
    /// Correction from configured sled nops to the *effective* inter-core
    /// committed-instruction delta. The TACLe harness sled makes the delayed
    /// hart commit `nops` nops while the other hart commits one `j skip`, so
    /// harness-staggered runs use `-1`; a raw delay uses the default `0`.
    /// Residue-class lints (DIV004 and the prover) test
    /// `stagger_nops + stagger_phase` against loop periods.
    pub stagger_phase: i64,
    /// Maximum disassembly lines per rendered snippet.
    pub snippet_lines: usize,
    /// The program under analysis is a composed *twin pair* (original +
    /// diversity-transformed variant sharing one image, dispatched by hart
    /// id). The cores then execute **different** instruction streams, so
    /// every single-program staggered-pair assumption is off: the DIV004
    /// residue cross-check and the delta-zero lockstep collision claims are
    /// suppressed, and certification is the pair prover's
    /// ([`absint::prove_pair`]) job.
    pub pair_mode: bool,
    /// Per-lint severity overrides (`--deny/--warn/--allow` on the CLI):
    /// applied by the lint driver after every registered pass has run.
    pub levels: diag::LintLevels,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            fifo_depth: 8,
            pipeline_slots: PIPE_STAGES * PIPE_WIDTH,
            stagger_nops: None,
            stagger_phase: 0,
            snippet_lines: 6,
            pair_mode: false,
            levels: diag::LintLevels::default(),
        }
    }
}

/// Everything the analyzer learned about one program.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The decoded text section the findings refer to.
    pub program: DecodedProgram,
    /// Control-flow graph with dominator-derived natural loops.
    pub cfg: Cfg,
    /// The configuration the analysis ran with.
    pub config: AnalysisConfig,
    /// All findings, sorted by address.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Findings with [`Severity::Error`].
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Findings with [`Severity::Warning`].
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// The *guaranteed* hazards (DIV001/DIV002): regions where the monitor
    /// must observe no-diversity cycles when both cores execute them in
    /// lockstep (stagger 0). These are the findings the `safedm-core`
    /// pre-run gate cross-validates.
    pub fn guaranteed_hazards(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| matches!(d.code, LintCode::Div001 | LintCode::Div002))
    }

    /// Minimum staggering (committed instructions) clearing every sled
    /// hazard, i.e. the maximum of the per-sled minima (0 when no sleds).
    #[must_use]
    pub fn min_safe_stagger(&self) -> u64 {
        self.diagnostics.iter().filter_map(|d| d.min_safe_stagger).max().unwrap_or(0)
    }

    /// Traffic periods of the periodic loops found; safe staggers must avoid
    /// every multiple of each.
    #[must_use]
    pub fn hazardous_periods(&self) -> Vec<u64> {
        let mut p: Vec<u64> = self
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::Div001)
            .filter_map(|d| d.period)
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// Renders every diagnostic plus a one-line summary, rustc style.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(&self.program, self.config.snippet_lines));
            out.push('\n');
        }
        let summary = self.summary_line();
        out.push_str(&summary);
        out.push('\n');
        out
    }

    /// The trailing summary line of [`AnalysisReport::render`].
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "analysis: {} instructions, {} blocks, {} loops; {} errors, {} warnings; \
             min safe stagger {} insts{}",
            self.program.slots.len(),
            self.cfg.blocks.len(),
            self.cfg.loops.len(),
            self.error_count(),
            self.warning_count(),
            self.min_safe_stagger(),
            if self.hazardous_periods().is_empty() {
                String::new()
            } else {
                format!(", avoid stagger multiples of {:?}", self.hazardous_periods())
            }
        )
    }
}

/// Runs the full static diversity analysis on a linked program.
#[must_use]
pub fn analyze(prog: &Program, config: &AnalysisConfig) -> AnalysisReport {
    let program = DecodedProgram::from_program(prog);
    let cfg = Cfg::build(&program);
    let diagnostics = lints::run_lints(&program, &cfg, config);
    AnalysisReport { program, cfg, config: config.clone(), diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;

    #[test]
    fn report_summarizes_and_renders() {
        let mut a = Asm::new();
        a.nops(20);
        let l = a.new_label("l");
        a.bind(l).unwrap();
        a.j(l);
        let prog = a.link(0x8000_0000).unwrap();
        let report = analyze(&prog, &AnalysisConfig::default());
        assert!(report.error_count() >= 2, "{}", report.render());
        assert!(report.min_safe_stagger() >= 7);
        assert_eq!(report.hazardous_periods(), vec![1]);
        let text = report.render();
        assert!(text.contains("DIV001") && text.contains("DIV002"));
        assert!(text.contains("min safe stagger"));
    }

    #[test]
    fn clean_program_has_no_guaranteed_hazards() {
        let mut a = Asm::new();
        a.li(safedm_isa::Reg::A0, 0x8010_0000);
        a.lw(safedm_isa::Reg::T0, 0, safedm_isa::Reg::A0);
        a.addi(safedm_isa::Reg::T0, safedm_isa::Reg::T0, 1);
        a.ebreak();
        let prog = a.link(0x8000_0000).unwrap();
        let report = analyze(&prog, &AnalysisConfig::default());
        assert_eq!(report.guaranteed_hazards().count(), 0, "{}", report.render());
    }
}
