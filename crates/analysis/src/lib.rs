//! # safedm-analysis — static diversity analyzer
//!
//! An abstract-interpretation prover that predicts **no-diversity hazards**
//! in a linked [`Program`](safedm_asm::Program) *before* it ever runs under
//! the SafeDM monitor.
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
//! | `DIV001` | error/warning | cycle-periodic loop: traffic repeats with period *p* ≤ FIFO depth — guaranteed data-signature collision at stagger ≡ 0 (mod *p*) |
//! | `DIV002` | error | identical-instruction sled longer than the pipeline — guaranteed instruction-signature collision below its minimum safe stagger |
//! | `DIV003` | warning | data-independent loop: no load or CSR read and every read provably equal across cores, so redundant cores compute identical traffic |
//! | `DIV004` | error | the configured staggering is defeated by a DIV001/DIV002 hazard |
//! | `DIV005` | error | prover: data-signature collision proved at the configured stagger (lockstep or period re-alignment) |
//! | `DIV006` | warning | prover: instruction-signature collision window proved (opcode streams re-align) |
//! | `DIV007` | error | prover: configured stagger violates a loop's minimum-safe-stagger certificate |
//! | `DIV008` | warning | prover: diversity unprovable for a loop, with a refuting witness |
//! | `DIV009` | warning | pair prover: the diversity transform left a residue (shared encoding / unmapped body) that is not provably diverse at stagger 0 |
//! | `DIV010` | error | pair prover: correspondence-map violation — the twin is not a faithful renaming of the original |
//!
//! Every finding comes from one of two provers. The abstract-interpretation
//! prover ([`absint::prove`]) runs a worklist fixpoint over interval,
//! congruence and relational stagger-offset domains, gives every program
//! point a verdict and every loop a minimum-safe-stagger certificate, and
//! derives DIV001–DIV008 from those facts. The two-program relational
//! prover ([`absint::prove_pair`]) verifies a transform-produced
//! correspondence map between a program and its diversity-transformed twin,
//! certifies encoding-disjoint loop-body pairs diverse at stagger 0, and
//! reports DIV009/DIV010. [`SoundnessGuard`] checks both halves of the
//! verdicts against the runtime monitor.
//!
//! The pipeline: [`analyze`] decodes the text section
//! ([`cfg::DecodedProgram`]) and builds basic blocks, dominators and natural
//! loops ([`cfg::Cfg`]); the provers run on that front end, and findings
//! come back as rustc-style [`diag::Diagnostic`]s.
//!
//! ```
//! use safedm_analysis::{analyze, prove, AnalysisConfig, LintCode};
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
//! let proof = prove(&report.program, &report.cfg, &report.config);
//! assert!(proof.diagnostics.iter().any(|d| d.code == LintCode::Div001));
//! println!("{}", proof.render(&report.program, report.config.snippet_lines));
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod guard;
pub mod sarif;
pub mod summary;

pub use absint::{
    prove, prove_pair, Abs, AbsInt, AbsState, LoopCertificate, PairCertificate, PairReport,
    ProveReport, Sled, Verdict,
};
pub use baseline::{Baseline, BaselineEntry, BaselineFilter};
pub use callgraph::{CallGraph, CallSite, CallTarget, Function};
pub use cfg::{BasicBlock, Cfg, DecodedProgram, NaturalLoop, Slot, Terminator};
pub use dataflow::{ConstProp, ConstVal};
pub use diag::{Diagnostic, Level, LintCode, LintLevels, PcSpan, Severity};
pub use guard::{CollisionCheck, SoundnessGuard};
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
    /// known. Enables the DIV004, DIV006 and DIV007 checks.
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
    /// applied once, to the whole finding list of [`prove`] or
    /// [`prove_pair`].
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

/// The analyzer's front end for one program: the decoded text section and
/// its control-flow graph, which the provers run on.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The decoded text section the findings refer to.
    pub program: DecodedProgram,
    /// Control-flow graph with dominator-derived natural loops.
    pub cfg: Cfg,
    /// The configuration the analysis runs with.
    pub config: AnalysisConfig,
}

/// Decodes a linked program's text section and builds its CFG. The
/// findings come from [`prove`] (or [`prove_pair`] for a twin pair) over
/// the result.
#[must_use]
pub fn analyze(prog: &Program, config: &AnalysisConfig) -> AnalysisReport {
    let program = DecodedProgram::from_program(prog);
    let cfg = Cfg::build(&program);
    AnalysisReport { program, cfg, config: config.clone() }
}
