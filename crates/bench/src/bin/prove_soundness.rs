//! Soundness harness for the abstract-interpretation diversity prover:
//! runs every TACLe kernel (plus synthetic programs that actually earn
//! `ProvedDiverse` certificates) across a stagger grid under the *dynamic*
//! SafeDM monitor, with the prover's `SoundnessGuard` checking both halves
//! of its verdicts.
//!
//! The diverse half is warmup-gated: a no-diversity verdict only counts
//! against a `ProvedDiverse` region (the loop span plus any spliced
//! callee-body spans) once both cores' last-committed PCs have stayed
//! inside that same region for at least `2 * data_fifo_depth` consecutive
//! observed cycles, so both signature FIFOs contain only in-region traffic.
//! The collision half counts, per `ProvedCollision` region, the cycles that
//! meet the verdict's precondition (both cores' last commits in the region
//! at the assumed stream lead): each row reports the regions met, confirmed
//! by a no-diversity cycle, and unconfirmed. The run fails on a diverse-half
//! violation or on an unconfirmed DIV001/DIV002 region; other unconfirmed
//! regions are listed.
//!
//! Cells run on the `safedm-campaign` pool with ordered collection:
//! stdout is byte-identical for any `--jobs N`.
//!
//! Usage: `cargo run -p safedm-bench --bin prove_soundness --release
//! [--quick] [--jobs N] [--staggers 0,100,1000,10000] [--max-cycles N]
//! [--events-out PATH] [--events-timing] [--progress]`

use std::process::ExitCode;
use std::sync::Arc;

use safedm_analysis::{analyze, prove, AnalysisConfig, ProveReport, SoundnessGuard};
use safedm_asm::{Asm, Program};
use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, run_guarded, Telemetry};
use safedm_campaign::ConfigGrid;
use safedm_core::SafeDmConfig;
use safedm_isa::Reg;
use safedm_obs::events::CellEvent;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, Kernel, StaggerConfig};

/// One program under test: a TACLe kernel or a synthetic diverse-by-proof
/// program.
#[derive(Clone)]
enum Target {
    Tacle(&'static Kernel),
    Synth(&'static str),
}

impl Target {
    fn name(&self) -> &'static str {
        match self {
            Target::Tacle(k) => k.name,
            Target::Synth(n) => n,
        }
    }

    fn build(&self, stagger: Option<StaggerConfig>) -> Program {
        match self {
            Target::Tacle(k) => {
                build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() })
            }
            Target::Synth("countdown") => synth_countdown(stagger),
            Target::Synth("memcpy") => synth_memcpy(stagger),
            Target::Synth("call-loop") => synth_call_loop(stagger),
            Target::Synth(other) => unreachable!("unknown synthetic {other}"),
        }
    }
}

/// Emits the same hart-gated nop sled as the TACLe harness prologue: the
/// delayed hart commits `nops` nops, the other commits one `j skip`, so the
/// effective committed-instruction delta is `nops - 1` (sled phase `-1`).
fn sled(a: &mut Asm, st: StaggerConfig) {
    let sled = a.new_label("sled");
    let skip = a.new_label("skip_sled");
    a.hartid(Reg::T0);
    a.li(Reg::T1, st.delayed_core as i64);
    a.beq(Reg::T0, Reg::T1, sled);
    a.j(skip);
    a.bind(sled).expect("fresh label");
    a.nops(st.nops);
    a.bind(skip).expect("fresh label");
}

/// A long countdown loop: two instructions per iteration, each reading the
/// iteration-injective counter — the simplest loop the prover certifies
/// `ProvedDiverse` at any effective stagger >= 2. Long enough that both
/// cores overlap inside the loop even at a 10000-nop sled.
fn synth_countdown(stagger: Option<StaggerConfig>) -> Program {
    let mut a = Asm::new();
    if let Some(st) = stagger {
        sled(&mut a, st);
    }
    a.li(Reg::T0, 60_000);
    let l = a.new_label("l");
    a.bind(l).unwrap();
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, l);
    a.ebreak();
    a.link(0x8000_0000).unwrap()
}

/// A countdown loop whose body lives behind `call leaf`: the leaf is a
/// straight-line composable function, so the prover certifies the loop
/// through its *spliced* stream (`jal` + leaf body + `ret` + counter step)
/// built from the interprocedural summaries. Every certificate this target
/// earns is therefore a whole-program one, cross-checked dynamically.
fn synth_call_loop(stagger: Option<StaggerConfig>) -> Program {
    let mut a = Asm::new();
    if let Some(st) = stagger {
        sled(&mut a, st);
    }
    a.li(Reg::T0, 60_000);
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
    a.link(0x8000_0000).unwrap()
}

/// A memcpy-style loop with loads and stores: qualifies via the injective
/// closure (every instruction reads an injective pointer or counter) plus
/// the relational memory-equality proof.
fn synth_memcpy(stagger: Option<StaggerConfig>) -> Program {
    const WORDS: usize = 16_384; // 64 KiB copied, 4 bytes per iteration
    let mut a = Asm::new();
    let src: Vec<u64> = (0..WORDS as u64 / 2).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let src = a.d_dwords("src", &src);
    let dst = a.d_dwords("dst", &vec![0u64; WORDS / 2]);
    if let Some(st) = stagger {
        sled(&mut a, st);
    }
    a.la(Reg::A0, src);
    a.la(Reg::A1, dst);
    a.li(Reg::T0, WORDS as i64);
    let l = a.new_label("l");
    a.bind(l).unwrap();
    a.lw(Reg::T1, 0, Reg::A0);
    a.sw(Reg::T1, 0, Reg::A1);
    a.addi(Reg::A0, Reg::A0, 4);
    a.addi(Reg::A1, Reg::A1, 4);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, l);
    a.ebreak();
    a.link(0x8000_0000).unwrap()
}

/// Everything precomputed for one (target, stagger) setup.
struct Setup {
    prog: Arc<Program>,
    proof: ProveReport,
    golden: Option<u64>,
}

/// Dynamic observations of one cell.
struct CellOut {
    cycles: u64,
    observed: u64,
    no_div: u64,
    guard: SoundnessGuard,
    timed_out: bool,
    checksum_ok: bool,
}

fn run_cell(setup: &Setup, max_cycles: u64) -> CellOut {
    let mut guard = SoundnessGuard::new(&setup.proof, SafeDmConfig::default().data_fifo_depth);
    let sys = run_guarded(&setup.prog, &mut guard, max_cycles);
    let timed_out = !sys.soc().all_halted();
    let checksum_ok = match setup.golden {
        Some(golden) => !timed_out && (0..2).all(|c| sys.soc().core(c).reg(Reg::A0) == golden),
        None => !timed_out,
    };
    let counters = sys.monitor().counters();
    CellOut {
        cycles: sys.soc().cycle(),
        observed: counters.cycles_observed,
        no_div: counters.no_div_cycles,
        guard,
        timed_out,
        checksum_ok,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args::flag(&args, "--quick");
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let max_cycles = args::or_exit(args::parsed_or::<u64>(&args, "--max-cycles", 20_000_000));

    let staggers: Vec<u64> = match args::list_or_exit::<u64>(&args, "--staggers") {
        Some(list) => list,
        None if quick => vec![0, 100],
        None => vec![0, 100, 1000, 10000],
    };

    let mut targets: Vec<Target> = if quick {
        ["fac", "bitcount", "insertsort"]
            .iter()
            .map(|n| Target::Tacle(kernels::by_name(n).expect("kernel")))
            .collect()
    } else {
        kernels::all().iter().map(Target::Tacle).collect()
    };
    targets.push(Target::Synth("countdown"));
    targets.push(Target::Synth("memcpy"));
    targets.push(Target::Synth("call-loop"));

    let grid =
        ConfigGrid { kernels: targets, staggers, configs: vec![()], runs: 1, root_seed: 2024 };

    // Static phase: prove every (target, stagger) setup once, up front.
    // Setup index == cell index (runs and configs are singleton axes).
    let cells = grid.cells();
    let setups: Vec<Setup> = cells
        .iter()
        .map(|cell| {
            let nops = cell.stagger;
            let stagger =
                (nops > 0).then_some(StaggerConfig { nops: nops as usize, delayed_core: 1 });
            let prog = cell.kernel.build(stagger);
            let cfg = AnalysisConfig {
                stagger_nops: (nops > 0).then_some(nops),
                stagger_phase: if nops > 0 { -1 } else { 0 },
                ..AnalysisConfig::default()
            };
            let report = analyze(&prog, &cfg);
            let proof = prove(&report.program, &report.cfg, &cfg);
            let golden = match cell.kernel {
                Target::Tacle(k) => Some((k.reference)()),
                Target::Synth(_) => None,
            };
            Setup { prog: Arc::new(prog), proof, golden }
        })
        .collect();

    if telemetry.progress {
        eprintln!(
            "prove-soundness: {} targets x {} staggers on {jobs} worker(s), max {max_cycles} \
             cycles",
            grid.kernels.len(),
            grid.staggers.len()
        );
    }

    // Dynamic phase: run every cell under the monitor, in parallel.
    let results = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |cell| cell.kernel.name().to_owned(),
        |_, cell| run_cell(&setups[cell.index], max_cycles),
        |index, cell, r| CellEvent {
            index,
            kernel: cell.kernel.name().to_owned(),
            config: format!("nops={}", cell.stagger),
            engine: "cycle".to_owned(),
            run: 0,
            seed: cell.seed,
            cycles: r.cycles,
            guarded: r.guard.guarded,
            zero_stag: 0,
            no_div: r.no_div,
            episodes: 0,
            violations: r.guard.violations.len() as u64,
            ok: r.checksum_ok && !r.timed_out && r.guard.passed(),
            wall_us: None,
        },
    );

    println!(
        "{:<16} {:>7} {:>8} {:>10} {:>10} {:>8} {:>8} {:>4} {:>5} {:>7} {:>10} {:>6}",
        "target",
        "nops",
        "eff",
        "cycles",
        "observed",
        "no-div",
        "guarded",
        "met",
        "conf",
        "unconf",
        "violations",
        "check"
    );
    let mut total_violations = 0usize;
    let mut total_guarded = 0u64;
    let mut bad_runs = 0usize;
    let (mut total_met, mut total_unconfirmed, mut refuted) = (0usize, 0usize, 0usize);
    for (cell, r) in cells.iter().zip(&results) {
        let g = &r.guard;
        let (met, confirmed, unconfirmed) = g.collision_counts();
        total_violations += g.violations.len();
        total_guarded += g.guarded;
        total_met += met;
        total_unconfirmed += unconfirmed;
        if !r.checksum_ok || r.timed_out {
            bad_runs += 1;
        }
        println!(
            "{:<16} {:>7} {:>8} {:>10} {:>10} {:>8} {:>8} {:>4} {:>5} {:>7} {:>10} {:>6}",
            cell.kernel.name(),
            cell.stagger,
            setups[cell.index].proof.effective_stagger,
            r.cycles,
            r.observed,
            r.no_div,
            g.guarded,
            met,
            confirmed,
            unconfirmed,
            g.violations.len(),
            if r.checksum_ok { "ok" } else { "FAIL" }
        );
        for &(cycle, p0, p1) in g.violations.iter().take(5) {
            println!(
                "  VIOLATION {} nops={}: no-diversity cycle {cycle} inside ProvedDiverse \
                 region (pc0={p0:#x}, pc1={p1:#x})",
                cell.kernel.name(),
                cell.stagger
            );
        }
        for c in g.collisions().iter().filter(|c| c.met() && !c.confirmed()) {
            refuted += usize::from(c.refuted());
            println!(
                "  {} {} nops={}: {} {} met its precondition in {} cycles without a \
                 no-diversity cycle",
                if c.refuted() { "REFUTED" } else { "unconfirmed" },
                cell.kernel.name(),
                cell.stagger,
                c.code,
                c.spans[0],
                c.met_cycles
            );
        }
    }

    println!();
    println!(
        "collision half: {total_met} regions met their precondition, {total_unconfirmed} \
         without a no-diversity cycle ({refuted} of them DIV001/DIV002)"
    );
    if total_violations == 0 && bad_runs == 0 && refuted == 0 {
        println!(
            "PROVE-SOUNDNESS: PASS ({} cells, {} warmup-gated cycles guarded, 0 violations)",
            cells.len(),
            total_guarded
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "PROVE-SOUNDNESS: FAIL ({total_violations} violations, {refuted} refuted collision \
             regions, {bad_runs} bad runs across {} cells)",
            cells.len()
        );
        ExitCode::FAILURE
    }
}
