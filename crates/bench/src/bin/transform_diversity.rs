//! Transform-diversity experiment: software-diversity transform
//! aggressiveness vs proved-diverse coverage vs runtime overhead, across
//! the TACLe kernels, against the two baselines the transform is meant to
//! replace — *natural* diversity (identical binaries, stagger 0) and
//! *nop-staggering* (identical binaries, a 100-nop sled).
//!
//! Every cell is machine-checked against the dynamic SafeDM monitor by the
//! prover's `SoundnessGuard`, exactly like `prove_soundness`: a
//! no-diversity cycle observed inside a region the (pair) prover marked
//! `ProvedDiverse` is a soundness violation and fails the run, once both
//! cores' last-committed PCs have stayed inside the same certified region
//! (a span pair, for a twin) for `2 * data_fifo_depth` consecutive observed
//! cycles, so both signature FIFOs hold only in-region traffic.
//!
//! Cells run on the `safedm-campaign` pool with ordered collection:
//! stdout is byte-identical for any `--jobs N`.
//!
//! Usage: `cargo run -p safedm-bench --bin transform_diversity --release
//! [--quick] [--jobs N] [--max-cycles N] [--seed S]
//! [--events-out PATH] [--events-timing] [--progress]`
//!
//! Every cell here *is* a monitor machine-check, so it always runs on the
//! cycle-accurate engine (the fast engine has no monitor probes to check
//! against).

use std::process::ExitCode;
use std::sync::Arc;

use safedm_analysis::{
    analyze, prove, prove_pair, AnalysisConfig, CollisionCheck, SoundnessGuard, Verdict,
};
use safedm_asm::transform::TransformConfig;
use safedm_asm::Program;
use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, run_guarded, Telemetry};
use safedm_campaign::ConfigGrid;
use safedm_core::SafeDmConfig;
use safedm_isa::Reg;
use safedm_obs::events::CellEvent;
use safedm_tacle::{
    build_kernel_program, build_twin_program, kernels, HarnessConfig, Kernel, StaggerConfig,
    TwinConfig,
};

/// One point on the diversity-mechanism axis.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Identical binaries, stagger 0: whatever diversity occurs naturally.
    Natural,
    /// Identical binaries behind a 100-nop staggering sled (the SafeDM
    /// deployment the transform competes with).
    Nops100,
    /// Composed diversity twin at transform level 1..=3, stagger 0.
    Level(u8),
}

impl Mode {
    fn name(self) -> String {
        match self {
            Mode::Natural => "natural".to_owned(),
            Mode::Nops100 => "nops-100".to_owned(),
            Mode::Level(l) => format!("transform-L{l}"),
        }
    }
}

/// Everything precomputed for one (kernel, mode) cell: the program image,
/// a guard armed with its proved regions, and the proved-diverse loop
/// coverage.
struct Setup {
    prog: Arc<Program>,
    guard: SoundnessGuard,
    loops: usize,
    diverse: usize,
    golden: u64,
}

fn build_setup(k: &Kernel, mode: Mode, seed: u64) -> Setup {
    let golden = (k.reference)();
    match mode {
        Mode::Natural | Mode::Nops100 => {
            let nops = if mode == Mode::Nops100 { 100u64 } else { 0 };
            let stagger =
                (nops > 0).then_some(StaggerConfig { nops: nops as usize, delayed_core: 1 });
            let prog =
                build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() });
            let cfg = AnalysisConfig {
                stagger_nops: (nops > 0).then_some(nops),
                stagger_phase: if nops > 0 { -1 } else { 0 },
                ..AnalysisConfig::default()
            };
            let report = analyze(&prog, &cfg);
            let proof = prove(&report.program, &report.cfg, &cfg);
            let loops = proof.certificates.len();
            let diverse =
                proof.certificates.iter().filter(|c| c.verdict == Verdict::ProvedDiverse).count();
            let guard = SoundnessGuard::new(&proof, SafeDmConfig::default().data_fifo_depth);
            Setup { prog: Arc::new(prog), guard, loops, diverse, golden }
        }
        Mode::Level(level) => {
            let tcfg = TwinConfig {
                transform: TransformConfig::level(seed, level),
                ..TwinConfig::default()
            };
            let tw = build_twin_program(k, &tcfg);
            let cfg = AnalysisConfig { pair_mode: true, ..AnalysisConfig::default() };
            let report = analyze(&tw.program, &cfg);
            let pr = prove_pair(&report.program, &report.cfg, &tw.map, &cfg);
            assert!(pr.map_ok, "{}: transform produced an unfaithful twin (DIV010)", k.name);
            let loops = pr.certificates.len();
            let diverse = pr.count(Verdict::ProvedDiverse);
            let guard = SoundnessGuard::for_pair(&pr, SafeDmConfig::default().data_fifo_depth);
            Setup { prog: Arc::new(tw.program), guard, loops, diverse, golden }
        }
    }
}

/// Dynamic observations of one cell.
struct CellOut {
    cycles: u64,
    observed: u64,
    no_div: u64,
    guarded: u64,
    violations: usize,
    /// An unconfirmed DIV001/DIV002 collision region (the guard's other
    /// failure).
    refuted: bool,
    checksum_ok: bool,
}

fn run_cell(setup: &Setup, max_cycles: u64) -> CellOut {
    let mut guard = setup.guard.clone();
    let sys = run_guarded(&setup.prog, &mut guard, max_cycles);
    let timed_out = !sys.soc().all_halted();
    let checksum_ok = !timed_out && (0..2).all(|c| sys.soc().core(c).reg(Reg::A0) == setup.golden);
    let counters = sys.monitor().counters();
    CellOut {
        cycles: sys.soc().cycle(),
        observed: counters.cycles_observed,
        no_div: counters.no_div_cycles,
        guarded: guard.guarded,
        violations: guard.violations.len(),
        refuted: guard.collisions().iter().any(CollisionCheck::refuted),
        checksum_ok,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args::flag(&args, "--quick");
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let max_cycles = args::or_exit(args::parsed_or::<u64>(&args, "--max-cycles", 20_000_000));
    let seed = args::or_exit(args::parsed_or::<u64>(&args, "--seed", 0x5afe_d1f0));

    let targets: Vec<&'static Kernel> = if quick {
        ["fac", "bitcount", "insertsort"]
            .iter()
            .map(|n| kernels::by_name(n).expect("kernel"))
            .collect()
    } else {
        kernels::all().iter().collect()
    };
    let modes: Vec<Mode> = if quick {
        vec![Mode::Natural, Mode::Nops100, Mode::Level(3)]
    } else {
        vec![Mode::Natural, Mode::Nops100, Mode::Level(1), Mode::Level(2), Mode::Level(3)]
    };

    let grid = ConfigGrid {
        kernels: targets,
        staggers: modes,
        configs: vec![()],
        runs: 1,
        root_seed: 2024,
    };

    // Static phase: build + prove every (kernel, mode) cell once, up front.
    // Setup index == cell index (configs and runs are singleton axes).
    let cells = grid.cells();
    let setups: Vec<Setup> =
        cells.iter().map(|cell| build_setup(cell.kernel, cell.stagger, seed)).collect();

    if telemetry.progress {
        eprintln!(
            "transform-diversity: {} kernels x {} modes on {jobs} worker(s), max {max_cycles} \
             cycles, seed {seed:#x}",
            grid.kernels.len(),
            grid.staggers.len()
        );
    }

    // Dynamic phase: machine-check every cell under the monitor.
    let results = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |cell| cell.kernel.name.to_owned(),
        |_, cell| run_cell(&setups[cell.index], max_cycles),
        |index, cell, r| CellEvent {
            index,
            kernel: cell.kernel.name.to_owned(),
            config: cell.stagger.name(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: cell.seed,
            cycles: r.cycles,
            guarded: r.guarded,
            zero_stag: 0,
            no_div: r.no_div,
            episodes: 0,
            violations: r.violations as u64,
            ok: r.checksum_ok && r.violations == 0 && !r.refuted,
            wall_us: None,
        },
    );

    println!(
        "{:<16} {:<14} {:>5} {:>7} {:>6} {:>10} {:>7} {:>10} {:>8} {:>8} {:>10} {:>6}",
        "kernel",
        "mode",
        "loops",
        "diverse",
        "cov%",
        "cycles",
        "ovh%",
        "observed",
        "no-div",
        "guarded",
        "violations",
        "check"
    );
    let mut total_violations = 0usize;
    let mut total_guarded = 0u64;
    let mut bad_runs = 0usize;
    // Natural-mode cycle baseline per kernel, for the overhead column. The
    // modes axis varies faster than the kernel axis, so the Natural cell of
    // each kernel precedes its other modes in canonical order.
    let modes_per_kernel = grid.staggers.len();
    for (cell, r) in cells.iter().zip(&results) {
        let s = &setups[cell.index];
        total_violations += r.violations;
        total_guarded += r.guarded;
        if !r.checksum_ok || r.refuted {
            bad_runs += 1;
        }
        let base = results[(cell.index / modes_per_kernel) * modes_per_kernel].cycles;
        let ovh = (r.cycles as f64 - base as f64) / base as f64 * 100.0;
        let cov = if s.loops == 0 {
            "-".to_owned()
        } else {
            format!("{:.0}", s.diverse as f64 / s.loops as f64 * 100.0)
        };
        println!(
            "{:<16} {:<14} {:>5} {:>7} {:>6} {:>10} {:>7.1} {:>10} {:>8} {:>8} {:>10} {:>6}",
            cell.kernel.name,
            cell.stagger.name(),
            s.loops,
            s.diverse,
            cov,
            r.cycles,
            ovh,
            r.observed,
            r.no_div,
            r.guarded,
            r.violations,
            if r.checksum_ok { "ok" } else { "FAIL" }
        );
    }

    println!();
    if total_violations == 0 && bad_runs == 0 {
        println!(
            "TRANSFORM-DIVERSITY: PASS ({} cells, {} warmup-gated cycles guarded, 0 violations)",
            cells.len(),
            total_guarded
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "TRANSFORM-DIVERSITY: FAIL ({total_violations} violations, {bad_runs} bad runs \
             across {} cells)",
            cells.len()
        );
        ExitCode::FAILURE
    }
}
