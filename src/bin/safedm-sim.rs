//! `safedm-sim` — command-line driver for the monitored MPSoC.
//!
//! Assemble a RISC-V source file (or pick a built-in TACLe kernel), run it
//! redundantly under SafeDM, and report the diversity verdict; optionally
//! dump a VCD waveform or a commit trace.
//!
//! The `analyze` subcommand runs the static diversity prover
//! (`safedm-analysis`) instead of the simulator, and with `--gate` checks
//! both halves of its verdicts against the runtime monitor. With `--pair`
//! it analyzes the composed diversity-transformed twin of a kernel and
//! also runs the two-program relational prover, certifying
//! encoding-disjoint loop pairs diverse **at stagger 0**.
//! The `transform` subcommand reports what the diversity transform did to a
//! kernel (and `--verify` differentially checks the twin on the ISS).
//! The `trace` subcommand records a Chrome trace-event timeline
//! (chrome://tracing, Perfetto) of a monitored run; `stats` emits the full
//! metric snapshot, optionally with a wall-clock self-profile.
//!
//! ```text
//! safedm-sim program.s [--base 0x80000000] [--stagger N [--delayed-core C]]
//!            [--engine cycle|fast]
//!            [--vcd out.vcd [--vcd-cycles N]] [--trace N] [--json]
//! safedm-sim --kernel bitcount [...]
//! safedm-sim analyze <program.s | --kernel NAME | --kernel all> [--stagger N]
//!            [--gate [--max-cycles N]]
//!            [--deny IDS] [--warn IDS] [--allow IDS]
//!            [--sarif FILE] [--baseline FILE] [--write-baseline FILE]
//! safedm-sim analyze --pair --kernel <NAME | all> [--seed S] [--level L]
//! safedm-sim transform <NAME | all> [--seed S] [--level L] [--verify]
//! safedm-sim trace <kernel | program.s> [--cycles N] [--out FILE] [--jsonl]
//! safedm-sim stats <kernel | program.s> [--cycles N] [--json] [--profile]
//! safedm-sim campaign [--kernels a,b] [--staggers 0,100] [--runs N]
//!            [--root-seed S] [--jobs N] [--engine cycle|fast]
//!            [--json] [--profile]
//!            [--events-out FILE [--events-timing]] [--progress]
//! safedm-sim serve [--addr HOST:PORT] [--jobs N]
//!            [--cache-cap N] [--cache-dir DIR]
//! safedm-sim report --events FILE [--metrics FILE] [--html FILE] [--top N]
//! safedm-sim --list-kernels
//! ```
//!
//! `--engine` selects the execution engine (see `safedm_soc::fastpath`):
//! `cycle` (default) is the cycle-accurate monitored model; `fast` is the
//! functional twin (two reference-ISS harts) with 1-IPC proxy counters.
//!
//! The `campaign` subcommand builds a `safedm-api/1`
//! [`CampaignSpec`](safedm::campaign::spec) from its flags and executes it
//! through the shared campaign service (`safedm_bench::service`): per-cell
//! seeds derive from `--root-seed` and the cell index alone, and results
//! collect in grid order, so the output is byte-identical for every
//! `--jobs N`. The `serve` subcommand exposes the same engine over a
//! dependency-free HTTP/1.1 surface (`POST /v1/campaigns`, chunked
//! `GET /v1/campaigns/{id}/events`, `GET /v1/campaigns/{id}/result`,
//! `GET /v1/healthz`) with a content-addressed result cache in front —
//! repeated cells replay their stored bytes without re-simulation (see
//! DESIGN.md §11; the `safedm-sdk` crate is the matching client).
//! `--events-out` additionally writes one [`safedm::obs::events`] JSONL
//! record per cell (also byte-identical across `--jobs`; per-cell
//! wall-clock is stripped unless `--events-timing` opts in), and
//! `--progress` turns on a live stderr progress line — without it the
//! campaign keeps stderr quiet.
//!
//! The `report` subcommand consumes a campaign event stream (plus an
//! optional metrics snapshot) and renders the campaign telemetry report —
//! per-kernel summary, a diversity/episode heatmap, the slowest cells and
//! a stall-cause Pareto — to the terminal and optionally as a
//! self-contained HTML page (`--html`).

use std::process::ExitCode;

use safedm::analysis::baseline::{Baseline, BaselineFilter};
use safedm::analysis::{
    analyze, prove, prove_pair, sarif, AnalysisConfig, Diagnostic, LintLevels, Severity,
    SoundnessGuard,
};
use safedm::asm::transform::TransformConfig;
use safedm::asm::Program;
use safedm::campaign::spec::{CampaignSpec, Protocol};
use safedm::campaign::Progress;
use safedm::monitor::{MonitoredSoc, ObsConfig, ReportMode, RunObserver, SafeDmConfig};
use safedm::obs::events::{CellEvent, Timing};
use safedm::obs::SelfProfiler;
use safedm::soc::fastpath::FastTwin;
use safedm::soc::{Engine, ProbeVcd, SocConfig};
use safedm::tacle::{
    build_kernel_program, build_twin_pair, build_twin_program, kernels, HarnessConfig,
    StaggerConfig, TwinConfig,
};
use safedm_bench::experiments::run_guarded;
use safedm_bench::http::{ServeConfig, Server};
use safedm_bench::{args, service};

// Argument parsing lives in `safedm_bench::args` — the one parser shared
// by this CLI and every bench binary (PR 9 replaced the per-binary
// copies). `args::value`, `args::flag`, `args::u64_or`, … below all refer
// to that module.

/// Every flag of this CLI that takes no value (each `args::flag` below),
/// so that a positional argument may follow one.
const SWITCHES: &[&str] = &[
    "--events-timing",
    "--gate",
    "--help",
    "--json",
    "--jsonl",
    "--list-kernels",
    "--pair",
    "--profile",
    "--progress",
    "--verify",
];

fn usage() -> &'static str {
    "usage: safedm-sim <program.s | --kernel NAME | --list-kernels>\n\
     \x20      [--base ADDR] [--stagger NOPS [--delayed-core 0|1]]\n\
     \x20      [--engine cycle|fast]\n\
     \x20      [--vcd FILE [--vcd-cycles N]] [--trace N] [--max-cycles N] [--json]\n\
     \x20      safedm-sim analyze <program.s | --kernel NAME | --kernel all>\n\
     \x20      [--base ADDR] [--stagger NOPS] [--gate] [--max-cycles N]\n\
     \x20      [--pair [--seed S] [--level 0..3]]\n\
     \x20      [--deny IDS] [--warn IDS] [--allow IDS]\n\
     \x20      [--sarif FILE] [--baseline FILE] [--write-baseline FILE]\n\
     \x20      safedm-sim transform <NAME | all | --kernel NAME>\n\
     \x20      [--seed S] [--level 0..3] [--verify]\n\
     \x20      safedm-sim trace <kernel | program.s>\n\
     \x20      [--cycles N] [--out FILE] [--jsonl] [--events N] [--interval N]\n\
     \x20      safedm-sim stats <kernel | program.s>\n\
     \x20      [--cycles N] [--json] [--metrics-out FILE] [--profile] [--interval N]\n\
     \x20      safedm-sim campaign\n\
     \x20      [--kernels a,b,..] [--staggers 0,100,..] [--runs N]\n\
     \x20      [--root-seed S] [--jobs N] [--engine cycle|fast]\n\
     \x20      [--json] [--profile]\n\
     \x20      [--events-out FILE [--events-timing]] [--progress]\n\
     \x20      safedm-sim serve\n\
     \x20      [--addr HOST:PORT] [--jobs N] [--cache-cap N] [--cache-dir DIR]\n\
     \x20      safedm-sim report --events FILE\n\
     \x20      [--metrics FILE] [--html FILE] [--top N]"
}

/// Resolves the positional target of a subcommand: a built-in kernel name
/// first, then a RISC-V source file path.
fn resolve_target(args: &[String], base: u64) -> Result<(String, Program), String> {
    let target = args::positional(args, SWITCHES).ok_or_else(|| usage().to_owned())?;
    if let Some(k) = kernels::by_name(target) {
        return Ok((target.clone(), build_kernel_program(k, &HarnessConfig::default())));
    }
    let source =
        std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
    let prog = safedm::asm::assemble(&source, base).map_err(|e| e.to_string())?;
    Ok((target.clone(), prog))
}

/// A short name usable in default output filenames (`path/to/x.s` → `x`).
fn file_stem(name: &str) -> String {
    std::path::Path::new(name)
        .file_stem()
        .map_or_else(|| name.to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Runs a program under the monitor with a [`RunObserver`] attached.
fn observed_run(
    args: &[String],
    profile: Option<&mut SelfProfiler>,
) -> Result<(String, MonitoredSoc, RunObserver), String> {
    let base = args::u64_or(args, "--base", 0x8000_0000)?;
    let max_cycles = args::u64_or(args, "--cycles", 500_000_000)?;
    let events = args::u64_or(args, "--events", 1 << 16)?;
    let interval = args::u64_or(args, "--interval", 64)?.max(1);
    let (name, prog) = resolve_target(args, base)?;

    let mut sys = MonitoredSoc::new(
        SocConfig::default(),
        SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() },
    );
    sys.load_program(&prog);
    let mut obs = RunObserver::new(
        ObsConfig { trace_capacity: events.max(1) as usize, counter_interval: interval },
        sys.soc().core_count(),
    );

    let mut spent = 0u64;
    if let Some(prof) = profile {
        while spent < max_cycles && !sys.soc().all_halted() {
            let report = sys.step_profiled(prof);
            obs.on_cycle(sys.soc(), sys.monitor(), &report);
            spent += 1;
        }
    }
    sys.run_with(max_cycles - spent, |sys, r| obs.on_cycle(sys.soc(), sys.monitor(), r));
    obs.finish(sys.soc(), sys.monitor());
    if !sys.soc().all_halted() {
        // A bounded window over a longer run is a normal way to trace;
        // report it but keep the collected observations.
        eprintln!("note: budget of {max_cycles} cycles expired before the program halted");
    }
    Ok((name, sys, obs))
}

/// The `trace` subcommand: run under the observer and write the event
/// timeline as Chrome trace-event JSON (default) or JSONL.
fn run_trace(args: &[String]) -> Result<(), String> {
    let (name, _sys, obs) = observed_run(args, None)?;
    let jsonl = args::flag(args, "--jsonl");
    let out = args::value(args, "--out").unwrap_or_else(|| {
        format!("{}.trace.{}", file_stem(&name), if jsonl { "jsonl" } else { "json" })
    });
    let payload = if jsonl { obs.trace_jsonl() } else { obs.chrome_trace_json() };
    std::fs::write(&out, payload).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "wrote {out} ({} events, {} dropped) — open in chrome://tracing or Perfetto",
        obs.trace().len(),
        obs.trace().dropped()
    );
    Ok(())
}

/// The `stats` subcommand: run under the observer and print the metric
/// snapshot (human table or JSON), optionally with a self-profile.
fn run_stats(args: &[String]) -> Result<(), String> {
    let mut prof = SelfProfiler::new();
    let profile = args::flag(args, "--profile");
    let (name, _sys, obs) = observed_run(args, profile.then_some(&mut prof))?;
    let snap = obs.metrics_snapshot();
    if let Some(path) = args::value(args, "--metrics-out") {
        std::fs::write(&path, snap.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if args::flag(args, "--json") {
        println!("{}", snap.to_json());
    } else {
        println!("metrics for `{name}`:");
        print!("{}", snap.render());
    }
    if profile {
        eprintln!("\nsimulator self-profile (wall clock):");
        eprint!("{}", prof.report());
    }
    Ok(())
}

/// The transform configuration shared by `analyze --pair` and `transform`:
/// `--seed` picks the derangement/jitter seed, `--level` the aggressiveness
/// preset (0 identity … 3 full; defaults to 3).
fn twin_config(args: &[String]) -> Result<TwinConfig, String> {
    let seed = args::u64_or(args, "--seed", 0x5afe_d1f0)?;
    let level = args::u64_or(args, "--level", 3)?;
    if level > 3 {
        return Err(format!("--level {level} out of range (0..=3)"));
    }
    Ok(TwinConfig { transform: TransformConfig::level(seed, level as u8), ..TwinConfig::default() })
}

/// Parses the per-lint severity overrides (`--deny/--warn/--allow`, each a
/// comma-separated list of rule ids).
fn lint_levels(args: &[String]) -> Result<LintLevels, String> {
    LintLevels::from_args(
        args::value(args, "--allow").as_deref(),
        args::value(args, "--warn").as_deref(),
        args::value(args, "--deny").as_deref(),
    )
}

/// The shared tail of the lint driver outputs:
///
/// * `--write-baseline FILE` records the full (pre-suppression) finding set
///   as a committed acceptance file;
/// * `--baseline FILE` drops every accepted finding, warns about stale
///   entries, and turns the run into a **gate**: any surviving
///   error-severity finding fails it;
/// * `--sarif FILE` writes the post-suppression findings as a SARIF 2.1.0
///   log.
fn lint_outputs(args: &[String], mut runs: Vec<(String, Vec<Diagnostic>)>) -> Result<(), String> {
    if let Some(path) = args::value(args, "--write-baseline") {
        let b = Baseline::from_findings(&runs);
        std::fs::write(&path, b.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({} entries)", b.entries.len());
    }
    let gated = if let Some(path) = args::value(args, "--baseline") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut filter = BaselineFilter::new(Baseline::parse(&text)?);
        let mut suppressed = 0usize;
        for (name, diags) in &mut runs {
            let before = diags.len();
            *diags = filter.suppress(name, std::mem::take(diags));
            suppressed += before - diags.len();
        }
        for e in filter.stale() {
            eprintln!(
                "warning: stale baseline entry: {} {} at {:#x} no longer fires \
                 (regenerate with --write-baseline)",
                e.program, e.rule, e.pc
            );
        }
        eprintln!("baseline {path}: {suppressed} accepted finding(s) suppressed");
        true
    } else {
        false
    };
    if let Some(path) = args::value(args, "--sarif") {
        std::fs::write(&path, sarif::to_sarif(&runs).render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if gated {
        let mut errors = 0usize;
        for (name, diags) in &runs {
            for d in diags.iter().filter(|d| d.severity == Severity::Error) {
                eprintln!(
                    "lint gate: NEW error[{}] in {name} at {}: {}",
                    d.code, d.span, d.message
                );
                errors += 1;
            }
        }
        if errors > 0 {
            return Err(format!(
                "lint gate: {errors} error finding(s) not covered by the baseline"
            ));
        }
        println!("lint gate: clean against the baseline");
    }
    Ok(())
}

/// A kernel program and its analysis configuration: with `--stagger N`
/// the harness sled makes the delayed hart commit `N` nops while the other
/// hart commits one `j skip`, an effective delta of `N - 1` (phase -1).
fn kernel_setup(
    k: &safedm::tacle::Kernel,
    stagger_nops: Option<u64>,
    levels: &LintLevels,
) -> (Program, AnalysisConfig) {
    let stagger = stagger_nops.map(|nops| StaggerConfig { nops: nops as usize, delayed_core: 1 });
    let prog = build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() });
    let cfg = AnalysisConfig {
        stagger_nops,
        stagger_phase: if stagger.is_some() { -1 } else { 0 },
        levels: levels.clone(),
        ..AnalysisConfig::default()
    };
    (prog, cfg)
}

/// `(errors, warnings)` among `diags`.
fn severity_counts(diags: &[Diagnostic]) -> (usize, usize) {
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    (count(Severity::Error), count(Severity::Warning))
}

/// The `analyze --kernel all` sweep: prove every built-in kernel, print one
/// line each (finding counts, then the prover's summary line), and feed the
/// combined findings through [`lint_outputs`] — this is the CI lint gate
/// (`--sarif` + `--baseline ci/lint-baseline.json`).
fn run_analysis_sweep(
    args: &[String],
    stagger_nops: Option<u64>,
    levels: &LintLevels,
) -> Result<(), String> {
    println!("analysis sweep over {} kernels:", kernels::all().len());
    let mut runs: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for k in kernels::all() {
        let (prog, cfg) = kernel_setup(k, stagger_nops, levels);
        let report = analyze(&prog, &cfg);
        let proof = prove(&report.program, &report.cfg, &cfg);
        let (errors, warnings) = severity_counts(&proof.diagnostics);
        println!("  {errors:>3} error(s) {warnings:>3} warning(s)  {}", proof.summary_line(k.name));
        runs.push((k.name.to_owned(), proof.diagnostics));
    }
    lint_outputs(args, runs)
}

/// The `analyze --pair` path: build the composed diversity twin of a
/// kernel, prove it in pair mode, and run the two-program relational
/// prover, which certifies encoding-disjoint loop pairs diverse at
/// stagger 0. `--kernel all` prints one pair summary line per kernel; a
/// single kernel prints both reports, and a correspondence-map violation
/// (DIV010) is a hard error. Both feed their findings (under the program
/// name `<kernel>.twin`) through [`lint_outputs`].
fn run_analyze_pair(args: &[String], levels: &LintLevels) -> Result<(), String> {
    if args::value(args, "--stagger").is_some() {
        return Err("--pair certifies at stagger 0; --stagger is not applicable".to_owned());
    }
    let tcfg = twin_config(args)?;
    let kname = args::value(args, "--kernel")
        .ok_or_else(|| "--pair needs --kernel NAME (or --kernel all)".to_owned())?;
    let cfg =
        AnalysisConfig { pair_mode: true, levels: levels.clone(), ..AnalysisConfig::default() };
    let prove_twin = |k: &safedm::tacle::Kernel| {
        let tw = build_twin_program(k, &tcfg);
        let report = analyze(&tw.program, &cfg);
        let proof = prove(&report.program, &report.cfg, &cfg);
        let pr = prove_pair(&report.program, &report.cfg, &tw.map, &cfg);
        (tw, report, proof, pr)
    };
    let findings = |proof: &safedm::analysis::ProveReport, pr: &safedm::analysis::PairReport| {
        proof.diagnostics.iter().chain(&pr.diagnostics).cloned().collect::<Vec<_>>()
    };

    if kname == "all" {
        let mut runs = Vec::new();
        for k in kernels::all() {
            let (_, _, proof, pr) = prove_twin(k);
            println!("{}", pr.summary_line(k.name));
            runs.push((format!("{}.twin", k.name), findings(&proof, &pr)));
        }
        return lint_outputs(args, runs);
    }

    let k = kernels::by_name(&kname)
        .ok_or_else(|| format!("unknown kernel `{kname}` (see --list-kernels)"))?;
    let (tw, report, proof, pr) = prove_twin(k);
    println!(
        "twin pair `{}` (transform `{}`, seed {:#x}): original @ {:#x}, variant @ {:#x}",
        k.name,
        tcfg.transform.level_name(),
        tw.report.seed,
        tw.orig_entry,
        tw.var_entry,
    );
    print!("{}", proof.render(&report.program, cfg.snippet_lines));
    println!("\ntwo-program relational prover:");
    print!("{}", pr.render(&report.program, cfg.snippet_lines));
    lint_outputs(args, vec![(format!("{}.twin", k.name), findings(&proof, &pr))])?;
    if !pr.map_ok {
        return Err(
            "correspondence-map violation (DIV010): twin is not a faithful renaming".to_owned()
        );
    }
    Ok(())
}

/// `--stagger N`, bounded by [`args::check_stagger`].
fn stagger_arg(args: &[String]) -> Result<Option<u64>, String> {
    args::opt_u64(args, "--stagger")?.map(|nops| args::check_stagger("--stagger", nops)).transpose()
}

/// The `analyze` subcommand: prove a program (every DIV finding comes from
/// the prover), print the rustc-style report, feed the findings through
/// [`lint_outputs`], and with `--gate` run the program under the monitor
/// with a [`SoundnessGuard`] checking both halves of the verdicts.
/// `--kernel all` sweeps every built-in kernel; `--pair` proves a
/// diversity twin.
fn run_analyze(args: &[String]) -> Result<(), String> {
    let base = args::u64_or(args, "--base", 0x8000_0000)?;
    let stagger_nops = stagger_arg(args)?;
    let max_cycles = args::u64_or(args, "--max-cycles", 500_000_000)?;
    let levels = lint_levels(args)?;
    let gate = args::flag(args, "--gate");

    if args::flag(args, "--pair") {
        return run_analyze_pair(args, &levels);
    }
    if args::value(args, "--kernel").as_deref() == Some("all") {
        return run_analysis_sweep(args, stagger_nops, &levels);
    }

    let (name, prog, cfg) = if let Some(kname) = args::value(args, "--kernel") {
        let k = kernels::by_name(&kname)
            .ok_or_else(|| format!("unknown kernel `{kname}` (see --list-kernels)"))?;
        let (prog, cfg) = kernel_setup(k, stagger_nops, &levels);
        (kname, prog, cfg)
    } else {
        let path = args::positional(args, SWITCHES).ok_or_else(|| usage().to_owned())?;
        if gate && stagger_nops.is_some() {
            return Err(
                "--gate with --stagger needs --kernel (the harness builds the sled)".to_owned()
            );
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let prog = safedm::asm::assemble(&source, base).map_err(|e| e.to_string())?;
        (path.clone(), prog, AnalysisConfig { stagger_nops, levels, ..AnalysisConfig::default() })
    };

    let report = analyze(&prog, &cfg);
    let proof = prove(&report.program, &report.cfg, &cfg);
    println!("static diversity analysis of `{name}`");
    print!("{}", proof.render(&report.program, cfg.snippet_lines));
    let (errors, warnings) = severity_counts(&proof.diagnostics);
    println!(
        "analysis: {} instructions, {} blocks, {} loops; {errors} errors, {warnings} warnings",
        report.program.slots.len(),
        report.cfg.blocks.len(),
        report.cfg.loops.len(),
    );
    lint_outputs(args, vec![(name, proof.diagnostics.clone())])?;

    if gate {
        println!(
            "\nchecking the verdicts against the runtime monitor (effective stagger {}) ...",
            proof.effective_stagger
        );
        let mut guard = SoundnessGuard::new(&proof, cfg.fifo_depth);
        run_guarded(&prog, &mut guard, max_cycles);
        print!("{}", guard.summary());
        if !guard.passed() {
            return Err("the runtime monitor REFUTED a proved verdict".to_owned());
        }
        let (met, confirmed, unconfirmed) = guard.collision_counts();
        println!(
            "gate: {met}/{} proved-collision regions met their precondition ({confirmed} \
             confirmed, {unconfirmed} unconfirmed), {} diverse-half violations",
            guard.collisions().len(),
            guard.violations.len()
        );
    }
    Ok(())
}

/// Builds the shared [`CampaignSpec`] from `campaign` CLI flags — the
/// same `safedm-api/1` request document `safedm-sim serve` accepts over
/// HTTP and `safedm-sdk` submits, so all three front-ends drive the one
/// entry point in [`safedm_bench::service`].
fn campaign_spec_from_args(args: &[String]) -> Result<CampaignSpec, String> {
    let kernels_arg = args::value(args, "--kernels").unwrap_or_else(|| "bitcount,fac".to_owned());
    let kernel_names: Vec<String> = kernels_arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    Ok(CampaignSpec {
        protocol: Protocol::Grid,
        kernels: kernel_names,
        staggers: args::opt_list::<u64>(args, "--staggers")?.unwrap_or_else(|| vec![0, 100]),
        runs: args::u64_or(args, "--runs", 2)?.max(1),
        root_seed: Some(args::u64_or(args, "--root-seed", 2024)?),
        engine: args::value(args, "--engine").unwrap_or_else(|| "cycle".to_owned()),
        jobs: Some(safedm::campaign::parse_jobs(args::value(args, "--jobs").as_deref())? as u64),
        keep_timing: args::flag(args, "--events-timing"),
    })
}

/// The `campaign` subcommand: build a [`CampaignSpec`] from the flags and
/// execute it through the shared campaign service ([`safedm_bench::service`])
/// — the exact engine `safedm-sim serve` exposes over HTTP. Telemetry —
/// the `--events-out` stream and the `--progress` stderr line — observes
/// the campaign but never steers it: the event stream is byte-identical
/// for every `--jobs N` (wall-clock is stripped unless `--events-timing`).
fn run_campaign(args: &[String]) -> Result<(), String> {
    let spec = campaign_spec_from_args(args)?;
    let events_out = args::value(args, "--events-out");
    let timing = if spec.keep_timing { Timing::Keep } else { Timing::Strip };
    let show_progress = args::flag(args, "--progress");

    let prepared = service::prepare(&spec)?;
    if show_progress {
        eprintln!(
            "campaign: {} cells on {} worker(s), root seed {}",
            prepared.cells.len(),
            prepared.jobs,
            spec.root_seed.unwrap_or_default()
        );
    }
    let progress = Progress::new(show_progress, prepared.cells.len());
    let opts = service::RunOptions { progress: Some(&progress), ..service::RunOptions::default() };
    let outcome = service::run(&prepared, &opts)?;
    progress.finish();

    if let Some(path) = &events_out {
        std::fs::write(path, safedm::obs::events::to_jsonl(&outcome.events, timing))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    // Grid cells always carry a `nops=N` config; recover N for the table.
    let nops = |ev: &CellEvent| ev.config.strip_prefix("nops=").unwrap_or("0").to_owned();

    if args::flag(args, "--json") {
        let mut doc = String::from("[");
        for ev in &outcome.events {
            if ev.index > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"kernel\":\"{}\",\"nops\":{},\"run\":{},\"seed\":{},\"cycles\":{},\
                 \"zero_stag\":{},\"no_div\":{},\"observed\":{},\"checksum_ok\":{}}}",
                ev.kernel,
                nops(ev),
                ev.run,
                ev.seed,
                ev.cycles,
                ev.zero_stag,
                ev.no_div,
                ev.guarded,
                ev.ok
            ));
        }
        doc.push(']');
        println!("{doc}");
    } else {
        println!(
            "CAMPAIGN: {} kernels x {} staggers x {} runs",
            spec.kernels.len(),
            spec.staggers.len(),
            spec.runs
        );
        println!(
            "{:<14} {:>7} {:>4} {:>20} {:>10} {:>10} {:>9} {:>6}",
            "kernel", "nops", "run", "seed", "cycles", "zero-stag", "no-div", "check"
        );
        for ev in &outcome.events {
            println!(
                "{:<14} {:>7} {:>4} {:>20} {:>10} {:>10} {:>9} {:>6}",
                ev.kernel,
                nops(ev),
                ev.run,
                ev.seed,
                ev.cycles,
                ev.zero_stag,
                ev.no_div,
                if ev.ok { "ok" } else { "FAIL" }
            );
        }
    }
    if args::flag(args, "--profile") {
        // Host wall-clock per cell: stderr only, never part of the
        // deterministic stdout above.
        eprintln!("per-cell wall-clock:");
        for ev in &outcome.events {
            eprintln!(
                "  {:<14} {:>7} run {} : {:>10} us",
                ev.kernel,
                ev.config,
                ev.run,
                ev.wall_us.unwrap_or(0)
            );
        }
    }
    if !outcome.all_ok {
        return Err("one or more campaign cells failed their self-check".to_owned());
    }
    Ok(())
}

/// The `serve` subcommand: bind the campaign service and serve forever.
/// `POST /v1/campaigns` accepts the same [`CampaignSpec`] document the
/// `campaign` subcommand builds from its flags; `GET
/// /v1/campaigns/{id}/events` streams the byte-identical JSONL event
/// lines; results are content-addressed-cached across submissions.
fn run_serve(args: &[String]) -> Result<(), String> {
    let cfg = ServeConfig {
        addr: args::value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8787".to_owned()),
        jobs: safedm::campaign::parse_jobs(args::value(args, "--jobs").as_deref())?,
        cache_cap: args::u64_or(args, "--cache-cap", 4096)?.max(1) as usize,
        cache_dir: args::value(args, "--cache-dir"),
    };
    let server = Server::bind(&cfg)?;
    let disk = cfg.cache_dir.as_deref().map(|d| format!(", disk tier {d}")).unwrap_or_default();
    eprintln!(
        "safedm-sim serve: listening on {} ({} worker(s), cache cap {}{disk})",
        server.local_addr()?,
        cfg.jobs,
        cfg.cache_cap
    );
    server.run();
    Ok(())
}

/// The `report` subcommand: render the campaign telemetry report from an
/// event stream (`--events`, JSONL as written by `campaign --events-out`
/// or the bench bins) and an optional metrics snapshot (`--metrics`, as
/// written by `stats --metrics-out`). Terminal output always; `--html`
/// additionally writes a self-contained page.
fn run_report(args: &[String]) -> Result<(), String> {
    use safedm::obs::{aggregate, report};

    let events_path = args::value(args, "--events")
        .ok_or_else(|| "report needs --events FILE (see campaign --events-out)".to_owned())?;
    let top = args::u64_or(args, "--top", 5)?.max(1) as usize;
    let text = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("cannot read {events_path}: {e}"))?;
    let events = safedm::obs::events::parse_jsonl(&text)
        .map_err(|e| format!("cannot parse {events_path}: {e}"))?;

    let mut sections: Vec<(String, String)> = Vec::new();
    println!("campaign report: {} cell(s) from {events_path}", events.len());

    let kernels_tbl = report::render_kernel_table(&aggregate::summarize_by_kernel(&events));
    println!("\nper-kernel summary:");
    print!("{kernels_tbl}");
    sections.push((
        "Per-kernel summary".to_owned(),
        report::html_kernel_table(&aggregate::summarize_by_kernel(&events)),
    ));

    let hm = aggregate::heatmap(&events);
    let hm_txt = report::render_heatmap(&hm);
    println!("\nno-diversity heatmap (kernel × config, mean no-div share):");
    print!("{hm_txt}");
    sections.push(("No-diversity heatmap".to_owned(), report::html_heatmap(&hm)));

    let slow = report::render_slowest(&aggregate::slowest_cells(&events, top));
    println!("\nslowest cells (top {top}):");
    print!("{slow}");
    sections.push(("Slowest cells".to_owned(), report::html_pre(&slow)));

    if let Some(metrics_path) = args::value(args, "--metrics") {
        let snap = std::fs::read_to_string(&metrics_path)
            .map_err(|e| format!("cannot read {metrics_path}: {e}"))?;
        let causes = aggregate::stall_pareto(&snap)
            .map_err(|e| format!("cannot parse {metrics_path}: {e}"))?;
        let pareto = report::render_pareto(&causes);
        println!("\nstall-cause Pareto ({metrics_path}):");
        print!("{pareto}");
        sections.push(("Stall-cause Pareto".to_owned(), report::html_pre(&pareto)));
    }

    if let Some(html_path) = args::value(args, "--html") {
        let page = report::html_page("SafeDM campaign report", &sections);
        std::fs::write(&html_path, page).map_err(|e| format!("cannot write {html_path}: {e}"))?;
        eprintln!("wrote {html_path}");
    }
    Ok(())
}

/// The `transform` subcommand: report what the diversity transform does to
/// a kernel (or `all`), and with `--verify` differentially check the twin
/// on the ISS — the variant must produce the reference checksum and retire
/// exactly `overhead_insts` more instructions than the original.
fn run_transform(args: &[String]) -> Result<(), String> {
    let tcfg = twin_config(args)?;
    let verify = args::flag(args, "--verify");
    let kname = args::value(args, "--kernel")
        .or_else(|| args::positional(args, SWITCHES).cloned())
        .ok_or_else(|| "transform needs a kernel name or `all` (see --list-kernels)".to_owned())?;
    let list: Vec<&safedm::tacle::Kernel> = if kname == "all" {
        kernels::all().iter().collect()
    } else {
        vec![kernels::by_name(&kname)
            .ok_or_else(|| format!("unknown kernel `{kname}` (see --list-kernels)"))?]
    };

    // Differential ISS check: both programs of the standalone pair run to
    // completion, produce the reference checksum in `a0`, and the variant
    // retires exactly the statically declared overhead on top.
    let verify_kernel = |k: &safedm::tacle::Kernel| -> Result<(u64, u64), String> {
        let pair = build_twin_pair(k, &tcfg);
        let run = |prog: &Program| {
            let mut iss = safedm::soc::Iss::new(0);
            iss.load_program(prog);
            iss.run(200_000_000);
            iss
        };
        let oi = run(&pair.orig);
        let vi = run(&pair.var);
        let golden = (k.reference)();
        if oi.reg(safedm::isa::Reg::A0) != golden {
            return Err(format!("{}: original checksum mismatch", k.name));
        }
        if vi.reg(safedm::isa::Reg::A0) != golden {
            return Err(format!("{}: variant checksum mismatch", k.name));
        }
        let (oe, ve) = (oi.executed(), vi.executed());
        if ve != oe + pair.overhead_insts {
            return Err(format!(
                "{}: variant retired {} insts, expected {} + {} overhead",
                k.name, ve, oe, pair.overhead_insts
            ));
        }
        Ok((oe, ve))
    };

    println!(
        "{:<14} {:<14} {:>18} {:>7} {:>6} {:>5} {:>4} {:>8}{}",
        "kernel",
        "level",
        "seed",
        "renamed",
        "swaps",
        "sled",
        "pad",
        "overhead",
        if verify { "   orig-insts    var-insts verify" } else { "" }
    );
    for k in &list {
        let pair = build_twin_pair(k, &tcfg);
        let rep = &pair.report;
        print!(
            "{:<14} {:<14} {:>#18x} {:>7} {:>6} {:>5} {:>4} {:>8}",
            k.name,
            tcfg.transform.level_name(),
            rep.seed,
            rep.renamed_pairs().len(),
            rep.swaps,
            rep.sled_len,
            rep.frame_pad,
            pair.overhead_insts
        );
        if verify {
            let (oe, ve) = verify_kernel(k)?;
            print!(" {oe:>12} {ve:>12}     ok");
        }
        println!();
    }

    if list.len() == 1 {
        let rep = build_twin_pair(list[0], &tcfg).report;
        let pairs = rep.renamed_pairs();
        if !pairs.is_empty() {
            let shown: Vec<String> =
                pairs.iter().take(8).map(|(f, t)| format!("{f}->{t}")).collect();
            println!(
                "renaming ({} registers moved): {}{}",
                pairs.len(),
                shown.join(", "),
                if pairs.len() > 8 { ", ..." } else { "" }
            );
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args::flag(&args, "--help") {
        println!("{}", usage());
        return Ok(());
    }
    if args::flag(&args, "--list-kernels") {
        for k in kernels::all() {
            println!("{}", k.name);
        }
        return Ok(());
    }
    if args.first().is_some_and(|a| a == "analyze") {
        return run_analyze(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "trace") {
        return run_trace(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "stats") {
        return run_stats(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "campaign") {
        return run_campaign(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "serve") {
        return run_serve(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "transform") {
        return run_transform(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "report") {
        return run_report(&args[1..]);
    }

    let base = args::u64_or(&args, "--base", 0x8000_0000)?;
    let delayed_core = args::u64_or(&args, "--delayed-core", 1)? as usize;
    let stagger =
        stagger_arg(&args)?.map(|nops| StaggerConfig { nops: nops as usize, delayed_core });
    let max_cycles = args::u64_or(&args, "--max-cycles", 500_000_000)?;
    let engine = args::value(&args, "--engine").map_or(Ok(Engine::Cycle), |v| Engine::parse(&v))?;

    // Program source: a file path or a built-in kernel.
    let (name, prog, golden) = if let Some(kname) = args::value(&args, "--kernel") {
        let k = kernels::by_name(&kname)
            .ok_or_else(|| format!("unknown kernel `{kname}` (see --list-kernels)"))?;
        let prog = build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() });
        (kname, prog, Some((k.reference)()))
    } else {
        let path = args::positional(&args, SWITCHES).ok_or_else(|| usage().to_owned())?;
        if stagger.is_some() {
            return Err("--stagger is only supported with --kernel (the harness builds the sled)"
                .to_owned());
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let prog = safedm::asm::assemble(&source, base).map_err(|e| e.to_string())?;
        (path.clone(), prog, None)
    };

    if engine == Engine::Fast {
        // Functional twin: no pipeline, no monitor probes — instruction-count
        // proxies stand in for the per-cycle verdicts.
        if args::value(&args, "--vcd").is_some() || args::opt_u64(&args, "--trace")?.is_some() {
            return Err("--vcd/--trace need the pipeline model; use --engine cycle".to_owned());
        }
        let mut twin = FastTwin::new();
        twin.load_program(&prog);
        let out = twin.run(max_cycles);
        let a0 = [twin.hart(0).reg(safedm::isa::Reg::A0), twin.hart(1).reg(safedm::isa::Reg::A0)];
        if args::flag(&args, "--json") {
            println!(
                "{{\"program\":\"{name}\",\"engine\":\"fast\",\"cycles\":{},\"observed\":{},\
                 \"zero_stag\":{},\"no_div\":{},\"a0\":[{},{}]}}",
                out.cycles, out.observed, out.zero_stag, out.no_div, a0[0], a0[1],
            );
        } else {
            println!("program          : {name}");
            println!("engine           : fast (functional, 1-IPC proxy counters)");
            println!("cycles           : {}", out.cycles);
            println!("exits            : {} / {}", twin.hart(0).exit(), twin.hart(1).exit());
            println!("a0               : {:#x} / {:#x}", a0[0], a0[1]);
            if let Some(g) = golden {
                let ok = a0[0] == g && a0[1] == g;
                println!("self-check       : {}", if ok { "PASS" } else { "FAIL" });
            }
            println!("observed steps   : {}", out.observed);
            println!("zero staggering  : {}", out.zero_stag);
            println!("no diversity     : {}", out.no_div);
        }
        if out.timed_out {
            return Err("run did not complete within --max-cycles".to_owned());
        }
        return Ok(());
    }

    let mut sys = MonitoredSoc::new(
        SocConfig::default(),
        SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() },
    );
    sys.load_program(&prog);

    let trace_n = args::opt_u64(&args, "--trace")?;
    if let Some(n) = trace_n {
        sys.soc_mut().core_mut(0).enable_commit_trace(n as usize);
    }

    // Optional VCD of the first N cycles.
    let vcd_path = args::value(&args, "--vcd");
    let vcd_cycles = args::u64_or(&args, "--vcd-cycles", 4_096)?;
    let mut vcd = vcd_path.as_ref().map(|_| {
        let mut v = ProbeVcd::new(2, "safedm_sim");
        let nd = v.add_channel("monitor.no_diversity", 1);
        let diff = v.add_channel("monitor.instr_diff", 64);
        (v, nd, diff)
    });

    // The drain after the halt is not sampled.
    let mut spent = 0u64;
    let mut running = true;
    let out = sys.run_with(max_cycles, |sys, report| {
        spent += 1;
        if let Some((v, nd, diff)) = vcd.as_mut().filter(|_| running && spent <= vcd_cycles) {
            v.set_channel(*nd, u64::from(report.no_diversity));
            v.set_channel(*diff, sys.monitor().instruction_diff().value() as u64);
            let (p0, p1) = (*sys.soc().probe(0), *sys.soc().probe(1));
            v.sample(&[&p0, &p1]);
        }
        running = !sys.soc().all_halted();
    });

    if let (Some((v, ..)), Some(path)) = (vcd, vcd_path.as_ref()) {
        v.write_to(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    if trace_n.is_some() {
        eprintln!("--- commit trace (core 0, newest {} entries) ---", trace_n.unwrap_or(0));
        for rec in sys.soc_mut().core_mut(0).take_commit_trace() {
            eprintln!("{rec}");
        }
    }

    let exits: Vec<String> = (0..2).map(|c| sys.soc().core(c).exit().to_string()).collect();
    let a0 =
        [sys.soc().core(0).reg(safedm::isa::Reg::A0), sys.soc().core(1).reg(safedm::isa::Reg::A0)];
    let c = sys.monitor().counters();
    let zero_stag = sys.monitor().instruction_diff().zero_cycles();

    if args::flag(&args, "--json") {
        println!(
            "{{\"program\":\"{name}\",\"cycles\":{},\"observed\":{},\"zero_stag\":{zero_stag},\
             \"no_div\":{},\"ds_match\":{},\"is_match\":{},\"a0\":[{},{}],\"irq\":{}}}",
            out.run.cycles,
            c.cycles_observed,
            c.no_div_cycles,
            c.ds_match_cycles,
            c.is_match_cycles,
            a0[0],
            a0[1],
            sys.monitor().irq_pending(),
        );
    } else {
        println!("program          : {name}");
        println!("cycles           : {}", out.run.cycles);
        println!("exits            : {} / {}", exits[0], exits[1]);
        println!("a0               : {:#x} / {:#x}", a0[0], a0[1]);
        if let Some(g) = golden {
            let ok = a0[0] == g && a0[1] == g;
            println!("self-check       : {}", if ok { "PASS" } else { "FAIL" });
        }
        println!("monitored cycles : {}", c.cycles_observed);
        println!("zero staggering  : {zero_stag}");
        println!("no diversity     : {}", c.no_div_cycles);
        println!("irq pending      : {}", sys.monitor().irq_pending());
    }
    if !sys.soc().all_halted() {
        return Err("run did not complete within --max-cycles".to_owned());
    }
    Ok(())
}

/// Restores the default action of `SIGPIPE`, which the Rust runtime
/// ignores: a closed stdout (`safedm-sim … | head`) then ends the program
/// quietly, as it does any Unix filter, where `println!` would panic.
#[cfg(unix)]
fn exit_quietly_on_closed_stdout() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: sets the disposition of one signal to its default; no
    // handler runs Rust code.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn exit_quietly_on_closed_stdout() {}

fn main() -> ExitCode {
    // `serve` keeps `SIGPIPE` ignored: a client that hangs up must end its
    // own connection with an I/O error, not the server.
    if std::env::args().nth(1).as_deref() != Some("serve") {
        exit_quietly_on_closed_stdout();
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("safedm-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
