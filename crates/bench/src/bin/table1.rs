//! Regenerates **Table I** of the SafeDM paper: per-benchmark cycles with
//! zero staggering and cycles without diversity, for initial staggering of
//! 0 / 100 / 1,000 / 10,000 nops, plus the Section V-C summary block.
//!
//! The configuration grid runs through the `safedm-campaign` engine: rows
//! and JSON are byte-identical for every `--jobs N` (see
//! EXPERIMENTS.md, "Parallel campaigns").
//!
//! Usage: `cargo run -p safedm-bench --bin table1 --release [--quick]
//! [--jobs N] [--root-seed S] [--engine cycle|fast] [--profile]
//! [--json PATH] [--metrics-out PATH] [--events-out PATH] [--events-timing]
//! [--progress]`
//!
//! `--engine fast` reports the block-compiled engine's functional proxies
//! instead of the cycle-accurate verdicts (orders of magnitude faster, not
//! paper-grade — see DESIGN.md §10).

use safedm_bench::args;
use safedm_bench::experiments::{
    render_table1, summarize_table1, table1_cells, table1_events, table1_metrics,
    table1_rows_from_runs, table1_run_cells, write_metrics_json, Telemetry, TABLE1_NOPS,
};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_core::SafeDmConfig;
use safedm_obs::SelfProfiler;
use safedm_soc::Engine;
use safedm_tacle::kernels;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args::flag(&args, "--quick");
    let telemetry = Telemetry::from_args(&args);
    let root_seed = match args::opt_parsed::<u64>(&args, "--root-seed") {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    let all = kernels::all();
    let selected: Vec<&safedm_tacle::Kernel> = if quick {
        all.iter()
            .filter(|k| ["bitcount", "fac", "iir", "pm", "quicksort"].contains(&k.name))
            .collect()
    } else {
        all.iter().collect()
    };

    // The campaign inputs route through the shared `safedm-api/1` request
    // type: the same document `safedm-sim serve` accepts (protocol
    // `table1`) and whose digest keys the service's result cache.
    let spec = CampaignSpec {
        protocol: Protocol::Table1,
        kernels: selected.iter().map(|k| k.name.to_owned()).collect(),
        staggers: Vec::new(), // table1 pins its own stagger setups
        runs: 1,              // likewise its per-setup seed counts
        root_seed,
        engine: args::value(&args, "--engine").unwrap_or_else(|| "cycle".to_owned()),
        jobs: Some(args::jobs(&args) as u64),
        keep_timing: telemetry.keep_timing,
    };
    args::or_exit(spec.validate());
    let engine = args::or_exit(Engine::parse(&spec.engine));
    let jobs = spec.jobs.map_or(1, |j| j.max(1) as usize);

    // Campaign stderr is quiet by default; `--progress` turns on the
    // header and the live status line.
    if telemetry.progress {
        eprintln!(
            "table1: running {} kernels x 4 staggering setups (4 seeds for 0 nops, 2 for the \
             rest) on {jobs} worker(s)",
            selected.len()
        );
    }
    let t = std::time::Instant::now();
    let cells = table1_cells(&selected, spec.root_seed);
    let progress = telemetry.progress_for(cells.len());
    let (runs, timings) =
        table1_run_cells(&cells, SafeDmConfig::default(), jobs, Some(&progress), engine);
    progress.finish();
    let mut prof = SelfProfiler::new();
    prof.record("campaign.total", t.elapsed());
    for (cell, dt) in cells.iter().zip(&timings) {
        let nops = TABLE1_NOPS[cell.setup_idx];
        prof.record(&format!("cell.{}.nops{nops}.run{}", cell.kernel.name, cell.run), *dt);
    }
    telemetry.write_events(&table1_events(&cells, &runs, &timings, engine));
    let rows = table1_rows_from_runs(&selected, &cells, &runs);
    if telemetry.progress {
        eprintln!("table1: finished in {:.1?}", t.elapsed());
    }

    println!("TABLE I: TACLe-style benchmarks under SafeDM (model reproduction)");
    println!("{}", render_table1(&rows));

    let summary = summarize_table1(&rows);
    println!("Summary (paper, Section V-C):");
    println!("  avg instructions / benchmark : {:.0}", summary.avg_instructions);
    for (i, nops) in safedm_bench::experiments::TABLE1_NOPS.iter().enumerate() {
        println!(
            "  {:>5} nops: avg zero-stag {:>10.1}  avg no-div {:>8.1}",
            nops, summary.avg_zero_stag[i], summary.avg_no_div[i]
        );
    }

    let failures: Vec<&str> =
        rows.iter().filter(|r| !r.all_checksums_ok).map(|r| r.name.as_str()).collect();
    if failures.is_empty() {
        println!("\nall kernels passed their self-checks on both cores");
    } else {
        println!("\nSELF-CHECK FAILURES: {failures:?}");
        std::process::exit(1);
    }

    // Shape checks mirroring the paper's qualitative findings.
    let monotone_ok = rows.iter().all(|r| r.cells[3].no_div <= r.cells[0].no_div.max(1));
    let nodiv_bounded = rows
        .iter()
        .all(|r| (0..4).all(|i| r.cells[i].no_div <= r.cells[i].zero_stag + r.cells[i].no_div));
    println!("shape: no-div vanishes with large staggering: {monotone_ok}");
    println!("shape: no-div bounded by observation: {nodiv_bounded}");

    if let Some(path) = args::value(&args, "--json") {
        let blob = safedm_bench::experiments::json::table1_document(&rows, &summary);
        args::write_file_or_exit(&path, &blob);
    }
    if let Some(path) = args::value(&args, "--metrics-out") {
        write_metrics_json(&path, &table1_metrics(&rows).snapshot());
    }
    if args::flag(&args, "--profile") {
        // Wall-clock per campaign cell (host measurement — deliberately on
        // stderr, never part of the deterministic outputs above).
        eprintln!("\nper-cell wall-clock (campaign profiler, {jobs} worker(s)):");
        eprint!("{}", prof.report());
    }
}
