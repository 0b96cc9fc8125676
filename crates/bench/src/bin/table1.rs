//! Regenerates **Table I** of the SafeDM paper: per-benchmark cycles with
//! zero staggering and cycles without diversity, for initial staggering of
//! 0 / 100 / 1,000 / 10,000 nops, plus the Section V-C summary block.
//!
//! The protocol runs through the campaign service (`Protocol::Table1`,
//! the same spec `safedm-sim serve` accepts): rows and JSON are
//! byte-identical for every `--jobs N` (see EXPERIMENTS.md, "Parallel
//! campaigns").
//!
//! Usage: `cargo run -p safedm-bench --bin table1 --release [--quick]
//! [--jobs N] [--root-seed S] [--engine cycle|fast] [--profile]
//! [--json PATH] [--metrics-out PATH] [--events-out PATH] [--events-timing]
//! [--progress]`
//!
//! `--engine fast` reports the functional engine's proxies instead of the
//! cycle-accurate verdicts (several times faster, not paper-grade — see
//! DESIGN.md §10).

use std::time::Duration;

use safedm_bench::args;
use safedm_bench::experiments::{
    render_table1, summarize_table1, table1_metrics, table1_rows, write_metrics_json, Telemetry,
};
use safedm_bench::service::{self, RunOptions};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_obs::SelfProfiler;
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
    let prepared = args::or_exit(service::prepare(&spec));

    // Campaign stderr is quiet by default; `--progress` turns on the
    // header and the live status line.
    if telemetry.progress {
        eprintln!(
            "table1: running {} kernels x 4 staggering setups (4 seeds for 0 nops, 2 for the \
             rest) on {} worker(s)",
            selected.len(),
            prepared.jobs
        );
    }
    let t = std::time::Instant::now();
    let progress = telemetry.progress_for(prepared.cells.len());
    let opts = RunOptions { progress: Some(&progress), ..RunOptions::default() };
    let out = args::or_exit(service::run(&prepared, &opts));
    progress.finish();
    let mut prof = SelfProfiler::new();
    prof.record("campaign.total", t.elapsed());
    for e in &out.events {
        let name = format!("cell.{}.{}.run{}", e.kernel, e.config.replace('=', ""), e.run);
        prof.record(&name, Duration::from_micros(e.wall_us.unwrap_or(0)));
    }
    telemetry.write_events(&out.events);
    let rows = table1_rows(&selected, &out.events);
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
        eprintln!("\nper-cell wall-clock (campaign profiler, {} worker(s)):", prepared.jobs);
        eprint!("{}", prof.report());
    }
}
