//! Regenerates the **staggering/diversity time series** behind the paper's
//! Section V-C discussion (including the `pm` timing-anomaly narrative):
//! per-cycle committed-instruction staggering and the monitor's verdicts,
//! down-sampled into fixed windows and rendered as a final report.
//!
//! The run is observed by a `safedm-obs` [`RunObserver`], so the same
//! invocation can emit a machine-readable metric snapshot
//! (`--metrics-out`) alongside the CSV.
//!
//! Usage: `cargo run -p safedm-bench --bin staggering_trace --release
//! [--kernel pm] [--nops 1000] [--window 256] [--csv PATH]
//! [--metrics-out PATH]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{write_metrics_json, RUN_BUDGET};
use safedm_core::{MonitoredSoc, ObsConfig, ReportMode, RunObserver, SafeDmConfig, TraceSample};
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, StackMode, StaggerConfig};

struct WindowRow {
    start: u64,
    mean_abs: f64,
    min_abs: u64,
    zero_stag: usize,
    no_div: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kernel_name = args::value(&args, "--kernel").unwrap_or_else(|| "pm".to_owned());
    let nops: usize = args::or_exit(args::parsed_or(&args, "--nops", 1000));
    let window: u64 = args::or_exit(args::parsed_or(&args, "--window", 256)).max(1);

    let k = kernels::by_name(&kernel_name).unwrap_or_else(|| {
        eprintln!("error: unknown kernel `{kernel_name}` (see kernel_stats for the list)");
        std::process::exit(2);
    });
    let stagger = (nops > 0).then_some(StaggerConfig { nops, delayed_core: 1 });
    let prog = build_kernel_program(k, &HarnessConfig { stagger, stack: StackMode::Mirrored });

    let dm = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let mut sys = MonitoredSoc::new(SocConfig::default(), dm);
    sys.load_program(&prog);
    let mut trace = Vec::new();
    let mut obs = RunObserver::new(ObsConfig::default(), 2);
    let out = sys.run_with(RUN_BUDGET, |sys, r| {
        trace.push(TraceSample::new(sys, r));
        obs.on_cycle(sys.soc(), sys.monitor(), r);
    });
    assert!(out.run.all_clean(), "{kernel_name}: {:?}", out.run.exits);
    obs.finish(sys.soc(), sys.monitor());

    // Down-sample into windows: per window, mean |diff|, min |diff|,
    // zero-stag count, no-div count. No printing in this loop — rows are
    // accumulated and rendered once below.
    let mut rows = Vec::with_capacity(trace.len() / window as usize + 1);
    let mut csv = String::from("window_start,mean_abs_diff,min_abs_diff,zero_stag,no_div\n");
    for chunk in trace.chunks(window as usize) {
        let row = WindowRow {
            start: chunk.first().map_or(0, |s| s.cycle),
            mean_abs: chunk.iter().map(|s| s.diff.unsigned_abs() as f64).sum::<f64>()
                / chunk.len() as f64,
            min_abs: chunk.iter().map(|s| s.diff.unsigned_abs()).min().unwrap_or(0),
            zero_stag: chunk.iter().filter(|s| s.zero_stagger).count(),
            no_div: chunk.iter().filter(|s| s.no_diversity).count(),
        };
        let _ = writeln!(
            csv,
            "{},{:.2},{},{},{}",
            row.start, row.mean_abs, row.min_abs, row.zero_stag, row.no_div
        );
        rows.push(row);
    }

    // Final formatted report.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "staggering trace: kernel={kernel_name} nops={nops} cycles={}",
        trace.len()
    );
    let _ = writeln!(
        report,
        "{:>12} {:>14} {:>12} {:>10} {:>8}",
        "cycle", "mean|diff|", "min|diff|", "zero-stag", "no-div"
    );
    for row in &rows {
        let _ = writeln!(
            report,
            "{:>12} {:>14.1} {:>12} {:>10} {:>8}",
            row.start, row.mean_abs, row.min_abs, row.zero_stag, row.no_div
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "totals: zero-stag {} cycles, no-div {} cycles over {} observed",
        out.zero_stag_cycles, out.no_div_cycles, out.cycles_observed
    );
    print!("{report}");
    // The pm narrative: staggered start, transient re-synchronisation
    // (small |diff|) while both cores work core-locally, yet diversity
    // persists (no-div stays near zero in those windows).
    if let Some(path) = args::value(&args, "--csv") {
        args::write_file_or_exit(&path, &csv);
    }
    if let Some(path) = args::value(&args, "--metrics-out") {
        write_metrics_json(&path, &obs.metrics_snapshot());
    }
}
