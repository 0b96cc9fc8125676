//! **Validation V1**: common-cause fault-injection campaign supporting the
//! paper's safety argument (Section III-A).
//!
//! For every injection, the campaign records SafeDM's verdict at the
//! injection cycle and the outcome of the redundant run. The formally
//! checkable property: when SafeDM flags *no diversity* and the identical
//! flip lands in both (bit-identical) cores, output comparison can never
//! raise a mismatch — whatever corrupts, corrupts silently. The campaign
//! also quantifies how much more dangerous flagged cycles are.
//!
//! Faults are planned serially from the seeded RNG, injections execute on
//! the `safedm-campaign` pool, and records fold back in trial order, so
//! every output is byte-identical for any `--jobs N`.
//!
//! Usage: `cargo run -p safedm-bench --bin ccf_campaign --release
//! [--trials N] [--seed S] [--jobs N] [--metrics-out PATH]
//! [--events-out PATH] [--progress]`
//!
//! `--events-out` emits one aggregate event per kernel campaign (trials
//! fold inside `safedm-faults`; `violations` counts detected mismatches,
//! `no_div` counts silent corruptions under flagged cycles).

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{ccf_metrics, set_metric_totals, write_metrics_json, Telemetry};
use safedm_bench::service::{ccf_event, CCF_MAX_CYCLE};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_faults::{Campaign, CampaignConfig};
use safedm_obs::events::CellEvent;
use safedm_soc::Engine;
use safedm_tacle::kernels;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let telemetry = Telemetry::from_args(&args);

    // The campaign inputs route through the shared `safedm-api/1` request
    // type: the same document `safedm-sim serve` accepts (protocol `ccf`,
    // `runs` = trials per kernel) and whose digest keys the result cache.
    let spec = CampaignSpec {
        protocol: Protocol::Ccf,
        kernels: ["fac", "bitcount", "iir", "quicksort"].map(str::to_owned).to_vec(),
        staggers: Vec::new(), // injections sweep cycles, not staggers
        runs: args::or_exit(args::parsed_or(&args, "--trials", 120)),
        root_seed: Some(args::or_exit(args::parsed_or(&args, "--seed", 2024))),
        engine: "cycle".to_owned(),
        jobs: Some(args::jobs(&args) as u64),
        keep_timing: telemetry.keep_timing,
    };
    args::or_exit(spec.validate());
    let trials = spec.runs as usize;
    let seed = spec.root_seed.unwrap_or(2024);
    let jobs = spec.jobs.map_or(1, |j| j.max(1) as usize);

    let progress = telemetry.progress_for(spec.kernels.len());
    let mut events: Vec<CellEvent> = Vec::new();

    let mut grand_silent_flagged = 0u64;
    let mut grand_silent_unflagged = 0u64;
    let mut grand_mismatch_flagged = 0u64;
    let mut grand_flagged_trials = 0u64;
    let mut grand_unflagged_trials = 0u64;
    // Campaigns run silently; per-kernel rows and stats accumulate here
    // and render as a final report below.
    let mut rows = String::new();
    let mut per_kernel = Vec::new();
    for name in &spec.kernels {
        let name = name.as_str();
        let k = kernels::by_name(name).expect("kernel");
        let stats = Campaign::new(CampaignConfig {
            trials,
            seed,
            max_cycle: CCF_MAX_CYCLE,
            ..CampaignConfig::default()
        })
        .run_jobs(k, jobs);
        for r in &stats.records {
            if r.no_diversity_at_injection {
                grand_flagged_trials += 1;
            } else {
                grand_unflagged_trials += 1;
            }
        }
        grand_silent_flagged += stats.silent_with_no_diversity;
        grand_silent_unflagged += stats.silent_with_diversity + stats.silent_site_divergent;
        grand_mismatch_flagged += stats.mismatch_with_no_diversity;
        let lat = stats.mean_detect_latency().map_or_else(|| "-".to_owned(), |l| format!("{l:.0}"));
        let _ = writeln!(
            rows,
            "{:<12} {:>7} {:>9} {:>9} {:>12} {:>12} {:>12} {:>12}",
            name,
            stats.masked,
            stats.detected_mismatch,
            stats.detected_anomaly,
            stats.silent_with_no_diversity,
            stats.silent_with_diversity,
            stats.silent_site_divergent,
            lat
        );
        events.push(ccf_event(events.len() as u64, name, trials, seed, Engine::Cycle, &stats));
        progress.cell_done(name);
        per_kernel.push((name, stats));
    }
    progress.finish();
    telemetry.write_events(&events);

    println!("VALIDATION V1: common-cause fault injection ({trials} trials/kernel, seed {seed})");
    println!();
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "benchmark",
        "masked",
        "mismatch",
        "anomaly",
        "silent@nodiv",
        "silent@div",
        "site-diverg",
        "det-lat(cyc)"
    );
    print!("{rows}");
    println!();
    let p_flagged = grand_silent_flagged as f64 / grand_flagged_trials.max(1) as f64;
    let p_unflagged = grand_silent_unflagged as f64 / grand_unflagged_trials.max(1) as f64;
    println!(
        "P(silent corruption | no-diversity flagged)   = {:.3}  ({} / {})",
        p_flagged, grand_silent_flagged, grand_flagged_trials
    );
    println!(
        "P(silent corruption | diversity observed)     = {:.3}  ({} / {})",
        p_unflagged, grand_silent_unflagged, grand_unflagged_trials
    );
    println!();
    println!("mismatches from flagged-cycle injections: {grand_mismatch_flagged}");
    println!(
        "  (nonzero is only possible via false-positive windows; true-lockstep
            blindness is asserted in tests/paper_claims.rs)"
    );
    if grand_flagged_trials > 0 && p_flagged > p_unflagged {
        println!("flagged cycles are measurably more CCF-vulnerable, as the paper argues");
    }
    if let Some(path) = args::value(&args, "--metrics-out") {
        let refs: Vec<(&str, &safedm_faults::CampaignStats)> =
            per_kernel.iter().map(|(n, s)| (*n, s)).collect();
        let mut reg = ccf_metrics(&refs);
        set_metric_totals(
            &mut reg,
            [
                ("silent_flagged", grand_silent_flagged),
                ("silent_unflagged", grand_silent_unflagged),
                ("mismatch_flagged", grand_mismatch_flagged),
                ("flagged_trials", grand_flagged_trials),
                ("unflagged_trials", grand_unflagged_trials),
            ]
            .map(|(metric, value)| (format!("ccf.total.{metric}"), value)),
        );
        write_metrics_json(&path, &reg.snapshot());
    }
}
