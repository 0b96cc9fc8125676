//! Integration tests for the observability layer: golden determinism of
//! metric snapshots, Chrome-trace schema validity (parsed back with the
//! in-tree JSON parser), and the APB mirror of the new counter registers.

use safedm::monitor::regs::regmap;
use safedm::monitor::{MonitoredSoc, ObsConfig, ReportMode, RunObserver, SafeDmConfig};
use safedm::obs::json::{self, JsonValue};
use safedm::soc::SocConfig;
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig};

const CYCLES: u64 = 50_000;

fn observed_prime_run() -> (MonitoredSoc, RunObserver) {
    let k = kernels::by_name("prime").expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let dm = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let mut sys = MonitoredSoc::new(SocConfig::default(), dm);
    sys.load_program(&prog);
    let mut obs = RunObserver::new(ObsConfig::default(), 2);
    sys.run_with(CYCLES, |sys, r| obs.on_cycle(sys.soc(), sys.monitor(), r));
    obs.finish(sys.soc(), sys.monitor());
    (sys, obs)
}

#[test]
fn golden_determinism_two_seeded_runs_identical_snapshots() {
    let (_, obs_a) = observed_prime_run();
    let (_, obs_b) = observed_prime_run();
    let a = obs_a.metrics_snapshot().to_json();
    let b = obs_b.metrics_snapshot().to_json();
    assert!(!a.is_empty());
    // Byte-identical: the snapshot is name-sorted and contains no
    // wall-clock-derived values, so two identical runs must serialise
    // identically.
    assert_eq!(a, b);
}

#[test]
fn metric_snapshot_json_round_trips_through_parser() {
    let (_, obs) = observed_prime_run();
    let doc = json::parse(&obs.metrics_snapshot().to_json()).expect("snapshot JSON parses");
    for section in ["counters", "gauges", "histograms"] {
        assert!(doc.get(section).is_some(), "missing section {section}");
    }
    let counters = doc.get("counters").unwrap();
    let JsonValue::Obj(pairs) = counters else { panic!("counters must be an object") };
    // Expected dotted scopes from pipeline, bus and monitor all present.
    for name in ["core0.retired", "core1.retired", "bus.transactions", "monitor.no_div_cycles"] {
        assert!(pairs.iter().any(|(k, _)| k == name), "expected counter {name} in snapshot");
    }
    assert!(counters.get("core0.retired").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn chrome_trace_is_valid_json_with_expected_tracks() {
    let (_, obs) = observed_prime_run();
    let blob = obs.chrome_trace_json();
    let doc = json::parse(&blob).expect("chrome trace parses as JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents array");
    assert!(!events.is_empty());

    // Track-naming metadata events for the pipeline, bus and monitor tracks.
    let mut track_names = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) == Some("M") {
            if let Some(name) =
                ev.get("args").and_then(|a| a.get("name")).and_then(JsonValue::as_str)
            {
                track_names.push(name.to_owned());
            }
        }
    }
    for expected in ["pipeline", "bus", "monitor"] {
        assert!(
            track_names.iter().any(|n| n == expected),
            "expected a {expected} track, got {track_names:?}"
        );
    }

    // Every non-metadata event carries the mandatory trace-event fields.
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "ts missing on {ph}");
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
        if ph == "X" {
            assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some());
        }
    }
}

#[test]
fn trace_jsonl_lines_each_parse() {
    let (_, obs) = observed_prime_run();
    let jsonl = obs.trace_jsonl();
    let mut lines = 0;
    for line in jsonl.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines > 0, "JSONL export must not be empty");
}

#[test]
fn apb_bank_mirrors_episode_counter_registers() {
    let (sys, _) = observed_prime_run();
    let bank = sys.apb_bank();
    let dm = sys.monitor();
    assert_eq!(bank.reg(regmap::NO_DIV_EPISODES), dm.no_diversity_history().total_episodes());
    assert_eq!(bank.reg(regmap::MAX_ABS_STAGGER), dm.instruction_diff().max_abs());
}
