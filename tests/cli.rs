//! The `safedm-sim` command line end to end: the `--engine` flag of the
//! kernel run and of `campaign`, which reads the retired `hybrid` name as
//! the cycle engine, and the `campaign --events-out` → `report` pipeline.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safedm-sim"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("safedm-cli-{}-{name}", std::process::id()))
}

fn checked(out: Output, what: &str) -> String {
    assert!(out.status.success(), "{what} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn kernel_run_reads_hybrid_as_the_cycle_engine() {
    let run = |engine: &str| {
        let out = sim()
            .args(["--kernel", "fac", "--engine", engine, "--json"])
            .output()
            .expect("run safedm-sim");
        checked(out, &format!("--engine {engine}"))
    };
    let cycle = run("cycle");
    assert!(cycle.contains("\"no_div\":"), "monitored run: {cycle}");
    assert_eq!(run("hybrid"), cycle);
}

#[test]
fn campaign_reads_hybrid_as_the_cycle_engine() {
    let run = |engine: &str| {
        let events = tmp(&format!("campaign-{engine}.jsonl"));
        let out = sim()
            .args(["campaign", "--kernels", "fac", "--staggers", "0", "--runs", "1"])
            .args(["--engine", engine, "--json", "--events-out"])
            .arg(&events)
            .output()
            .expect("run safedm-sim");
        let stdout = checked(out, &format!("campaign --engine {engine}"));
        let lines = std::fs::read_to_string(&events).expect("events written");
        let _ = std::fs::remove_file(&events);
        (stdout, lines)
    };
    let cycle = run("cycle");
    assert!(cycle.1.contains("\"engine\":\"cycle\""), "events: {}", cycle.1);
    assert_eq!(run("hybrid"), cycle, "stdout and event stream must match `--engine cycle`");
}

#[test]
fn report_renders_a_campaign_event_stream() {
    let events = tmp("report-events.jsonl");
    let metrics = tmp("report-metrics.json");
    let html = tmp("report.html");

    let out = sim()
        .args(["campaign", "--kernels", "fac", "--staggers", "0,100", "--runs", "1"])
        .arg("--events-out")
        .arg(&events)
        .output()
        .expect("run safedm-sim");
    checked(out, "campaign");
    let out = sim()
        .args(["stats", "fac", "--cycles", "20000", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("run safedm-sim");
    checked(out, "stats");

    let out = sim()
        .args(["report", "--top", "1", "--events"])
        .arg(&events)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--html")
        .arg(&html)
        .output()
        .expect("run safedm-sim");
    let stdout = checked(out, "report");
    for section in [
        "campaign report: 2 cell(s)",
        "per-kernel summary:",
        "no-diversity heatmap",
        "slowest cells (top 1):",
        "stall-cause Pareto",
    ] {
        assert!(stdout.contains(section), "`{section}` missing from:\n{stdout}");
    }
    let page = std::fs::read_to_string(&html).expect("html written");
    assert!(page.starts_with("<!DOCTYPE html>"));
    for title in
        ["Per-kernel summary", "No-diversity heatmap", "Slowest cells", "Stall-cause Pareto"]
    {
        assert!(page.contains(title), "`{title}` section missing from the page");
    }
    for path in [&events, &metrics, &html] {
        let _ = std::fs::remove_file(path);
    }

    // Without an event stream there is nothing to report: a usage error.
    let out = sim().arg("report").output().expect("run safedm-sim");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("report needs --events FILE"));
}
