//! The `safedm-sim` command line end to end: the `--engine` flag of the
//! kernel run and of `campaign`, which reads the retired `hybrid` name as
//! the cycle engine, the `campaign --events-out` → `report` pipeline, the
//! `analyze` sweep and `--gate` check, switches before a positional path,
//! the `--stagger` limit, and a stdout closed early.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
fn a_stagger_above_the_limit_is_an_error_not_a_panic() {
    // 300,000 nops is beyond the harness's jump over the sled; one nop
    // above the limit is the first value refused.
    let limit = safedm::campaign::spec::MAX_STAGGER;
    for (cmd, nops) in [(&["analyze"][..], 300_000), (&[][..], 300_000), (&[][..], limit + 1)] {
        let out = sim()
            .args(cmd)
            .args(["--kernel", "fac", "--stagger", &nops.to_string()])
            .output()
            .expect("run safedm-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?} {nops}: {stderr}");
        assert!(
            stderr.contains("--stagger") && stderr.contains(&format!("limit of {limit}")),
            "{cmd:?} {nops}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd:?} {nops}: {stderr}");
    }
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

const SPIN_THEN_IDLE: &str =
    "li t0, 200\nspin: addi t0, t0, -1\nbnez t0, spin\nidle: nop\nj idle\n";

#[test]
fn analyze_gate_confirms_an_idle_loop() {
    let src = tmp("spin-then-idle.s");
    std::fs::write(&src, SPIN_THEN_IDLE).expect("write program");
    // The idle loop never halts: the cycle budget ends the run.
    let out = sim()
        .arg("analyze")
        .arg(&src)
        .args(["--gate", "--max-cycles", "100000"])
        .output()
        .expect("run safedm-sim");
    let _ = std::fs::remove_file(&src);
    let stdout = checked(out, "analyze --gate");
    let div001: Vec<&str> =
        stdout.lines().filter(|l| l.trim_start().starts_with("DIV001")).collect();
    assert_eq!(div001.len(), 1, "one DIV001 region:\n{stdout}");
    assert!(div001[0].ends_with("-> CONFIRMED"), "{stdout}");
}

#[test]
fn analyze_kernel_all_sweeps_every_kernel() {
    let out = sim().args(["analyze", "--kernel", "all"]).output().expect("run safedm-sim");
    let stdout = checked(out, "analyze --kernel all");
    let kernels = stdout.lines().filter(|l| l.contains(" stagger=0 points=")).count();
    assert_eq!(kernels, 29, "{stdout}");
}

#[test]
fn a_switch_may_come_before_the_program_path() {
    let src = tmp("switch-order.s");
    std::fs::write(&src, SPIN_THEN_IDLE).expect("write program");
    let run = |before: bool| {
        let mut cmd = sim();
        cmd.arg("analyze");
        if before {
            cmd.arg("--gate").arg(&src);
        } else {
            cmd.arg(&src).arg("--gate");
        }
        let out = cmd.args(["--max-cycles", "100000"]).output().expect("run safedm-sim");
        checked(out, &format!("analyze --gate (switch first: {before})"))
    };
    let (first, last) = (run(true), run(false));
    let _ = std::fs::remove_file(&src);
    assert!(last.contains("CONFIRMED"), "{last}");
    assert_eq!(first, last);
}

#[test]
fn a_closed_stdout_ends_the_program_quietly() {
    // 300 loops give about 150 KiB of findings, more than a pipe holds, so
    // the program is still writing when the reader goes away.
    let src = tmp("many-loops.s");
    let loops: Vec<String> =
        (0..300).map(|i| format!("li t0, 3\nl{i}: addi t0, t0, -1\nbnez t0, l{i}\n")).collect();
    std::fs::write(&src, loops.concat() + "ebreak\n").expect("write program");
    let mut child = sim()
        .arg("analyze")
        .arg(&src)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run safedm-sim");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first line");
    assert!(line.starts_with("static diversity analysis"), "{line}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for safedm-sim");
    let _ = std::fs::remove_file(&src);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
