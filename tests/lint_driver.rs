//! Integration tests of the unified lint driver: SARIF emission, baseline
//! round-trips, and the `safedm-sim analyze` CI gate driven through the
//! real binary.

use std::path::PathBuf;
use std::process::Command;

use safedm::analysis::{analyze, prove, sarif, AnalysisConfig, Baseline, BaselineFilter, Severity};
use safedm::obs::json::{self, JsonValue};
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig};

fn kernel_findings(name: &str) -> (String, Vec<safedm::analysis::Diagnostic>) {
    let k = kernels::by_name(name).expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let report = analyze(&prog, &AnalysisConfig::default());
    (name.to_owned(), prove(&report.program, &report.cfg, &report.config).diagnostics)
}

#[test]
fn sarif_log_round_trips_through_the_public_api() {
    let runs = vec![kernel_findings("fac"), kernel_findings("bitcount")];
    let total: usize = runs.iter().map(|(_, d)| d.len()).sum();
    let doc = sarif::to_sarif(&runs).render();
    let parsed = json::parse(&doc).expect("emitted SARIF is valid JSON");
    assert_eq!(parsed.get("version").and_then(JsonValue::as_str), Some("2.1.0"));
    let run = &parsed.get("runs").unwrap().as_array().unwrap()[0];
    let results = run.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), total, "one SARIF result per diagnostic");
    // Every result references a rule the driver declares.
    let rules: Vec<String> = run
        .get("tool")
        .unwrap()
        .get("driver")
        .unwrap()
        .get("rules")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r.get("id").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(rules.len(), 10, "all ten DIV rules are declared");
    for r in results {
        let id = r.get("ruleId").unwrap().as_str().unwrap();
        assert!(rules.iter().any(|x| x == id), "undeclared rule {id}");
        let uri = r.get("locations").unwrap().as_array().unwrap()[0]
            .get("physicalLocation")
            .unwrap()
            .get("artifactLocation")
            .unwrap()
            .get("uri")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(uri == "fac" || uri == "bitcount");
    }
}

#[test]
fn baseline_round_trip_suppresses_then_detects_staleness() {
    let runs = vec![kernel_findings("fac")];
    let baseline = Baseline::from_findings(&runs);
    let reparsed = Baseline::parse(&baseline.render()).expect("canonical render parses");
    assert_eq!(reparsed.entries, baseline.entries);

    // Round 1: the baseline covers everything it was built from.
    let mut filter = BaselineFilter::new(reparsed.clone());
    let left = filter.suppress("fac", runs[0].1.clone());
    assert!(left.is_empty(), "surviving findings: {left:?}");
    assert!(filter.stale().is_empty());

    // Round 2: the same findings under a different program name are new,
    // and every baseline entry goes stale.
    let mut filter = BaselineFilter::new(reparsed);
    let left = filter.suppress("prime", runs[0].1.clone());
    assert_eq!(left.len(), runs[0].1.len());
    assert_eq!(filter.stale().len(), baseline.entries.len());
}

fn sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safedm-sim"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("safedm-lint-{}-{name}", std::process::id()))
}

#[test]
fn cli_lint_gate_round_trips_over_the_whole_suite() {
    let baseline = tmp("baseline.json");
    let sarif_out = tmp("findings.sarif");

    // Write the baseline from a full-suite sweep.
    let out = sim()
        .args(["analyze", "--kernel", "all", "--write-baseline"])
        .arg(&baseline)
        .output()
        .expect("run safedm-sim");
    assert!(
        out.status.success(),
        "write-baseline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(Baseline::parse(&doc).is_ok(), "emitted baseline parses: {doc}");

    // Re-run against it: every finding is covered, the gate is clean, and
    // the SARIF log carries zero surviving results.
    let out = sim()
        .args(["analyze", "--kernel", "all", "--baseline"])
        .arg(&baseline)
        .arg("--sarif")
        .arg(&sarif_out)
        .output()
        .expect("run safedm-sim");
    assert!(out.status.success(), "gate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lint gate: clean"), "stdout: {stdout}");
    let log = std::fs::read_to_string(&sarif_out).expect("sarif written");
    let parsed = json::parse(&log).expect("valid SARIF JSON");
    let results = parsed.get("runs").unwrap().as_array().unwrap()[0]
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert_eq!(results, 0, "baseline-suppressed sweep has no surviving results");

    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&sarif_out);
}

#[test]
fn cli_lint_gate_fails_on_uncovered_errors() {
    // An empty baseline plus `--deny DIV008` promotes the warnings of fac's
    // three unprovable loops to errors the baseline cannot cover.
    let empty = tmp("empty-baseline.json");
    std::fs::write(&empty, Baseline::default().render()).expect("write empty baseline");

    let out = sim()
        .args(["analyze", "--kernel", "fac", "--deny", "DIV008", "--baseline"])
        .arg(&empty)
        .output()
        .expect("run safedm-sim");
    assert!(!out.status.success(), "gate must fail on uncovered errors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lint gate"), "stderr: {stderr}");
    assert!(stderr.contains("DIV008"), "stderr names the rule: {stderr}");

    // The same run with the findings allowed passes.
    let out = sim()
        .args(["analyze", "--kernel", "fac", "--allow", "DIV008", "--baseline"])
        .arg(&empty)
        .output()
        .expect("run safedm-sim");
    assert!(
        out.status.success(),
        "allow-listed run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_file(&empty);
}

#[test]
fn default_severities_pin_the_gate_contract() {
    // The CI gate trips on `Severity::Error` only; pin which codes that is.
    use safedm::analysis::LintCode;
    let errors: Vec<&str> = LintCode::ALL
        .iter()
        .filter(|c| c.default_severity() == Severity::Error)
        .map(|c| c.id())
        .collect();
    assert_eq!(errors, ["DIV001", "DIV002", "DIV004", "DIV005", "DIV007", "DIV010"]);
}
