//! Aggregation of campaign event streams and metrics snapshots.
//!
//! Pure data shaping — no I/O, no rendering. [`crate::report`] turns these
//! structures into terminal and HTML views; the `safedm-sim report`
//! subcommand drives both. Everything here is deterministic: aggregation
//! orders follow sorted keys (kernel names, config points), never input
//! arrival order.

use crate::events::CellEvent;
use crate::json::{parse, JsonValue};

/// Per-kernel totals across a campaign's cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSummary {
    /// Kernel name.
    pub kernel: String,
    /// Number of cells.
    pub cells: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total guarded cycles.
    pub guarded: u64,
    /// Total cycles with zero staggering.
    pub zero_stag: u64,
    /// Total cycles without diversity.
    pub no_div: u64,
    /// Total completed no-diversity episodes.
    pub episodes: u64,
    /// Total violations.
    pub violations: u64,
    /// Cells that failed their self-check.
    pub failed: u64,
}

/// Folds events into per-kernel summaries, sorted by kernel name.
#[must_use]
pub fn summarize_by_kernel(events: &[CellEvent]) -> Vec<KernelSummary> {
    let mut out: Vec<KernelSummary> = Vec::new();
    for ev in events {
        let row = match out.iter_mut().find(|r| r.kernel == ev.kernel) {
            Some(row) => row,
            None => {
                out.push(KernelSummary {
                    kernel: ev.kernel.clone(),
                    cells: 0,
                    cycles: 0,
                    guarded: 0,
                    zero_stag: 0,
                    no_div: 0,
                    episodes: 0,
                    violations: 0,
                    failed: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        row.cells += 1;
        row.cycles += ev.cycles;
        row.guarded += ev.guarded;
        row.zero_stag += ev.zero_stag;
        row.no_div += ev.no_div;
        row.episodes += ev.episodes;
        row.violations += ev.violations;
        row.failed += u64::from(!ev.ok);
    }
    out.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    out
}

/// A kernel × config-point matrix of no-diversity density.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Row labels: kernel names, sorted.
    pub kernels: Vec<String>,
    /// Column labels: config points, sorted (numerically when they look
    /// like `key=NUMBER`, lexically otherwise).
    pub configs: Vec<String>,
    /// `values[row][col]`: mean no-diversity fraction of guarded cycles
    /// across that (kernel, config)'s cells; `None` when the combination
    /// has no cells.
    pub values: Vec<Vec<Option<f64>>>,
}

/// Sort key for config points: `nops=1000`-style labels order by their
/// numeric tail, everything else lexically after them.
fn config_key(s: &str) -> (String, u64, String) {
    if let Some((prefix, num)) = s.rsplit_once('=') {
        if let Ok(n) = num.trim_end_matches('%').parse::<u64>() {
            return (prefix.to_owned(), n, String::new());
        }
    }
    (String::new(), u64::MAX, s.to_owned())
}

/// Builds the no-diversity heatmap from a campaign's events.
#[must_use]
pub fn heatmap(events: &[CellEvent]) -> Heatmap {
    let mut kernels: Vec<String> = events.iter().map(|e| e.kernel.clone()).collect();
    kernels.sort();
    kernels.dedup();
    let mut configs: Vec<String> = events.iter().map(|e| e.config.clone()).collect();
    configs.sort_by_key(|c| config_key(c));
    configs.dedup();

    // Sum and count per (kernel, config) cell, then average.
    let mut sums = vec![vec![(0f64, 0u64); configs.len()]; kernels.len()];
    for ev in events {
        let r = kernels.iter().position(|k| *k == ev.kernel).expect("kernel collected above");
        let c = configs.iter().position(|k| *k == ev.config).expect("config collected above");
        #[allow(clippy::cast_precision_loss)]
        let frac = if ev.guarded == 0 { 0.0 } else { ev.no_div as f64 / ev.guarded as f64 };
        sums[r][c].0 += frac;
        sums[r][c].1 += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let values = sums
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(sum, n)| if n == 0 { None } else { Some(sum / n as f64) })
                .collect()
        })
        .collect();
    Heatmap { kernels, configs, values }
}

/// The `n` slowest cells: by `wall_us` when the stream carries timing,
/// by simulated cycles otherwise (ties broken by cell index, so the order
/// is total and deterministic).
#[must_use]
pub fn slowest_cells(events: &[CellEvent], n: usize) -> Vec<&CellEvent> {
    let mut sorted: Vec<&CellEvent> = events.iter().collect();
    let has_timing = events.iter().any(|e| e.wall_us.is_some());
    sorted.sort_by_key(|e| {
        let cost = if has_timing { e.wall_us.unwrap_or(0) } else { e.cycles };
        (std::cmp::Reverse(cost), e.index)
    });
    sorted.truncate(n);
    sorted
}

/// One stall cause with its attributed cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallCause {
    /// Cause name (`mem`, `ex`, `operand`, `fetch`, …).
    pub cause: String,
    /// Cycles attributed to it, summed across cores.
    pub cycles: u64,
}

/// Extracts the stall-cause Pareto from a metrics-snapshot JSON document
/// (the `stats --metrics-out` format): every `core<i>.stall_<cause>_cycles`
/// counter, summed across cores, sorted by cycles descending (name
/// ascending on ties).
///
/// # Errors
///
/// Returns a message when the document is not a metrics snapshot.
pub fn stall_pareto(snapshot_json: &str) -> Result<Vec<StallCause>, String> {
    let doc = parse(snapshot_json).map_err(|e| format!("metrics snapshot: {e}"))?;
    let Some(JsonValue::Obj(counters)) = doc.get("counters") else {
        return Err("metrics snapshot has no `counters` object".to_owned());
    };
    let mut causes: Vec<StallCause> = Vec::new();
    for (name, value) in counters {
        let Some(rest) = name.split_once('.').map(|(_, r)| r) else { continue };
        let Some(cause) = rest.strip_prefix("stall_").and_then(|r| r.strip_suffix("_cycles"))
        else {
            continue;
        };
        let cycles = value.as_u64().ok_or_else(|| format!("counter `{name}` is not an integer"))?;
        match causes.iter_mut().find(|c| c.cause == cause) {
            Some(c) => c.cycles += cycles,
            None => causes.push(StallCause { cause: cause.to_owned(), cycles }),
        }
    }
    causes.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.cause.cmp(&b.cause)));
    Ok(causes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kernel: &str, config: &str, guarded: u64, no_div: u64) -> CellEvent {
        CellEvent {
            index: 0,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 1,
            cycles: guarded + 10,
            guarded,
            zero_stag: 0,
            no_div,
            episodes: 1,
            violations: 0,
            ok: true,
            wall_us: None,
        }
    }

    #[test]
    fn kernel_summaries_fold_and_sort() {
        let events =
            vec![ev("z", "nops=0", 100, 10), ev("a", "nops=0", 50, 5), ev("z", "nops=100", 100, 0)];
        let sums = summarize_by_kernel(&events);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].kernel, "a");
        assert_eq!(sums[1].cells, 2);
        assert_eq!(sums[1].no_div, 10);
        assert_eq!(sums[1].guarded, 200);
    }

    #[test]
    fn heatmap_orders_configs_numerically() {
        let events = vec![
            ev("k", "nops=1000", 100, 1),
            ev("k", "nops=0", 100, 50),
            ev("k", "nops=100", 100, 10),
            ev("k", "nops=10000", 100, 0),
        ];
        let h = heatmap(&events);
        assert_eq!(h.configs, vec!["nops=0", "nops=100", "nops=1000", "nops=10000"]);
        assert_eq!(h.values[0][0], Some(0.5));
        assert_eq!(h.values[0][3], Some(0.0));
    }

    #[test]
    fn heatmap_averages_runs_and_marks_holes() {
        let events = vec![
            ev("k", "nops=0", 100, 20),
            ev("k", "nops=0", 100, 40),
            ev("j", "nops=100", 100, 0),
        ];
        let h = heatmap(&events);
        // j row, nops=0 column never ran.
        let jr = h.kernels.iter().position(|k| k == "j").unwrap();
        let c0 = h.configs.iter().position(|c| c == "nops=0").unwrap();
        assert_eq!(h.values[jr][c0], None);
        let kr = h.kernels.iter().position(|k| k == "k").unwrap();
        let mean = h.values[kr][c0].unwrap();
        assert!((mean - 0.3).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn slowest_prefers_wall_clock_then_cycles() {
        let mut a = ev("a", "c", 10, 0);
        a.index = 0;
        a.cycles = 999;
        let mut b = ev("b", "c", 10, 0);
        b.index = 1;
        b.cycles = 5;
        // Without timing: by cycles.
        let untimed = [a.clone(), b.clone()];
        assert_eq!(slowest_cells(&untimed, 1)[0].kernel, "a");
        // With timing on any event: by wall_us (missing = 0).
        b.wall_us = Some(10_000);
        let timed = [a, b];
        assert_eq!(slowest_cells(&timed, 1)[0].kernel, "b");
    }

    #[test]
    fn stall_pareto_sums_cores_and_sorts() {
        let snap = r#"{"counters":{"core0.stall_mem_cycles":30,"core1.stall_mem_cycles":20,
            "core0.stall_fetch_cycles":5,"core1.stall_fetch_cycles":5,
            "core0.retired":1000,"bus.transactions":7},"gauges":{},"histograms":{}}"#;
        let causes = stall_pareto(snap).unwrap();
        assert_eq!(causes.len(), 2);
        assert_eq!(causes[0], StallCause { cause: "mem".to_owned(), cycles: 50 });
        assert_eq!(causes[1], StallCause { cause: "fetch".to_owned(), cycles: 10 });
        assert!(stall_pareto("{}").is_err());
        assert!(stall_pareto("not json").is_err());
    }
}
