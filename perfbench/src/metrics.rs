//! Metric names, the result line, and the small statistics the workloads
//! share.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload's measured run
/// (`--trace 0`), with their units. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run
/// (`--trace 1`), with their units. Must match `BENCHMARK.json`. A layer
/// the workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.mcyc_per_s", "Mcyc/s"),
    ("soc.pipeline.ns_per_cycle", "ns"),
    ("soc.uncore.ns_per_cycle", "ns"),
    ("core.monitor.ns_per_cycle", "ns"),
    ("soc.cycles", "count"),
    ("soc.retired", "count"),
    ("soc.ipc", "ratio"),
    ("soc.l1d_miss_rate", "ratio"),
    ("bus.l2_miss_rate", "ratio"),
    ("bus.transactions", "count"),
    ("core.no_div_cycles", "count"),
    ("core.zero_stag_cycles", "count"),
    ("sim.stats_digest", "hash"),
    ("service.prepare_ms", "ms"),
    ("cache.get_mem_us.p50", "us"),
    ("cache.get_disk_us.p50", "us"),
    ("cache.put_us.p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("service.run_hit_ms.p50", "ms"),
    ("sdk.submit_ms.p50", "ms"),
    ("sdk.stream_ms.p50", "ms"),
    ("sdk.stream_ms.p99", "ms"),
    ("sdk.result_ms.p50", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.interproc_ms", "ms"),
    ("analysis.prove_ms", "ms"),
    ("tacle.twin_build_ms", "ms"),
    ("analysis.prove_pair_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: cells, requests, proof sweeps, and the
    /// checks a run makes beside them.
    pub attempted: u64,
    /// Attempted operations that failed their correctness check.
    pub failed: u64,
    /// Measured values by metric name.
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.push((name, value));
    }

    /// Records one attempted operation, failed unless `ok`. An operation
    /// with several checks folds them into one `ok` first.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The result line: every end-to-end metric (measured run) or every
    /// per-layer metric (traced run), in declaration order.
    ///
    /// # Panics
    ///
    /// Panics when a measured run did not record an end-to-end metric.
    pub fn render(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = match self.value(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => panic!("measured run did not record {name}"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

// A shared host slows a run down in spells that last from under a second
// to the whole run, and never speeds it up. Both estimators below
// therefore keep the fast side of repeated measurements: the figure a
// quiet host gives, which is also the one a code change moves.

/// Each operation's fastest time in ms over repeated passes over the same
/// operations. It is folded pass by pass, so that memory does not grow
/// with the number of passes a run makes.
#[derive(Default)]
pub struct FastestPass {
    ms: Vec<f64>,
    passes: usize,
}

impl FastestPass {
    /// Folds in one pass; `ms[i]` is operation `i`'s time in it.
    pub fn add(&mut self, ms: &[f64]) {
        if self.passes == 0 {
            self.ms = ms.to_vec();
        } else {
            self.ms.truncate(ms.len());
            for (f, t) in self.ms.iter_mut().zip(ms) {
                *f = f.min(*t);
            }
        }
        self.passes += 1;
    }

    pub fn is_empty(&self) -> bool {
        self.passes == 0
    }
}

/// Records the end-to-end metrics of repeated passes: each operation
/// counts with its fastest pass.
pub fn set_pass_metrics(report: &mut Report, passes: &FastestPass) {
    let per_op = &passes.ms;
    let n = per_op.len();
    report.set("ops_per_s", ratio(n as f64, per_op.iter().sum::<f64>() / 1e3));
    report.set("op_ms.p50", median(per_op));
    report.set("op_ms.p99", quantile(per_op, 0.99));
}

/// Length of one slice of a stream of operations.
pub const SLICE_S: f64 = 1.0;

/// Samples `(end_s, value)` grouped by the [`SLICE_S`] slice of the window
/// their operation ended in; empty slices are dropped.
fn slices(samples: &[(f64, f64)], window_s: f64) -> Vec<Vec<f64>> {
    let n = ((window_s / SLICE_S).floor() as usize).max(1);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(end_s, v) in samples {
        let k = (end_s / SLICE_S).floor() as usize;
        if k < n {
            per[k].push(v);
        }
    }
    per.retain(|s| !s.is_empty());
    per
}

/// `f` of each slice of `samples`, then the `q`-quantile over the slices.
fn over_slices(samples: &[(f64, f64)], window_s: f64, f: impl Fn(&[f64]) -> f64, q: f64) -> f64 {
    quantile(&slices(samples, window_s).iter().map(|s| f(s)).collect::<Vec<_>>(), q)
}

/// Records the end-to-end metrics of a stream of operations, each given as
/// `(end_s, ms)`: its completion time since the window opened and its
/// latency. Each metric is taken per slice and the report keeps the fast
/// quartile of the slices (the 75th percentile of throughput, the 25th of
/// each latency percentile).
pub fn set_slice_metrics(report: &mut Report, samples: &[(f64, f64)], window_s: f64) {
    report.set("ops_per_s", over_slices(samples, window_s, |s| s.len() as f64 / SLICE_S, 0.75));
    report.set("op_ms.p50", over_slices(samples, window_s, median, 0.25));
    report.set("op_ms.p99", over_slices(samples, window_s, |s| quantile(s, 0.99), 0.25));
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `h` folded to 52 bits, so a JSON reader holding numbers as doubles
/// keeps every bit.
pub fn fold52(h: u64) -> u64 {
    (h ^ (h >> 52)) & ((1 << 52) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = safedm_obs::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> =
                expected.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
            assert_eq!(listed, printed, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, ["table1", "membound", "serve", "prove"]);
    }

    #[test]
    fn rendered_line_lists_every_metric_of_the_mode() {
        let mut r = Report { attempted: 3, ..Report::default() };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.render(false);
        let v = safedm_obs::json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        assert!(END_TO_END.iter().all(|(n, _)| m.get(n).is_some()));
        assert_eq!(v.get("correct").and_then(|b| b.as_bool()), Some(true));
        let traced = safedm_obs::json::parse(&r.render(true)).unwrap();
        assert!(PER_LAYER.iter().all(|(n, _)| traced.get("metrics").unwrap().get(n).is_some()));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
