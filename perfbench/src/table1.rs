//! `table1`: the paper's Table I protocol on the cycle engine, through
//! `service::prepare` + `service::run` with no cache and one worker.
//!
//! The `soc` pipeline and the `core` monitor do nearly all the work here;
//! the service, cache, HTTP and analysis layers do almost nothing. The
//! kernel list is trimmed from the full 29 so that one protocol pass fits
//! several times into a run; each pass is 10 cells per kernel (4
//! synchronised jitter seeds, 2 runs at each of 100, 1,000 and 10,000
//! nops).

use std::time::Instant;

use safedm_bench::experiments::{table1_cells, TABLE1_NOPS};
use safedm_bench::service::{self, Prepared, RunOptions};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_obs::events::CellEvent;
use safedm_obs::json::{self, JsonValue};
use safedm_tacle::{kernels, Kernel};

use crate::metrics::{fastest, peak_rss_mb, set_pass_metrics, FastestPass, Report};
use crate::sim::{self, Window};
use crate::{timed, Args};

/// The kernels of one pass: the two the monitor profile is quoted on
/// (`bitcount`, `prime`) plus five short ones of different shapes. One
/// pass is 70 cells, about 3 s on one 2026 x86-64 core; the full 29-kernel
/// protocol takes about 27 s.
pub const KERNELS: &[&str] =
    &["bitcount", "prime", "binarysearch", "cosf", "insertsort", "sha", "st"];

/// The campaign spec of one pass. Seed 0 keeps the protocol's literal
/// jitter seeds (the ones `table1_results.json` was produced with); any
/// other seed becomes the campaign's root seed.
pub fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        protocol: Protocol::Table1,
        kernels: KERNELS.iter().map(|k| (*k).to_owned()).collect(),
        staggers: vec![0],
        runs: 1,
        root_seed: (seed != 0).then_some(seed),
        engine: "cycle".to_owned(),
        jobs: Some(1),
        keep_timing: false,
    }
}

/// Expected per-setup maxima `(zero_stag, no_div)` of one kernel from the
/// committed Table I output.
fn expected_row(doc: &JsonValue, name: &str) -> Option<Vec<(u64, u64)>> {
    let row = doc
        .get("rows")?
        .as_array()?
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))?;
    row.get("cells")?
        .as_array()?
        .iter()
        .map(|c| Some((c.get("zero_stag")?.as_u64()?, c.get("no_div")?.as_u64()?)))
        .collect()
}

/// The `(kernel, config)` groups of a literal-seed pass whose maxima
/// `(zero_stag, no_div)` differ from the committed Table I output.
fn off_table(events: &[CellEvent]) -> Vec<(&'static str, String)> {
    let doc = json::parse(include_str!("../../table1_results.json")).expect("table1_results.json");
    let mut off = Vec::new();
    for k in KERNELS {
        let expected = expected_row(&doc, k);
        for (setup, nops) in TABLE1_NOPS.iter().enumerate() {
            let config = format!("nops={nops}");
            let got = events
                .iter()
                .filter(|e| e.kernel == *k && e.config == config)
                .fold((0, 0), |(z, n), e| (z.max(e.zero_stag), n.max(e.no_div)));
            let want = expected.as_ref().and_then(|row| row.get(setup).copied());
            if want != Some(got) {
                eprintln!("{k} {config}: (zero_stag, no_div) {got:?}, table {want:?}");
                off.push((*k, config));
            }
        }
    }
    off
}

/// Checks one pass's events, one operation per cell of the pass: a cell
/// fails when it is missing, fails its self-check or, on the literal-seed
/// protocol, lies in a group that misses the committed table.
fn check_pass(report: &mut Report, cells: usize, events: &[CellEvent], literal: bool) {
    let off = if literal { off_table(events) } else { Vec::new() };
    for ev in events {
        let in_off = off.iter().any(|(k, c)| ev.kernel == *k && ev.config == *c);
        report.record(ev.ok && !in_off, || {
            format!(
                "{} {} run {}: self-check {}, table {}",
                ev.kernel, ev.config, ev.run, ev.ok, !in_off
            )
        });
    }
    for _ in events.len()..cells {
        report.record(false, || "pass lost a cell".into());
    }
}

fn resolve() -> Vec<&'static Kernel> {
    KERNELS.iter().map(|k| kernels::by_name(k).expect("known kernel")).collect()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let spec = spec(args.seed);
    let literal = spec.root_seed.is_none();
    let prepare = || service::prepare(&spec).expect("the table1 spec is valid");
    let (mut prepared, setup_s) = timed(prepare);

    if !args.trace {
        // Set-up is re-timed after every pass, so that it is taken in the
        // same host states as the cells, and counts with its fastest
        // repetition as each cell does.
        let mut setups = vec![setup_s];
        let mut passes = FastestPass::default();
        let t0 = Instant::now();
        while passes.is_empty() || t0.elapsed() < args.window() {
            let out = service::run(&prepared, &RunOptions::default()).expect("no cache, no errors");
            check_pass(&mut report, prepared.cells.len(), &out.events, literal);
            let ms: Vec<f64> =
                out.events.iter().map(|e| e.wall_us.unwrap_or(0) as f64 / 1e3).collect();
            passes.add(&ms);
            setups.push(timed(prepare).1);
        }
        set_pass_metrics(&mut report, &passes);
        report.set("setup_s", fastest(&setups));
        report.set("peak_rss_mb", peak_rss_mb());
        return report;
    }

    // The traced run interleaves cell by cell, so the untraced side runs
    // each cell as a one-cell campaign through the same `service::run`.
    let prepare_s: Vec<f64> = (0..5).map(|_| timed(prepare).1).collect();
    report.set("service.prepare_ms", fastest(&prepare_s) * 1e3);
    let singles: Vec<Prepared> = std::mem::take(&mut prepared.cells)
        .into_iter()
        .map(|cell| Prepared {
            spec: prepared.spec.clone(),
            engine: prepared.engine,
            jobs: 1,
            cells: vec![cell],
        })
        .collect();
    let cells = table1_cells(&resolve(), spec.root_seed);
    let mut pass_events = Vec::new();
    sim::traced_cells(
        args,
        &mut report,
        cells.len(),
        |report, i| {
            let out = service::run(&singles[i], &RunOptions::default()).expect("no cache");
            let e = out.events.into_iter().next().expect("one cell");
            let key = [e.cycles, e.zero_stag, e.no_div, e.guarded, e.episodes];
            pass_events.push(e);
            if i + 1 == singles.len() {
                check_pass(report, singles.len(), &std::mem::take(&mut pass_events), literal);
            }
            key
        },
        |i, sampler, acc| {
            let c = &cells[i];
            let r = sim::run_cell(&c.program, c.seed, Window::BootGated, Some(sampler), Some(acc));
            let ok = r.a0_ok((c.kernel.reference)());
            (r, ok)
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jitter_seeds(seed: u64) -> Vec<u64> {
        table1_cells(&resolve(), spec(seed).root_seed).iter().map(|c| c.seed).collect()
    }

    #[test]
    fn seed_zero_is_the_literal_protocol() {
        assert_eq!(spec(0).root_seed, None);
        assert!(jitter_seeds(0).iter().all(|&s| s < 4), "literal seeds are run numbers");
    }

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        assert_eq!(spec(5), spec(5));
        assert_eq!(jitter_seeds(5), jitter_seeds(5));
        assert_ne!(jitter_seeds(5), jitter_seeds(6));
    }
}
