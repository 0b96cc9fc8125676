//! `prove`: repeated full prover sweeps with no simulation.
//!
//! One sweep runs `analyze` + `prove` on every TACLe kernel, unstaggered
//! and behind a 100-nop sled (the grid `tests/golden/prove_verdicts.txt`
//! pins), then `build_twin_program` + `analyze` + `prove_pair` on every
//! kernel. It exercises only the `analysis` crate and `asm::transform`.
//! The inputs are the pinned golden grid, so they do not depend on the
//! workload seed.
//!
//! One operation is one kernel's analysis at one setting, 87 a sweep: what
//! a user of the prover waits for on one program. Each counts with its
//! fastest sweep, as each cell of `table1` counts with its fastest pass.

use std::time::{Duration, Instant};

use safedm_analysis::{analyze, prove, prove_pair, AnalysisConfig, ConstProp, Interproc};
use safedm_asm::Program;
use safedm_tacle::{
    build_kernel_program, build_twin_program, kernels, HarnessConfig, Kernel, StaggerConfig,
    TwinConfig,
};

use crate::metrics::{fastest, median, peak_rss_mb, set_pass_metrics, FastestPass, Report};
use crate::{timed, Args};

const GOLDEN: &str = include_str!("../../tests/golden/prove_verdicts.txt");

/// One stagger setting of the sweep: the analysis configuration, and per
/// kernel its built program and golden summary line.
struct Setting {
    cfg: AnalysisConfig,
    programs: Vec<(&'static Kernel, Program, &'static str)>,
}

/// Everything a sweep needs that is built once.
pub struct Inputs {
    settings: Vec<Setting>,
}

/// The golden summary lines under `header`, in kernel order.
fn golden_section(header: &str) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .collect()
}

/// Builds the kernel programs of both stagger settings.
///
/// # Panics
///
/// Panics when the golden file has no line per kernel under a setting.
pub fn inputs() -> Inputs {
    let settings = [None, Some(100u64)]
        .into_iter()
        .map(|stagger_nops| {
            let header = match stagger_nops {
                None => "# unstaggered (effective delta 0)".to_owned(),
                Some(n) => format!("# harness sled {n} nops (effective delta {})", n - 1),
            };
            let stagger =
                stagger_nops.map(|nops| StaggerConfig { nops: nops as usize, delayed_core: 1 });
            let cfg = AnalysisConfig {
                stagger_nops,
                stagger_phase: if stagger.is_some() { -1 } else { 0 },
                ..AnalysisConfig::default()
            };
            let golden = golden_section(&header);
            assert_eq!(golden.len(), kernels::all().len(), "golden lines under `{header}`");
            let harness = HarnessConfig { stagger, ..HarnessConfig::default() };
            let programs = kernels::all()
                .iter()
                .zip(golden)
                .map(|(k, line)| (k, build_kernel_program(k, &harness), line))
                .collect();
            Setting { cfg, programs }
        })
        .collect();
    Inputs { settings }
}

/// Time spent in each layer during one sweep.
#[derive(Default)]
struct Spans {
    analyze: Duration,
    prove: Duration,
    twin_build: Duration,
    prove_pair: Duration,
}

impl Spans {
    fn total(&self) -> Duration {
        self.analyze + self.prove + self.twin_build + self.prove_pair
    }
}

/// Times `f` into `slot` when tracing.
fn span<T>(slot: Option<&mut Duration>, f: impl FnOnce() -> T) -> T {
    match slot {
        None => f(),
        Some(d) => {
            let t = Instant::now();
            let out = f();
            *d += t.elapsed();
            out
        }
    }
}

/// Runs one sweep, recording each operation into `report`, and returns
/// each operation's time in ms. An `analyze` + `prove` passes when its
/// summary line equals the golden one, a twin when its map verifies.
fn sweep(inputs: &Inputs, report: &mut Report, mut spans: Option<&mut Spans>) -> Vec<f64> {
    let mut ms = Vec::new();
    for s in &inputs.settings {
        for (k, prog, golden) in &s.programs {
            let t = Instant::now();
            let r = span(spans.as_mut().map(|t| &mut t.analyze), || analyze(prog, &s.cfg));
            let proof =
                span(spans.as_mut().map(|t| &mut t.prove), || prove(&r.program, &r.cfg, &s.cfg));
            let line = proof.summary_line(k.name);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            report
                .record(line == *golden, || format!("{line}\n  differs from the golden\n{golden}"));
        }
    }
    let acfg = AnalysisConfig { pair_mode: true, ..AnalysisConfig::default() };
    for k in kernels::all() {
        let t = Instant::now();
        let tw = span(spans.as_mut().map(|t| &mut t.twin_build), || {
            build_twin_program(k, &TwinConfig::default())
        });
        let r = span(spans.as_mut().map(|t| &mut t.analyze), || analyze(&tw.program, &acfg));
        let pr = span(spans.as_mut().map(|t| &mut t.prove_pair), || {
            prove_pair(&r.program, &r.cfg, &tw.map, &acfg)
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.record(pr.map_ok, || format!("{}: twin map does not verify", k.name));
    }
    ms
}

/// Time in `ConstProp::compute` + `Interproc::compute` over every kernel
/// program of one sweep. `prove` runs both inside itself; they are timed
/// here by separate calls, outside the traced sweeps.
fn interproc_ms(inputs: &Inputs) -> f64 {
    let mut total = Duration::ZERO;
    for s in &inputs.settings {
        for (_, prog, _) in &s.programs {
            let report = analyze(prog, &s.cfg);
            let t = Instant::now();
            let cp = ConstProp::compute(&report.program, &report.cfg);
            std::hint::black_box(Interproc::compute(&report.program, &report.cfg, &cp));
            total += t.elapsed();
        }
    }
    total.as_secs_f64() * 1e3
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (inputs, setup_s) = timed(inputs);

    if args.trace {
        // Untraced and traced sweeps alternate; each pair gives one
        // overhead and one coverage figure, reported as medians.
        let (mut overhead, mut coverage) = (Vec::new(), Vec::new());
        let mut per_sweep: Vec<Spans> = Vec::new();
        let t0 = Instant::now();
        while per_sweep.is_empty() || t0.elapsed() < args.window() {
            let t = Instant::now();
            sweep(&inputs, &mut report, None);
            let plain = t.elapsed().as_secs_f64();

            let mut spans = Spans::default();
            let t = Instant::now();
            sweep(&inputs, &mut report, Some(&mut spans));
            let traced = t.elapsed().as_secs_f64();
            overhead.push(traced / plain - 1.0);
            coverage.push(spans.total().as_secs_f64() / plain);
            per_sweep.push(spans);
        }
        let ms = |f: fn(&Spans) -> Duration| {
            median(&per_sweep.iter().map(|s| f(s).as_secs_f64() * 1e3).collect::<Vec<_>>())
        };
        let interproc: Vec<f64> = (0..5).map(|_| interproc_ms(&inputs)).collect();
        report.set("analysis.analyze_ms", ms(|s| s.analyze));
        report.set("analysis.interproc_ms", median(&interproc));
        report.set("analysis.prove_ms", ms(|s| s.prove));
        report.set("tacle.twin_build_ms", ms(|s| s.twin_build));
        report.set("analysis.prove_pair_ms", ms(|s| s.prove_pair));
        report.set("trace.overhead_frac", median(&overhead));
        report.set("trace.coverage_frac", median(&coverage));
        return report;
    }

    // Set-up is re-timed after every sweep, so that it is taken in the same
    // host states as the operations, and counts with its fastest repetition
    // as each operation does.
    let mut setups = vec![setup_s];
    let mut passes = FastestPass::default();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed() < args.window() {
        passes.add(&sweep(&inputs, &mut report, None));
        setups.push(timed(self::inputs).1);
    }
    set_pass_metrics(&mut report, &passes);
    report.set("setup_s", fastest(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    report
}
