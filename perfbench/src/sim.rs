//! The benchmark's own stepping loop for monitored, cycle-accurate cells,
//! with sampled layer timing for the traced run.
//!
//! Timing every cycle with `MonitoredSoc::step_profiled` adds 50–80% to
//! the wall time it splits, so the traced loop calls plain `step` and only
//! one cycle in about [`STRIDE`] is timed. The stride is jittered so that
//! sampling cannot lock onto a loop's period. Sampled cycles alternate
//! between one span around the whole `step` and `step_profiled`'s span per
//! component. A component span runs long: each timer read waits for the
//! work before it, so the component loses the overlap it has with its
//! neighbours in an untimed step. The whole-step span has one such
//! boundary instead of four, so it gives the time per cycle, and the
//! component spans give its split between the layers.

use std::hint::black_box;
use std::time::Instant;

use safedm_asm::Program;
use safedm_campaign::spec::content_digest;
use safedm_core::{regs, MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_isa::Reg;
use safedm_obs::{MetricsRegistry, SelfProfiler};
use safedm_soc::{SocConfig, SocMetrics};

use crate::metrics::{fold52, median, ratio, Report};

/// Mean number of cycles between two sampled cycles.
pub const STRIDE: u64 = 48;

/// Cycle budget per cell (runs end at `ebreak` long before).
pub const BUDGET: u64 = 200_000_000;

/// What a sampled cycle measures.
enum Probe {
    /// One span around the whole `MonitoredSoc::step`.
    Whole,
    /// `MonitoredSoc::step_profiled`: one span per component.
    Split,
}

/// Sampled layer timing of the traced run.
pub struct Sampler {
    prof: SelfProfiler,
    rng: u64,
    countdown: u64,
    next_whole: bool,
    /// Cycles that were sampled.
    pub sampled: u64,
}

/// Sampled time so far, each span less the mean empty span: the whole
/// steps and their count, and the `[pipeline, uncore, monitor]` component
/// spans (the pipeline is `core0` + `core1`).
#[derive(Clone, Copy)]
struct Totals {
    whole_ns: f64,
    whole: u64,
    split_ns: [f64; 3],
}

impl Sampler {
    pub fn new(seed: u64) -> Sampler {
        Sampler {
            prof: SelfProfiler::new(),
            rng: seed | 1,
            countdown: STRIDE,
            next_whole: true,
            sampled: 0,
        }
    }

    /// What, if anything, the next cycle measures. Sampled cycles alternate
    /// between the two probes.
    fn tick(&mut self) -> Option<Probe> {
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        // xorshift64: a stride uniform in [STRIDE/2, 3*STRIDE/2).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.countdown = STRIDE / 2 + self.rng % STRIDE;
        self.next_whole = !self.next_whole;
        Some(if self.next_whole { Probe::Split } else { Probe::Whole })
    }

    fn totals(&self) -> Totals {
        let phases = self.prof.phases();
        let cal_ns = phases
            .iter()
            .find(|(n, _, _)| n == "empty")
            .map_or(0.0, |(_, d, calls)| d.as_nanos() as f64 / *calls as f64);
        let mut t = Totals { whole_ns: 0.0, whole: 0, split_ns: [0.0; 3] };
        for (name, d, calls) in phases {
            let ns = (d.as_nanos() as f64 - *calls as f64 * cal_ns).max(0.0);
            match name.as_str() {
                "step" => {
                    t.whole_ns += ns;
                    t.whole += calls;
                }
                "core0" | "core1" => t.split_ns[0] += ns,
                "uncore" => t.split_ns[1] += ns,
                "monitor" => t.split_ns[2] += ns,
                _ => {}
            }
        }
        t
    }
}

/// One cell's monitored outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Cycles from the start of the measurement window to the halt.
    pub cycles: u64,
    /// Every simulated cycle, boot included.
    pub total_cycles: u64,
    pub zero_stag: u64,
    pub no_div: u64,
    pub observed: u64,
    pub episodes: u64,
    /// Final `a0` of core 0 and core 1.
    pub a0: [u64; 2],
    pub timed_out: bool,
}

impl CellResult {
    /// The counters a campaign event also carries: cycles, zero-stagger,
    /// no-diversity, observed cycles and episodes.
    pub fn key(&self) -> [u64; 5] {
        [self.cycles, self.zero_stag, self.no_div, self.observed, self.episodes]
    }

    /// Whether the cell halted with `expected` in both cores' `a0`.
    pub fn a0_ok(&self, expected: u64) -> bool {
        !self.timed_out && self.a0 == [expected; 2]
    }
}

/// Simulated statistics summed over the cells of one pass, plus the
/// digest over every cell's metric snapshot and monitor counters.
#[derive(Default, Clone, PartialEq)]
pub struct PassStats {
    pub cycles: u64,
    pub retired: u64,
    pub l1d_hits: u64,
    pub l1d_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub transactions: u64,
    pub no_div: u64,
    pub zero_stag: u64,
    pub digest: u64,
}

/// Feeds one finished cell into the pass statistics. The digest is taken
/// over `text`: each cell's metric snapshot JSON, then its monitor
/// counters.
pub struct StatsAcc {
    stats: PassStats,
    text: String,
}

impl StatsAcc {
    pub fn new() -> StatsAcc {
        StatsAcc { stats: PassStats::default(), text: String::new() }
    }

    fn add(&mut self, sys: &MonitoredSoc, r: &CellResult) {
        let soc = sys.soc();
        let s = &mut self.stats;
        s.cycles += r.total_cycles;
        for c in 0..2 {
            let core = soc.core(c);
            s.retired += core.retired();
            let (_, (dh, dm)) = core.l1_stats();
            s.l1d_hits += dh;
            s.l1d_misses += dm;
        }
        let bus = soc.uncore().stats();
        s.l2_hits += bus.l2_hits;
        s.l2_misses += bus.l2_misses;
        s.transactions += bus.transactions;
        s.no_div += r.no_div;
        s.zero_stag += r.zero_stag;

        let mut reg = MetricsRegistry::new(true);
        SocMetrics::register(&mut reg, soc.core_count()).sample(soc, &mut reg);
        self.text.push_str(&reg.snapshot().to_json());
        let c = sys.monitor().counters();
        for v in [
            c.cycles_observed,
            c.ds_match_cycles,
            c.is_match_cycles,
            c.no_div_cycles,
            r.zero_stag,
            r.episodes,
            r.total_cycles,
        ] {
            self.text.push_str(&format!(" {v}"));
        }
        self.text.push('\n');
    }

    pub fn finish(mut self) -> PassStats {
        self.stats.digest = fold52(content_digest(&self.text));
        self.stats
    }
}

/// Steps `sys` one cycle, timed when the sampler says so.
fn step(sys: &mut MonitoredSoc, sampler: &mut Option<&mut Sampler>) {
    let Some(s) = sampler.as_deref_mut() else {
        sys.step();
        return;
    };
    match s.tick() {
        None => {
            sys.step();
            return;
        }
        Some(Probe::Whole) => {
            s.prof.time_named("step", || sys.step());
        }
        Some(Probe::Split) => {
            sys.step_profiled(&mut s.prof);
        }
    }
    // An empty span in the same state of the host caches: the fixed cost
    // of one span, subtracted from the others.
    s.prof.time_named("empty", || black_box(()));
    s.sampled += 1;
}

/// How a cell opens its measurement window.
#[derive(Clone, Copy)]
pub enum Window {
    /// The Table I protocol: the monitor stays off until the first commit,
    /// then starts with the committed-instruction difference preset
    /// (`experiments::run_monitored_prebuilt`'s boot gating).
    BootGated,
    /// Monitored from the first cycle (the grid protocol's cell body).
    FromReset,
}

/// Runs one monitored cell with the campaign cells' configuration (memory
/// jitter 2, polling report mode). With a sampler the loop is the traced
/// one; without, it is the plain `MonitoredSoc::run` the campaign code
/// uses.
pub fn run_cell(
    prog: &Program,
    seed: u64,
    window: Window,
    mut sampler: Option<&mut Sampler>,
    stats: Option<&mut StatsAcc>,
) -> CellResult {
    let soc_cfg = SocConfig { mem_jitter: 2, jitter_seed: seed, ..SocConfig::default() };
    let dm_cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let mut sys = MonitoredSoc::new(soc_cfg, dm_cfg);
    sys.load_program(prog);
    let on = 1 | (regs::encode_mode(ReportMode::Polling) << 1);
    match window {
        Window::BootGated => {
            sys.write_ctrl(0);
            sys.monitor_mut().set_enabled(false);
            while sys.soc().core(0).retired() == 0 && sys.soc().core(1).retired() == 0 {
                assert!(!sys.soc().all_halted(), "halted before first commit");
                step(&mut sys, &mut sampler);
            }
            let diff = sys.soc().core(0).retired() as i64 - sys.soc().core(1).retired() as i64;
            sys.monitor_mut().preset_diff(diff);
        }
        Window::FromReset => {}
    }
    sys.write_ctrl(on);
    let start = sys.soc().cycle();
    let out = if sampler.is_some() {
        loop {
            let soc = sys.soc();
            let drained = (0..soc.core_count()).all(|c| soc.core(c).store_buffer_len() == 0);
            if (soc.all_halted() && drained) || soc.cycle() - start >= BUDGET {
                break;
            }
            step(&mut sys, &mut sampler);
        }
        // Zero further cycles: closes the monitor's episodes exactly as the
        // end of `MonitoredSoc::run` does.
        sys.run(0)
    } else {
        sys.run(BUDGET)
    };
    let r = CellResult {
        cycles: sys.soc().cycle() - start,
        total_cycles: sys.soc().cycle(),
        zero_stag: out.zero_stag_cycles,
        no_div: out.no_div_cycles,
        observed: out.cycles_observed,
        episodes: sys.monitor().no_diversity_history().total_episodes(),
        a0: [sys.soc().core(0).reg(Reg::A0), sys.soc().core(1).reg(Reg::A0)],
        timed_out: !sys.soc().all_halted(),
    };
    if let Some(acc) = stats {
        acc.add(&sys, &r);
    }
    r
}

/// Runs the traced run of a simulator workload: passes over the same
/// cells until the window has passed (at least one), each cell first
/// untraced the way the measured run drives it, then traced through
/// [`run_cell`] with the sampler. Running the two back to back per cell
/// keeps slow spells of a shared host from landing on one side only.
///
/// `untraced(report, i)` runs cell `i`, records it as an operation and
/// returns its [`CellResult::key`]. `traced(i, sampler, acc)` returns the
/// traced [`CellResult`] and whether it passed its own check; the traced
/// cell is one more operation, which also fails when its key differs from
/// the untraced one. Each pass after the first records one more operation:
/// its statistics equal the first pass's.
pub fn traced_cells(
    args: &crate::Args,
    report: &mut Report,
    cells: usize,
    mut untraced: impl FnMut(&mut Report, usize) -> [u64; 5],
    mut traced: impl FnMut(usize, &mut Sampler, &mut StatsAcc) -> (CellResult, bool),
) {
    let mut sampler = Sampler::new(args.seed ^ 0x9e37_79b9_7f4a_7c15);
    // Per pass: overhead, coverage, and [pipeline, uncore, monitor] ns per
    // cycle.
    let (mut overhead, mut coverage, mut per_cycle) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain_total = 0.0;
    let mut first: Option<PassStats> = None;
    let t0 = Instant::now();
    while overhead.is_empty() || t0.elapsed() < args.window() {
        let mut acc = StatsAcc::new();
        let (mut plain_s, mut traced_s, mut layer_s) = (0.0, 0.0, 0.0);
        let pass_start = sampler.totals();
        for i in 0..cells {
            let t = Instant::now();
            let key = untraced(report, i);
            plain_s += t.elapsed().as_secs_f64();

            let before = sampler.totals();
            let t = Instant::now();
            let (r, ok) = traced(i, &mut sampler, &mut acc);
            traced_s += t.elapsed().as_secs_f64();
            let after = sampler.totals();
            let ns_per_cycle =
                ratio(after.whole_ns - before.whole_ns, (after.whole - before.whole) as f64);
            layer_s += ns_per_cycle * r.total_cycles as f64 * 1e-9;

            report.record(ok && key == r.key(), || {
                format!("cell {i} traced: check {ok}, key {:?} against untraced {key:?}", r.key())
            });
        }
        let end = sampler.totals();
        let step_ns =
            ratio(end.whole_ns - pass_start.whole_ns, (end.whole - pass_start.whole) as f64);
        let split = [0, 1, 2].map(|k| end.split_ns[k] - pass_start.split_ns[k]);
        let split_sum: f64 = split.iter().sum();
        per_cycle.push(split.map(|ns| step_ns * ratio(ns, split_sum)));
        overhead.push(traced_s / plain_s - 1.0);
        coverage.push(layer_s / plain_s);
        plain_total += plain_s;
        let stats = acc.finish();
        match &first {
            None => first = Some(stats),
            Some(f) => report.record(*f == stats, || "traced passes disagree".into()),
        }
    }
    let stats = first.expect("at least one pass");
    let passes = overhead.len();
    let layer = |k: usize| median(&per_cycle.iter().map(|p| p[k]).collect::<Vec<_>>());
    let cycles = stats.cycles as f64;

    report.set("sim.mcyc_per_s", ratio(cycles * passes as f64 / 1e6, plain_total));
    report.set("soc.pipeline.ns_per_cycle", layer(0));
    report.set("soc.uncore.ns_per_cycle", layer(1));
    report.set("core.monitor.ns_per_cycle", layer(2));
    report.set("soc.cycles", cycles);
    report.set("soc.retired", stats.retired as f64);
    report.set("soc.ipc", ratio(stats.retired as f64, 2.0 * cycles));
    report.set(
        "soc.l1d_miss_rate",
        ratio(stats.l1d_misses as f64, (stats.l1d_hits + stats.l1d_misses) as f64),
    );
    report.set(
        "bus.l2_miss_rate",
        ratio(stats.l2_misses as f64, (stats.l2_hits + stats.l2_misses) as f64),
    );
    report.set("bus.transactions", stats.transactions as f64);
    report.set("core.no_div_cycles", stats.no_div as f64);
    report.set("core.zero_stag_cycles", stats.zero_stag as f64);
    report.set("sim.stats_digest", stats.digest as f64);
    report.set("trace.overhead_frac", median(&overhead));
    report.set("trace.coverage_frac", median(&coverage));
    eprintln!("traced: {passes} passes, {} sampled cycles", sampler.sampled);
}
