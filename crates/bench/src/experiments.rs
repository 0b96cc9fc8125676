//! Shared experiment plumbing: monitored kernel runs, the Table I protocol
//! (its cells, the fold of the campaign service's events into rows, and a
//! serial reference), and report structures (serialisable for
//! EXPERIMENTS.md via the hand-rolled [`mod@json`] helpers — no external
//! serialisation dependency).

use std::sync::Arc;
use std::time::Duration;

use safedm_analysis::SoundnessGuard;
use safedm_asm::Asm;
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_campaign::{derive_cell_seed, par_map_timed_observed, Progress};
use safedm_core::{regs, IsLayout, MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_isa::Reg;
use safedm_obs::events::{CellEvent, Timing};
use safedm_obs::{MetricsRegistry, MetricsSnapshot};
use safedm_soc::fastpath::{Engine, FastTwin};
use safedm_soc::{Iss, SocConfig};
use safedm_tacle::{build_kernel_program, HarnessConfig, Kernel, StackMode, StaggerConfig};

use crate::service::{self, RunOptions};

/// Cycle budget per kernel run (generous; runs end at `ebreak`).
pub const RUN_BUDGET: u64 = 200_000_000;

/// One monitored redundant run of one kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelRunSummary {
    /// Kernel name.
    pub name: String,
    /// Initial staggering in nops (0 = synchronised start).
    pub stagger_nops: usize,
    /// Which hart ran the sled.
    pub delayed_core: usize,
    /// Memory-jitter seed of this run.
    pub seed: u64,
    /// Cycles to completion.
    pub cycles: u64,
    /// Instructions retired by core 0.
    pub instructions: u64,
    /// Cycles with zero staggering.
    pub zero_stag: u64,
    /// Cycles without diversity.
    pub no_div: u64,
    /// Cycles with matching data signatures.
    pub ds_match: u64,
    /// Cycles with matching instruction signatures.
    pub is_match: u64,
    /// Monitored cycles.
    pub observed: u64,
    /// Completed no-diversity episodes.
    pub episodes: u64,
    /// Whether both cores produced the reference checksum.
    pub checksum_ok: bool,
}

impl KernelRunSummary {
    /// The run as campaign cell `index`'s event: `guarded` carries the
    /// monitored cycles and a failed self-check counts one violation.
    /// `wall_us` is `None`; the campaign runner fills the measured
    /// duration.
    #[must_use]
    pub fn event(&self, index: u64, config: &str, engine: Engine, run: u64) -> CellEvent {
        CellEvent {
            index,
            kernel: self.name.clone(),
            config: config.to_owned(),
            engine: engine.as_str().to_owned(),
            run,
            seed: self.seed,
            cycles: self.cycles,
            guarded: self.observed,
            zero_stag: self.zero_stag,
            no_div: self.no_div,
            episodes: self.episodes,
            violations: u64::from(!self.checksum_ok),
            ok: self.checksum_ok,
            wall_us: None,
        }
    }
}

/// Where a cycle-engine cell opens its measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The Table I protocol: the window opens when the cores leave reset
    /// and commit their first instruction (the paper's synchronised
    /// start), excluding only the empty-pipeline boot stall while the
    /// first cache line is in flight. The staggering counter is seeded
    /// with the committed-instruction difference at that point (what a
    /// hardware counter running from reset would hold).
    BootGated,
    /// The grid protocol: monitored from the first cycle.
    FromReset,
}

/// Runs `kernel` redundantly under SafeDM with the given staggering and
/// jitter seed, over the [`Window::BootGated`] measurement window.
#[must_use]
pub fn run_monitored(
    kernel: &Kernel,
    stagger: Option<StaggerConfig>,
    seed: u64,
    dm_cfg: SafeDmConfig,
) -> KernelRunSummary {
    run_monitored_cfg(kernel, HarnessConfig { stagger, stack: StackMode::Mirrored }, seed, dm_cfg)
}

/// [`run_monitored`] with full harness control (stack placement included).
#[must_use]
pub fn run_monitored_cfg(
    kernel: &Kernel,
    harness: HarnessConfig,
    seed: u64,
    dm_cfg: SafeDmConfig,
) -> KernelRunSummary {
    let prog = build_kernel_program(kernel, &harness);
    run_cell(Engine::Cycle, kernel, &prog, harness.stagger, seed, Window::BootGated, dm_cfg)
}

/// One kernel cell on the selected engine: the one cell body behind every
/// campaign protocol and [`run_monitored`]. Campaign cells share one
/// pre-built `prog` per (kernel, staggering) setup; `stagger` records
/// which setup it is.
///
/// [`Engine::Cycle`] runs the monitored pipeline pair with memory jitter
/// seeded by `seed`, in polling report mode, over `window`.
/// [`Engine::Fast`] runs a [`FastTwin`] pair over the same image and
/// reports the functional monitor proxies described on [`FastTwin::run`]:
/// `ds_match` and `is_match` are set to the no-diversity proxy (a
/// functional engine has no per-cycle signatures to compare separately),
/// and `seed` and `window` are functionally inert — the fast engine models
/// no memory jitter and no boot stall, which is exactly why its counters
/// are nominal rather than comparable with the cycle engine's.
///
/// Either engine spends at most [`RUN_BUDGET`] cycles. A run that times
/// out, halts before its first commit or ends without the kernel's
/// reference checksum in both cores' `a0` reports `checksum_ok == false`.
#[must_use]
pub fn run_cell(
    engine: Engine,
    kernel: &Kernel,
    prog: &safedm_asm::Program,
    stagger: Option<StaggerConfig>,
    seed: u64,
    window: Window,
    dm_cfg: SafeDmConfig,
) -> KernelRunSummary {
    let golden = (kernel.reference)();
    let base = KernelRunSummary {
        name: kernel.name.to_owned(),
        stagger_nops: stagger.map_or(0, |s| s.nops),
        delayed_core: stagger.map_or(0, |s| s.delayed_core),
        seed,
        ..KernelRunSummary::default()
    };
    if engine == Engine::Fast {
        let mut twin = FastTwin::new();
        twin.load_program(prog);
        let out = twin.run(RUN_BUDGET);
        return KernelRunSummary {
            cycles: out.cycles,
            instructions: out.instructions[0],
            zero_stag: out.zero_stag,
            no_div: out.no_div,
            ds_match: out.no_div,
            is_match: out.no_div,
            observed: out.observed,
            episodes: out.episodes,
            checksum_ok: !out.timed_out && (0..2).all(|c| twin.hart(c).reg(Reg::A0) == golden),
            ..base
        };
    }

    let soc_cfg = SocConfig { mem_jitter: 2, jitter_seed: seed, ..SocConfig::default() };
    let dm_cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..dm_cfg };
    let mut sys = MonitoredSoc::new(soc_cfg, dm_cfg);
    sys.load_program(prog);
    let mut spent = 0u64;
    if window == Window::BootGated {
        // Hold the monitor off until the first instruction commits.
        sys.write_ctrl(0);
        while sys.soc().core(0).retired() == 0 && sys.soc().core(1).retired() == 0 {
            if sys.soc().all_halted() || spent == RUN_BUDGET {
                return base; // the window never opened: `checksum_ok` is false
            }
            sys.step();
            spent += 1;
        }
        let seed_diff = sys.soc().core(0).retired() as i64 - sys.soc().core(1).retired() as i64;
        sys.monitor_mut().preset_diff(seed_diff);
        sys.write_ctrl(regs::enabled_ctrl(dm_cfg.report_mode));
    }
    let out = sys.run(RUN_BUDGET - spent);
    let counters = sys.monitor().counters();
    KernelRunSummary {
        cycles: out.run.cycles,
        instructions: sys.soc().core(0).retired(),
        zero_stag: out.zero_stag_cycles,
        no_div: out.no_div_cycles,
        ds_match: counters.ds_match_cycles,
        is_match: counters.is_match_cycles,
        observed: out.cycles_observed,
        episodes: sys.monitor().no_diversity_history().total_episodes(),
        checksum_ok: !out.run.timed_out && (0..2).all(|c| sys.soc().core(c).reg(Reg::A0) == golden),
        ..base
    }
}

/// Runs `prog` (at the stagger built into its image) under the default
/// monitor, feeding `guard` every cycle, and returns the system for its
/// counters and final state.
pub fn run_guarded(
    prog: &safedm_asm::Program,
    guard: &mut SoundnessGuard,
    max_cycles: u64,
) -> MonitoredSoc {
    let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
    sys.load_program(prog);
    sys.run_with(max_cycles, |sys, r| {
        let pc = |c: usize| sys.soc().core(c).last_commit_pc();
        let stagger = sys.monitor().instruction_diff().value();
        guard.observe(sys.soc().cycle(), [pc(0), pc(1)], stagger, r.observed, r.no_diversity);
    });
    sys
}

/// Synthetic programs that trip DIV001/DIV002 at stagger 0: the soundness
/// guard's collision half must confirm those regions under the monitor.
#[must_use]
pub fn gate_hazards() -> Vec<(&'static str, safedm_asm::Program)> {
    let mut out = Vec::new();

    // A nop sled far longer than the pipeline, then halt.
    let mut a = Asm::new();
    a.nops(64);
    a.ebreak();
    out.push(("nop_sled", a.link(0x8000_0000).unwrap()));

    // A short spin then a DIV001 idle loop (runs until the cycle budget).
    let mut a = Asm::new();
    a.li(Reg::T0, 200);
    let spin = a.new_label("spin");
    a.bind(spin).unwrap();
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, spin);
    let idle = a.new_label("idle");
    a.bind(idle).unwrap();
    a.nop();
    a.j(idle);
    out.push(("spin_then_idle", a.link(0x8000_0000).unwrap()));

    // A sled mid-program between data-dependent work.
    let mut a = Asm::new();
    a.li(Reg::A0, 0x8010_0000);
    a.lw(Reg::T1, 0, Reg::A0);
    a.nops(32);
    a.addi(Reg::T1, Reg::T1, 1);
    a.sw(Reg::T1, 0, Reg::A0);
    a.ebreak();
    out.push(("sled_between_loads", a.link(0x8000_0000).unwrap()));

    out
}

/// One Table I cell: maxima across the runs of one staggering setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1Cell {
    /// Max cycles with zero staggering across runs.
    pub zero_stag: u64,
    /// Max cycles without diversity across runs.
    pub no_div: u64,
}

/// One Table I row (one benchmark, four staggering setups).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Cells for 0 / 100 / 1,000 / 10,000 nops.
    pub cells: [Table1Cell; 4],
    /// Instructions executed (no-staggering run, core 0).
    pub instructions: u64,
    /// Whether every run passed its self-check.
    pub all_checksums_ok: bool,
}

/// The staggering setups of Table I.
pub const TABLE1_NOPS: [usize; 4] = [0, 100, 1_000, 10_000];

/// Number of runs per Table I staggering setup: 4 jitter seeds for the
/// synchronised start, 2 (each core delayed once) for the staggered ones.
#[must_use]
pub fn table1_runs_per_setup(nops: usize) -> usize {
    if nops == 0 {
        4
    } else {
        2
    }
}

/// One scheduled run of the Table I protocol: a campaign cell.
#[derive(Debug, Clone)]
pub struct Table1CellRun<'k> {
    /// Dense cell index (kernel-major, run-minor).
    pub index: usize,
    /// The kernel.
    pub kernel: &'k Kernel,
    /// Position of the staggering setup in [`TABLE1_NOPS`].
    pub setup_idx: usize,
    /// Staggering of this run (`None` for the synchronised start).
    pub stagger: Option<StaggerConfig>,
    /// Repeat-run number within the setup.
    pub run: usize,
    /// Memory-jitter seed of this run.
    pub seed: u64,
    /// Pre-built program image, shared across the runs of one setup.
    pub program: Arc<safedm_asm::Program>,
}

/// Enumerates the Table I protocol as campaign cells, pre-building each
/// setup's program once (`Arc`-shared across its runs).
///
/// With `root_seed == None` the runs use the paper protocol's literal jitter
/// seeds (0–3 for the synchronised setup, the delayed-core index for the
/// staggered ones) — the seeds every checked-in table was produced with.
/// With `Some(root)`, each cell's seed is
/// [`derive_cell_seed`]`(root, index)`: distinct per cell, independent of
/// scheduling, reproducible from the root alone.
#[must_use]
pub fn table1_cells<'k>(kernels: &[&'k Kernel], root_seed: Option<u64>) -> Vec<Table1CellRun<'k>> {
    let mut cells = Vec::new();
    for k in kernels {
        for (setup_idx, nops) in TABLE1_NOPS.iter().enumerate() {
            let runs = table1_runs_per_setup(*nops);
            let mut shared: Option<Arc<safedm_asm::Program>> = None;
            for run in 0..runs {
                let stagger =
                    (*nops != 0).then_some(StaggerConfig { nops: *nops, delayed_core: run });
                // Synchronised runs share one image; staggered runs differ
                // per delayed core and build their own.
                let program = match (&stagger, &shared) {
                    (None, Some(p)) => Arc::clone(p),
                    _ => {
                        let harness = HarnessConfig { stagger, stack: StackMode::Mirrored };
                        let p = Arc::new(build_kernel_program(k, &harness));
                        if stagger.is_none() {
                            shared = Some(Arc::clone(&p));
                        }
                        p
                    }
                };
                let index = cells.len();
                let seed =
                    root_seed.map_or(run as u64, |root| derive_cell_seed(root, index as u64));
                cells.push(Table1CellRun {
                    index,
                    kernel: k,
                    setup_idx,
                    stagger,
                    run,
                    seed,
                    program,
                });
            }
        }
    }
    cells
}

/// Instructions hart 0 executes on `kernel`'s unstaggered image, counted
/// by the ISS. The pipeline commits the same instruction stream, so this
/// equals core 0's retired count in every synchronised run.
fn iss_instructions(kernel: &Kernel) -> u64 {
    let mut iss = Iss::new(0);
    iss.load_program(&build_kernel_program(kernel, &HarnessConfig::default()));
    iss.run(RUN_BUDGET);
    iss.executed()
}

/// Folds the events of a [`Protocol::Table1`] campaign over `kernels`
/// (the campaign service's, in cell order) into Table I rows: each cell
/// is the maximum across its setup's runs, and a row passes its
/// self-checks when every run of its kernel did.
///
/// # Panics
///
/// Panics if `events` do not come from a Table I campaign over `kernels`.
#[must_use]
pub fn table1_rows(kernels: &[&Kernel], events: &[CellEvent]) -> Vec<Table1Row> {
    let mut rows: Vec<Table1Row> = kernels
        .iter()
        .map(|k| Table1Row {
            name: k.name.to_owned(),
            cells: [Table1Cell::default(); 4],
            instructions: iss_instructions(k),
            all_checksums_ok: true,
        })
        .collect();
    // Cells enumerate kernel-major (see `table1_cells`).
    let cells_per_kernel: usize = TABLE1_NOPS.iter().map(|&n| table1_runs_per_setup(n)).sum();
    for e in events {
        let row = &mut rows[e.index as usize / cells_per_kernel];
        let setup = TABLE1_NOPS
            .iter()
            .position(|n| e.config == format!("nops={n}"))
            .expect("Table I events carry a Table I staggering setup");
        let slot = &mut row.cells[setup];
        slot.zero_stag = slot.zero_stag.max(e.zero_stag);
        slot.no_div = slot.no_div.max(e.no_div);
        row.all_checksums_ok &= e.ok;
    }
    rows
}

/// Reproduces Table I for the given kernels through the campaign service
/// on `jobs` workers. Per the paper's protocol, the no-staggering setup
/// runs four times (different memory-jitter seeds) and each staggered
/// setup runs twice (each core delayed once); cells report the maxima.
/// `root_seed` picks the jitter seeds as in [`table1_cells`]; rows are
/// byte-identical for every `jobs`.
///
/// # Panics
///
/// Panics if a kernel is not in the `safedm-tacle` registry.
#[must_use]
pub fn table1(kernels: &[&Kernel], root_seed: Option<u64>, jobs: usize) -> Vec<Table1Row> {
    let spec = CampaignSpec {
        protocol: Protocol::Table1,
        kernels: kernels.iter().map(|k| k.name.to_owned()).collect(),
        root_seed,
        jobs: Some(jobs as u64),
        ..CampaignSpec::default()
    };
    let out = service::run_spec(&spec, &RunOptions::default())
        .expect("a Table I spec over registered kernels is valid");
    table1_rows(kernels, &out.events)
}

/// A `Duration` as saturating whole microseconds.
#[must_use]
pub fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Runs a generic campaign through the pool with the full telemetry
/// surface: live progress (stderr, throttled, only under `--progress`),
/// per-cell wall-clock captured into events, and the event stream written
/// if `--events-out` was given. Outputs come back in cell order exactly as
/// [`par_map_timed_observed`] guarantees — telemetry observes, never
/// steers.
///
/// `label(item)` names the cell's kernel for the progress breakdown;
/// `event(index, item, out)` builds the cell's event (its `wall_us` is
/// overwritten with the measured duration).
pub fn run_cells_with_telemetry<T, O, F, L, E>(
    jobs: usize,
    telemetry: &Telemetry,
    items: &[T],
    label: L,
    f: F,
    event: E,
) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> O + Sync,
    L: Fn(&T) -> String + Sync,
    E: Fn(u64, &T, &O) -> CellEvent,
{
    let progress = telemetry.progress_for(items.len());
    let (outs, timings) =
        par_map_timed_observed(jobs, items, f, |i, _| progress.cell_done(&label(&items[i])));
    progress.finish();
    if telemetry.events_out.is_some() {
        let events: Vec<CellEvent> = items
            .iter()
            .zip(&outs)
            .zip(&timings)
            .enumerate()
            .map(|(i, ((item, o), t))| {
                let mut e = event(i as u64, item, o);
                e.wall_us = Some(duration_us(*t));
                e
            })
            .collect();
        telemetry.write_events(&events);
    }
    outs
}

/// The pre-engine nested-loop Table I: the differential baseline
/// `tests/parallel_determinism.rs` compares the campaign service against.
/// Must stay byte-for-byte equivalent to [`table1`] for every `jobs` and
/// `root_seed`.
#[must_use]
pub fn table1_serial(
    kernels: &[&Kernel],
    dm_cfg: SafeDmConfig,
    root_seed: Option<u64>,
) -> Vec<Table1Row> {
    let mut index = 0usize;
    kernels
        .iter()
        .map(|k| {
            let mut cells = [Table1Cell::default(); 4];
            let mut instructions = 0;
            let mut ok = true;
            for (ci, nops) in TABLE1_NOPS.iter().enumerate() {
                for run in 0..table1_runs_per_setup(*nops) {
                    let stagger =
                        (*nops != 0).then_some(StaggerConfig { nops: *nops, delayed_core: run });
                    let seed =
                        root_seed.map_or(run as u64, |root| derive_cell_seed(root, index as u64));
                    index += 1;
                    let r = run_monitored(k, stagger, seed, dm_cfg);
                    cells[ci].zero_stag = cells[ci].zero_stag.max(r.zero_stag);
                    cells[ci].no_div = cells[ci].no_div.max(r.no_div);
                    ok &= r.checksum_ok;
                    if *nops == 0 {
                        instructions = r.instructions;
                    }
                }
            }
            Table1Row { name: k.name.to_owned(), cells, instructions, all_checksums_ok: ok }
        })
        .collect()
}

/// Summary block printed below Table I (the paper's Section V-C averages).
#[derive(Debug, Clone)]
pub struct Table1Summary {
    /// Mean instructions per benchmark.
    pub avg_instructions: f64,
    /// Mean of the per-benchmark zero-staggering maxima, per setup.
    pub avg_zero_stag: [f64; 4],
    /// Mean of the per-benchmark no-diversity maxima, per setup.
    pub avg_no_div: [f64; 4],
}

/// Computes the summary block from Table I rows.
#[must_use]
pub fn summarize_table1(rows: &[Table1Row]) -> Table1Summary {
    let n = rows.len().max(1) as f64;
    let mut avg_zero = [0f64; 4];
    let mut avg_nodiv = [0f64; 4];
    for row in rows {
        for i in 0..4 {
            avg_zero[i] += row.cells[i].zero_stag as f64 / n;
            avg_nodiv[i] += row.cells[i].no_div as f64 / n;
        }
    }
    Table1Summary {
        avg_instructions: rows.iter().map(|r| r.instructions as f64).sum::<f64>() / n,
        avg_zero_stag: avg_zero,
        avg_no_div: avg_nodiv,
    }
}

/// Renders Table I in the paper's layout.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<16}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}\n",
        "", "0 nops", "", "100 nops", "", "1000 nops", "", "10000 nops", ""
    ));
    s.push_str(&format!(
        "{:<16}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}\n",
        "Benchmark",
        "Zero stag",
        "No div",
        "Zero stag",
        "No div",
        "Zero stag",
        "No div",
        "Zero stag",
        "No div"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<16}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}{:>10}{:>8}\n",
            r.name,
            r.cells[0].zero_stag,
            r.cells[0].no_div,
            r.cells[1].zero_stag,
            r.cells[1].no_div,
            r.cells[2].zero_stag,
            r.cells[2].no_div,
            r.cells[3].zero_stag,
            r.cells[3].no_div,
        ));
    }
    s
}

/// Builds a [`SafeDmConfig`] for a given IS layout (ablation A2).
#[must_use]
pub fn dm_config_with_layout(layout: IsLayout) -> SafeDmConfig {
    SafeDmConfig { is_layout: layout, ..SafeDmConfig::default() }
}

/// The shared telemetry CLI surface: `--events-out FILE` (per-cell event
/// JSONL), `--events-timing` (keep wall-clock in the stream, forfeiting
/// byte-identity across runs) and `--progress` (live stderr status line).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Where to write the event JSONL, if anywhere.
    pub events_out: Option<String>,
    /// Whether serialised events keep their wall-clock field.
    pub keep_timing: bool,
    /// Whether the live stderr progress line is on.
    pub progress: bool,
}

impl Telemetry {
    /// Parses the telemetry flags out of `args`.
    #[must_use]
    pub fn from_args(args: &[String]) -> Telemetry {
        Telemetry {
            events_out: crate::args::value(args, "--events-out"),
            keep_timing: crate::args::flag(args, "--events-timing"),
            progress: crate::args::flag(args, "--progress"),
        }
    }

    /// The serialisation policy the flags ask for.
    #[must_use]
    pub fn timing(&self) -> Timing {
        if self.keep_timing {
            Timing::Keep
        } else {
            Timing::Strip
        }
    }

    /// A progress reporter for `total` cells, live only under `--progress`.
    #[must_use]
    pub fn progress_for(&self, total: usize) -> Progress {
        Progress::new(self.progress, total)
    }

    /// Writes the event stream if `--events-out` was given, exiting with a
    /// diagnostic on I/O failure (same contract as [`write_metrics_json`]).
    pub fn write_events(&self, events: &[CellEvent]) {
        if let Some(path) = &self.events_out {
            crate::args::write_file_or_exit(
                path,
                &safedm_obs::events::to_jsonl(events, self.timing()),
            );
        }
    }
}

/// Registers a batch of `(name, total)` pairs as mirrored counters — the
/// metrics-registration tail every bench binary used to hand-roll.
pub fn set_metric_totals(
    reg: &mut MetricsRegistry,
    entries: impl IntoIterator<Item = (String, u64)>,
) {
    for (name, value) in entries {
        let id = reg.counter(&name);
        reg.set_total(id, value);
    }
}

/// The CCF-campaign per-kernel metric registry: the six outcome counters
/// per benchmark. Shared between the `ccf_campaign` binary and the
/// parallel-determinism differential test, so the snapshot JSON is pinned
/// to one definition.
#[must_use]
pub fn ccf_metrics(results: &[(&str, &safedm_faults::CampaignStats)]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(true);
    for (name, stats) in results {
        set_metric_totals(
            &mut reg,
            [
                ("masked", stats.masked),
                ("mismatch", stats.detected_mismatch),
                ("anomaly", stats.detected_anomaly),
                ("silent_no_div", stats.silent_with_no_diversity),
                ("silent_div", stats.silent_with_diversity),
                ("silent_site_divergent", stats.silent_site_divergent),
            ]
            .map(|(metric, value)| (format!("ccf.{name}.{metric}"), value)),
        );
    }
    reg
}

/// Writes a metric snapshot's JSON to `path`, exiting with a diagnostic on
/// I/O failure (the shared `--metrics-out` tail).
pub fn write_metrics_json(path: &str, snap: &MetricsSnapshot) {
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

/// The Table I metric registry (`--metrics-out`): per-row zero-stag /
/// no-div / instruction totals. Shared between the `table1` binary and the
/// parallel-determinism differential test, and fed by [`table1_rows`]
/// output only — so its snapshot inherits the service's byte-determinism.
#[must_use]
pub fn table1_metrics(rows: &[Table1Row]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(true);
    for r in rows {
        set_metric_totals(
            &mut reg,
            TABLE1_NOPS.iter().enumerate().flat_map(|(i, nops)| {
                [
                    (format!("table1.{}.nops{nops}.zero_stag", r.name), r.cells[i].zero_stag),
                    (format!("table1.{}.nops{nops}.no_div", r.name), r.cells[i].no_div),
                ]
            }),
        );
        set_metric_totals(&mut reg, [(format!("table1.{}.instructions", r.name), r.instructions)]);
    }
    reg
}

/// Minimal JSON emission for the report structures (replaces the previous
/// serde derive: this workspace builds with no external serialisation crate).
pub mod json {
    use safedm_obs::json::{escape, number};

    use super::{Table1Row, Table1Summary};

    /// One Table I row as a JSON object.
    #[must_use]
    pub fn table1_row(r: &Table1Row) -> String {
        let cells: Vec<String> = r
            .cells
            .iter()
            .map(|c| format!("{{\"zero_stag\":{},\"no_div\":{}}}", c.zero_stag, c.no_div))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"cells\":[{}],\"instructions\":{},\"all_checksums_ok\":{}}}",
            escape(&r.name),
            cells.join(","),
            r.instructions,
            r.all_checksums_ok
        )
    }

    /// The summary block as a JSON object.
    #[must_use]
    pub fn table1_summary(s: &Table1Summary) -> String {
        let zs: Vec<String> = s.avg_zero_stag.iter().map(|v| number(*v)).collect();
        let nd: Vec<String> = s.avg_no_div.iter().map(|v| number(*v)).collect();
        format!(
            "{{\"avg_instructions\":{},\"avg_zero_stag\":[{}],\"avg_no_div\":[{}]}}",
            number(s.avg_instructions),
            zs.join(","),
            nd.join(",")
        )
    }

    /// The full `table1 --json` document.
    #[must_use]
    pub fn table1_document(rows: &[Table1Row], summary: &Table1Summary) -> String {
        let rendered: Vec<String> = rows.iter().map(table1_row).collect();
        format!(
            "{{\n  \"rows\": [{}],\n  \"summary\": {}\n}}\n",
            rendered.join(","),
            table1_summary(summary)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_tacle::kernels;

    #[test]
    fn telemetry_flags_parse_and_pick_timing() {
        let args: Vec<String> = ["prog", "--events-out", "ev.jsonl", "--progress"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let t = Telemetry::from_args(&args);
        assert_eq!(t.events_out.as_deref(), Some("ev.jsonl"));
        assert!(t.progress);
        assert_eq!(t.timing(), Timing::Strip);
        let args: Vec<String> =
            ["prog", "--events-timing"].iter().map(|s| (*s).to_owned()).collect();
        let t = Telemetry::from_args(&args);
        assert!(t.events_out.is_none());
        assert_eq!(t.timing(), Timing::Keep);
    }

    #[test]
    fn table1_events_carry_run_counters() {
        let k = kernels::by_name("fac").expect("kernel");
        let cells = table1_cells(&[k], Some(7));
        let spec = CampaignSpec {
            protocol: Protocol::Table1,
            kernels: vec!["fac".to_owned()],
            root_seed: Some(7),
            jobs: Some(1),
            ..CampaignSpec::default()
        };
        let events = service::run_spec(&spec, &RunOptions::default()).expect("valid spec").events;
        assert_eq!(events.len(), cells.len());
        assert_eq!(events[0].kernel, "fac");
        assert_eq!(events[0].config, "nops=0");
        assert_eq!(events[0].seed, cells[0].seed);
        assert!(events.iter().all(|e| e.ok && e.wall_us.is_some()));
        assert!(events.iter().all(|e| e.guarded >= e.no_div));
        // Cell order is the canonical enumeration.
        assert!(events.windows(2).all(|w| w[0].index + 1 == w[1].index));
    }

    #[test]
    fn a_cell_that_halts_before_its_first_commit_fails() {
        let k = kernels::by_name("fac").expect("kernel");
        let mut a = safedm_asm::Asm::new();
        a.word(0);
        let prog = a.link(0x8000_0000).expect("one word links");
        for engine in [Engine::Cycle, Engine::Fast] {
            for window in [Window::BootGated, Window::FromReset] {
                let r = run_cell(engine, k, &prog, None, 0, window, SafeDmConfig::default());
                assert!(!r.checksum_ok, "{engine} {window:?}");
            }
        }
    }

    #[test]
    fn run_monitored_is_deterministic_and_self_checking() {
        let k = kernels::by_name("fac").expect("kernel");
        let a = run_monitored(k, None, 3, SafeDmConfig::default());
        let b = run_monitored(k, None, 3, SafeDmConfig::default());
        assert!(a.checksum_ok);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.zero_stag, b.zero_stag);
        assert_eq!(a.no_div, b.no_div);
        // a different jitter seed shifts timing
        let c = run_monitored(k, None, 4, SafeDmConfig::default());
        assert!(c.checksum_ok);
        assert_ne!((a.cycles, a.zero_stag), (c.cycles, c.zero_stag));
    }

    #[test]
    fn staggering_suppresses_counts_in_run_monitored() {
        let k = kernels::by_name("bitcount").expect("kernel");
        let sync = run_monitored(k, None, 0, SafeDmConfig::default());
        let st = StaggerConfig { nops: 1_000, delayed_core: 1 };
        let staggered = run_monitored(k, Some(st), 0, SafeDmConfig::default());
        assert!(sync.zero_stag > 10 * staggered.zero_stag.max(1));
        assert!(sync.no_div > staggered.no_div);
        assert_eq!(staggered.stagger_nops, 1_000);
    }

    #[test]
    fn table1_row_shape_on_one_kernel() {
        let k = kernels::by_name("fac").expect("kernel");
        let rows = table1(&[k], None, 1);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.all_checksums_ok);
        assert!(row.cells[0].zero_stag >= row.cells[0].no_div);
        assert!(row.cells[3].no_div <= row.cells[0].no_div);
        let text = render_table1(&rows);
        assert!(text.contains("fac"));
        let summary = summarize_table1(&rows);
        assert!(summary.avg_instructions > 1_000.0);
    }
}
