//! The shared campaign runner behind `safedm-sim campaign`, the
//! `safedm-sim serve` HTTP service and the bench binaries: one entry point
//! that takes a [`CampaignSpec`], enumerates it into content-addressed
//! cells, consults the [`ResultCache`], and executes the misses on the
//! `safedm-campaign` pool.
//!
//! ## The one entry point
//!
//! [`prepare`] turns a spec into a [`Prepared`] campaign — a validated,
//! protocol-dispatched list of [`CellTask`]s, each pairing a
//! [`CellSpec`] identity with a closure that simulates exactly that cell.
//! [`run`] executes a prepared campaign: cache hits replay their stored
//! JSONL line verbatim, misses run on the pool, and every line is
//! published to the caller **in cell-index order** as soon as its prefix
//! is complete (the ordered-prefix publisher the event stream endpoint
//! relies on).
//!
//! ## Byte-identity
//!
//! A cell's published line is its [`CellEvent`] serialised with
//! [`Timing::Strip`] — the same bytes `--events-out` writes locally. Cache
//! hits return the stored line unmodified, and serialisation is stable
//! under round-trip, so a served stream is byte-identical to a local run
//! of the same spec for any worker count, hit pattern, or transport.
//!
//! ## Cache correctness
//!
//! The campaign engine makes every cell's counters a pure function of the
//! cell's identity fields (kernel, config point, run, seed, engine) plus
//! the simulator code. [`CellSpec::digest`] hashes exactly those fields
//! salted with the code version, so equal digests imply equal results —
//! serving a hit without re-simulation is sound, not heuristic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use safedm_campaign::cache::{CacheStats, ResultCache};
use safedm_campaign::spec::{CampaignSpec, CellSpec, Protocol};
use safedm_campaign::{default_jobs, par_map_timed_observed, ConfigGrid, Progress};
use safedm_core::{regs, MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_faults::{Campaign, CampaignConfig};
use safedm_isa::Reg;
use safedm_obs::events::{CellEvent, Timing};
use safedm_soc::fastpath::{Engine, FastTwin};
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, Kernel, StaggerConfig};

use crate::experiments::{duration_us, run_engine_prebuilt, table1_cells, TABLE1_NOPS};

/// Cycle budget for grid-protocol cells (matches the historical
/// `safedm-sim campaign` budget; generous — runs end at `ebreak`).
pub const GRID_RUN_BUDGET: u64 = 500_000_000;

/// Injection-cycle ceiling for CCF-protocol cells (matches the historical
/// `ccf_campaign` default).
pub const CCF_MAX_CYCLE: u64 = 10_000;

type CellFn = Box<dyn Fn() -> CellEvent + Send + Sync>;

/// Ordered line sink: called as `(index, line)` in strictly increasing
/// index order.
pub type LineSink<'a> = &'a (dyn Fn(usize, &str) + Sync);

/// One enumerated campaign cell: its content identity plus the closure
/// that simulates it.
pub struct CellTask {
    /// The cell's identity (digested for the cache key).
    pub spec: CellSpec,
    compute: CellFn,
}

/// A validated, enumerated campaign ready to [`run`].
pub struct Prepared {
    /// The spec the campaign was prepared from.
    pub spec: CampaignSpec,
    /// Parsed engine.
    pub engine: Engine,
    /// Resolved worker count (the spec's hint, or the machine default).
    pub jobs: usize,
    /// The cells, in canonical index order.
    pub cells: Vec<CellTask>,
}

/// What a [`run`] produced.
pub struct RunOutcome {
    /// One event per completed cell, in cell order. Computed cells carry
    /// their measured `wall_us`; cache hits have none (nothing was
    /// measured). When the run was [canceled](RunOutcome::canceled),
    /// skipped cells are absent.
    pub events: Vec<CellEvent>,
    /// One [`Timing::Strip`] JSONL line per completed cell, in cell order
    /// — the byte-exact stream a server replays and `--events-out` writes.
    pub lines: Vec<String>,
    /// Cache counter deltas for this run (all-miss when no cache given).
    /// Skipped cells count as neither misses nor inserts.
    pub cache: CacheStats,
    /// Whether every completed cell passed its self-check.
    pub all_ok: bool,
    /// Whether the run stopped early because [`RunOptions::stop`] was
    /// raised while cells were still pending. Already-running cells finish
    /// and are included; pending cells are skipped.
    pub canceled: bool,
}

/// How to [`run`] a prepared campaign.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Result cache to consult and fill; `None` runs everything.
    pub cache: Option<&'a Mutex<ResultCache>>,
    /// Live progress reporter (stderr only, never part of outputs).
    pub progress: Option<&'a Progress>,
    /// Ordered line sink: called as `(index, line)` for every cell, in
    /// strictly increasing index order, as soon as each line's prefix is
    /// complete. The event-stream endpoint hangs off this.
    pub on_line: Option<LineSink<'a>>,
    /// Cooperative cancellation flag, checked before each pending cell
    /// starts. Once raised, no further cells simulate (cells already
    /// in flight finish normally) and the outcome reports
    /// [`RunOutcome::canceled`]. The `DELETE /v1/campaigns/{id}` endpoint
    /// hangs off this.
    pub stop: Option<&'a AtomicBool>,
}

fn resolve_kernels(spec: &CampaignSpec) -> Result<Vec<&'static Kernel>, String> {
    spec.kernels
        .iter()
        .map(|n| {
            kernels::by_name(n).ok_or_else(|| format!("unknown kernel `{n}` (see --list-kernels)"))
        })
        .collect()
}

/// Validates `spec` and enumerates it into content-addressed cell tasks.
///
/// # Errors
///
/// Returns a message for structural violations, unknown kernels, unknown
/// engines, or a grid spec without a root seed.
pub fn prepare(spec: &CampaignSpec) -> Result<Prepared, String> {
    spec.validate()?;
    let engine = Engine::parse(&spec.engine)?;
    let jobs = spec.jobs.map_or_else(default_jobs, |j| usize::try_from(j.max(1)).unwrap_or(1));
    let ks = resolve_kernels(spec)?;
    let cells = match spec.protocol {
        Protocol::Grid => prepare_grid(spec, &ks, engine)?,
        Protocol::Table1 => prepare_table1(spec, &ks, engine),
        Protocol::Ccf => prepare_ccf(spec, &ks, engine),
    };
    Ok(Prepared { spec: spec.clone(), engine, jobs, cells })
}

/// The grid protocol: kernel × stagger × run, `SafeDmConfig::default()`,
/// non-boot-gated monitored runs (the historical `safedm-sim campaign`
/// cell body, moved here so CLI and server execute identical code).
fn prepare_grid(
    spec: &CampaignSpec,
    ks: &[&'static Kernel],
    engine: Engine,
) -> Result<Vec<CellTask>, String> {
    let root_seed = spec
        .root_seed
        .ok_or_else(|| "grid protocol requires a root_seed (it has no legacy seeds)".to_owned())?;
    let runs = usize::try_from(spec.runs).unwrap_or(usize::MAX).max(1);
    let grid = ConfigGrid {
        kernels: ks.to_vec(),
        staggers: spec.staggers.clone(),
        configs: vec![SafeDmConfig::default()],
        runs,
        root_seed,
    };
    // One pre-decoded program per (kernel, stagger) setup, shared by all of
    // that setup's runs. Setup index = cell.index / runs in the canonical
    // kernel-major, run-minor order (configs axis has length 1).
    let mut programs: Vec<Arc<safedm_asm::Program>> =
        Vec::with_capacity(grid.kernels.len() * grid.staggers.len());
    for k in &grid.kernels {
        for &nops in &grid.staggers {
            let stagger = (nops > 0).then_some(StaggerConfig {
                nops: usize::try_from(nops).unwrap_or(usize::MAX),
                delayed_core: 1,
            });
            programs.push(Arc::new(build_kernel_program(
                k,
                &HarnessConfig { stagger, ..HarnessConfig::default() },
            )));
        }
    }
    Ok(grid
        .cells()
        .into_iter()
        .map(|cell| {
            let prog = Arc::clone(&programs[cell.index / runs]);
            let kernel: &'static Kernel = cell.kernel;
            let cell_spec = CellSpec {
                protocol: Protocol::Grid,
                kernel: kernel.name.to_owned(),
                config: format!("nops={}", cell.stagger),
                run: cell.run as u64,
                seed: cell.seed,
                engine: engine.as_str().to_owned(),
            };
            let (index, seed, run, stagger) =
                (cell.index as u64, cell.seed, cell.run, cell.stagger);
            let dm_cfg = cell.config;
            let compute: CellFn = Box::new(move || {
                let golden = (kernel.reference)();
                let (cycles, zero_stag, no_div, observed, episodes, ok) = if engine == Engine::Fast
                {
                    // Functional twin at block granularity: architecturally
                    // exact results plus instruction-count diversity
                    // proxies, no pipeline model.
                    let mut twin = FastTwin::new();
                    twin.load_program(&prog);
                    let out = twin.run(GRID_RUN_BUDGET);
                    let ok = !out.timed_out && (0..2).all(|c| twin.hart(c).reg(Reg::A0) == golden);
                    (out.cycles, out.zero_stag, out.no_div, out.observed, out.episodes, ok)
                } else {
                    let soc_cfg =
                        SocConfig { mem_jitter: 2, jitter_seed: seed, ..SocConfig::default() };
                    let dm_cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..dm_cfg };
                    let mut sys = MonitoredSoc::new(soc_cfg, dm_cfg);
                    sys.load_program(&prog);
                    sys.write_ctrl(1 | (regs::encode_mode(ReportMode::Polling) << 1));
                    let out = sys.run(GRID_RUN_BUDGET);
                    let ok = !out.run.timed_out
                        && (0..2).all(|c| sys.soc().core(c).reg(Reg::A0) == golden);
                    (
                        out.run.cycles,
                        out.zero_stag_cycles,
                        out.no_div_cycles,
                        out.cycles_observed,
                        sys.monitor().no_diversity_history().total_episodes(),
                        ok,
                    )
                };
                CellEvent {
                    index,
                    kernel: kernel.name.to_owned(),
                    config: format!("nops={stagger}"),
                    engine: engine.as_str().to_owned(),
                    run: run as u64,
                    seed,
                    cycles,
                    guarded: observed,
                    zero_stag,
                    no_div,
                    episodes,
                    violations: u64::from(!ok),
                    ok,
                    wall_us: None,
                }
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect())
}

/// The Table I protocol: the paper's four staggering setups with their
/// boot-gated measurement window ([`run_engine_prebuilt`]); `staggers` and
/// `runs` in the spec are ignored (the protocol pins both).
fn prepare_table1(spec: &CampaignSpec, ks: &[&'static Kernel], engine: Engine) -> Vec<CellTask> {
    table1_cells(ks, spec.root_seed)
        .into_iter()
        .map(|cell| {
            let nops = TABLE1_NOPS[cell.setup_idx];
            let cell_spec = CellSpec {
                protocol: Protocol::Table1,
                kernel: cell.kernel.name.to_owned(),
                config: format!("nops={nops}"),
                run: cell.run as u64,
                seed: cell.seed,
                engine: engine.as_str().to_owned(),
            };
            let compute: CellFn = Box::new(move || {
                let r = run_engine_prebuilt(
                    engine,
                    cell.kernel,
                    &cell.program,
                    cell.stagger,
                    cell.seed,
                    SafeDmConfig::default(),
                );
                CellEvent {
                    index: cell.index as u64,
                    kernel: cell.kernel.name.to_owned(),
                    config: format!("nops={nops}"),
                    engine: engine.as_str().to_owned(),
                    run: cell.run as u64,
                    seed: cell.seed,
                    cycles: r.cycles,
                    guarded: r.observed,
                    zero_stag: r.zero_stag,
                    no_div: r.no_div,
                    episodes: r.episodes,
                    violations: u64::from(!r.checksum_ok),
                    ok: r.checksum_ok,
                    wall_us: None,
                }
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect()
}

/// The CCF protocol: one aggregate cell per kernel, `runs` fault-injection
/// trials each (the historical `ccf_campaign` per-kernel event). Stats are
/// byte-identical for any worker count, so each cell runs its trials
/// inline and cells parallelise across kernels on the pool.
fn prepare_ccf(spec: &CampaignSpec, ks: &[&'static Kernel], engine: Engine) -> Vec<CellTask> {
    let seed = spec.root_seed.unwrap_or(2024);
    let trials = usize::try_from(spec.runs).unwrap_or(usize::MAX);
    ks.iter()
        .enumerate()
        .map(|(i, k)| {
            let kernel: &'static Kernel = k;
            let cell_spec = CellSpec {
                protocol: Protocol::Ccf,
                kernel: kernel.name.to_owned(),
                config: format!("trials={trials}"),
                run: 0,
                seed,
                engine: engine.as_str().to_owned(),
            };
            let compute: CellFn = Box::new(move || {
                let stats = Campaign::new(CampaignConfig {
                    trials,
                    seed,
                    max_cycle: CCF_MAX_CYCLE,
                    ..CampaignConfig::default()
                })
                .run_jobs(kernel, 1);
                CellEvent {
                    index: i as u64,
                    kernel: kernel.name.to_owned(),
                    config: format!("trials={trials}"),
                    engine: engine.as_str().to_owned(),
                    run: 0,
                    seed,
                    cycles: 0,
                    guarded: trials as u64,
                    zero_stag: 0,
                    no_div: stats.silent_with_no_diversity,
                    episodes: 0,
                    violations: stats.detected_mismatch,
                    ok: true,
                    wall_us: None,
                }
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect()
}

/// The ordered-prefix publisher: cells complete in scheduling order, lines
/// publish in index order.
struct Publisher<'a> {
    slots: Vec<Option<String>>,
    next: usize,
    on_line: Option<LineSink<'a>>,
}

impl Publisher<'_> {
    fn fill(&mut self, index: usize, line: String) {
        self.slots[index] = Some(line);
        while self.next < self.slots.len() {
            let Some(line) = self.slots[self.next].as_ref() else { break };
            if let Some(f) = self.on_line {
                f(self.next, line);
            }
            self.next += 1;
        }
    }
}

/// Executes a prepared campaign: cache hits replay their stored lines,
/// misses run on the pool, lines publish in index order.
///
/// # Errors
///
/// Returns a message when a cached line does not parse back into an event
/// (a corrupted on-disk cache entry).
///
/// # Panics
///
/// Panics if a cell's simulation panics (propagated from the pool).
pub fn run(prepared: &Prepared, opts: &RunOptions) -> Result<RunOutcome, String> {
    let n = prepared.cells.len();

    // Phase 1: consult the cache, prefilling hit slots. The cache is
    // shared between concurrent campaigns, so this run's hit counters are
    // the stats delta across the *held lock* — a global before/after
    // snapshot would absorb other campaigns' traffic.
    let mut run_stats = CacheStats::default();
    let mut slots: Vec<Option<String>> = vec![None; n];
    if let Some(cache) = opts.cache {
        let mut cache = lock(cache);
        let before = cache.stats();
        for (i, cell) in prepared.cells.iter().enumerate() {
            slots[i] = cache.get(cell.spec.digest());
        }
        let after = cache.stats();
        run_stats.hits = after.hits - before.hits;
        run_stats.disk_hits = after.disk_hits - before.disk_hits;
    }
    let publisher = Mutex::new(Publisher { slots: vec![None; n], next: 0, on_line: opts.on_line });
    let mut hit_lines: Vec<Option<String>> = vec![None; n];
    for (i, slot) in slots.into_iter().enumerate() {
        if let Some(line) = slot {
            if let Some(p) = opts.progress {
                p.cell_done(&prepared.cells[i].spec.kernel);
            }
            lock(&publisher).fill(i, line.clone());
            hit_lines[i] = Some(line);
        }
    }

    // Phase 2: run the misses on the pool. Each worker checks the stop
    // flag before starting its cell; past that point it serialises its
    // event, stores it, and publishes through the ordered-prefix state.
    // A skipped cell yields `None` — nothing simulated, cached, or
    // published.
    let misses: Vec<usize> = (0..n).filter(|&i| hit_lines[i].is_none()).collect();
    let (computed, timings) = par_map_timed_observed(
        prepared.jobs,
        &misses,
        |_, &i| {
            if opts.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return None;
            }
            let ev = (prepared.cells[i].compute)();
            let line = ev.to_json(Timing::Strip).render();
            if let Some(cache) = opts.cache {
                lock(cache).put(prepared.cells[i].spec.digest(), &line);
            }
            lock(&publisher).fill(i, line.clone());
            Some((ev, line))
        },
        |j, _| {
            if let Some(p) = opts.progress {
                p.cell_done(&prepared.cells[misses[j]].spec.kernel);
            }
        },
    );

    // Phase 3: assemble ordered events and lines from the completed cells
    // (hits plus computed misses). Note the published stream stays a
    // contiguous index prefix — a skipped cell blocks later lines from
    // the sink even if they are present here.
    let mut events: Vec<Option<CellEvent>> = vec![None; n];
    let mut lines: Vec<Option<String>> = hit_lines;
    let mut skipped = 0u64;
    for ((&i, slot), t) in misses.iter().zip(computed).zip(&timings) {
        match slot {
            Some((ev, line)) => {
                events[i] = Some(CellEvent { wall_us: Some(duration_us(*t)), ..ev });
                lines[i] = Some(line);
            }
            None => skipped += 1,
        }
    }
    for (i, line) in lines.iter().enumerate() {
        if events[i].is_none() {
            let Some(line) = line.as_ref() else { continue };
            let parsed = safedm_obs::events::parse_jsonl(line)
                .map_err(|e| format!("corrupt cache entry for cell {i}: {e}"))?;
            let [ev]: [CellEvent; 1] = parsed
                .try_into()
                .map_err(|_| format!("corrupt cache entry for cell {i}: not one event"))?;
            events[i] = Some(ev);
        }
    }
    let (events, lines): (Vec<CellEvent>, Vec<String>) = events
        .into_iter()
        .zip(lines)
        .filter_map(|pair| match pair {
            (Some(ev), Some(line)) => Some((ev, line)),
            _ => None,
        })
        .unzip();

    // Misses and inserts are this run's own computed cells by
    // construction; evictions are a cache-wide property (see
    // `ResultCache::stats`), not attributable to one campaign, so they
    // stay 0 here.
    run_stats.misses = misses.len() as u64 - skipped;
    run_stats.inserts = if opts.cache.is_some() { run_stats.misses } else { 0 };
    let all_ok = events.iter().all(|e| e.ok);
    Ok(RunOutcome { events, lines, cache: run_stats, all_ok, canceled: skipped > 0 })
}

/// [`prepare`] + [`run`] in one call.
///
/// # Errors
///
/// Returns [`prepare`]'s and [`run`]'s errors.
pub fn run_spec(spec: &CampaignSpec, opts: &RunOptions) -> Result<RunOutcome, String> {
    run(&prepare(spec)?, opts)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            kernels: vec!["fac".to_owned()],
            staggers: vec![0],
            runs: 2,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn grid_runs_match_for_any_jobs_and_cache_state() {
        let spec = small_spec();
        let cold = run_spec(&spec, &RunOptions::default()).unwrap();
        assert_eq!(cold.lines.len(), 2);
        assert!(cold.all_ok);
        let jobs2 =
            run_spec(&CampaignSpec { jobs: Some(2), ..spec.clone() }, &RunOptions::default())
                .unwrap();
        assert_eq!(cold.lines, jobs2.lines);

        let cache = Mutex::new(ResultCache::new(64));
        let opts = RunOptions { cache: Some(&cache), ..RunOptions::default() };
        let first = run_spec(&spec, &opts).unwrap();
        assert_eq!(first.cache.misses, 2);
        assert_eq!(first.lines, cold.lines);
        let second = run_spec(&spec, &opts).unwrap();
        assert_eq!(second.cache.hits, 2);
        assert_eq!(second.cache.misses, 0);
        // Replayed bytes identical to computed bytes.
        assert_eq!(second.lines, first.lines);
        // Hits carry no wall-clock; everything else round-trips.
        assert!(second.events.iter().all(|e| e.wall_us.is_none()));
    }

    #[test]
    fn lines_publish_in_index_order() {
        let spec = CampaignSpec { jobs: Some(4), ..small_spec() };
        let seen = Mutex::new(Vec::new());
        let sink = |i: usize, line: &str| {
            lock(&seen).push((i, line.to_owned()));
        };
        let out =
            run_spec(&spec, &RunOptions { on_line: Some(&sink), ..RunOptions::default() }).unwrap();
        let seen = lock(&seen).clone();
        assert_eq!(seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(seen.into_iter().map(|(_, l)| l).collect::<Vec<_>>(), out.lines);
    }

    #[test]
    fn a_raised_stop_flag_skips_every_pending_cell() {
        let stop = AtomicBool::new(true);
        let out =
            run_spec(&small_spec(), &RunOptions { stop: Some(&stop), ..RunOptions::default() })
                .unwrap();
        assert!(out.canceled);
        assert!(out.events.is_empty() && out.lines.is_empty());
        assert_eq!(out.cache.misses, 0);
        assert_eq!(out.cache.inserts, 0);

        // Cache hits still replay under a raised flag: they cost no
        // simulation, so cancellation only skips the pending work.
        let cache = Mutex::new(ResultCache::new(64));
        let opts = RunOptions { cache: Some(&cache), ..RunOptions::default() };
        let warm = run_spec(&small_spec(), &opts).unwrap();
        assert!(!warm.canceled);
        let replay = run_spec(
            &small_spec(),
            &RunOptions { cache: Some(&cache), stop: Some(&stop), ..RunOptions::default() },
        )
        .unwrap();
        assert!(!replay.canceled, "no pending cell was skipped");
        assert_eq!(replay.lines, warm.lines);
    }

    #[test]
    fn unknown_kernel_and_engine_are_prepare_errors() {
        let bad = CampaignSpec { kernels: vec!["nope".to_owned()], ..small_spec() };
        assert!(prepare(&bad).err().unwrap().contains("unknown kernel"));
        let bad = CampaignSpec { engine: "warp9".to_owned(), ..small_spec() };
        assert!(prepare(&bad).is_err());
        let bad = CampaignSpec { root_seed: None, ..small_spec() };
        assert!(prepare(&bad).err().unwrap().contains("root_seed"));
    }
}
