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
//! [`run`] executes a prepared campaign in two steps, which the HTTP
//! service also calls apart:
//!
//! * `replay` looks every cell up in the cache under one lock and
//!   publishes the hits' stored JSONL lines verbatim. It simulates nothing
//!   and assembles no program, so the server runs it on the thread that
//!   received the campaign.
//! * `compute` runs the cells the replay left pending on the pool, then
//!   assembles the outcome.
//!
//! Every line is published to the caller **in cell-index order** as soon
//! as its prefix is complete (the ordered-prefix publisher the event
//! stream endpoint relies on). A grid setup's program is assembled by the
//! first of its cells that simulates, so a campaign replayed from the
//! cache assembles none.
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
use std::sync::{Arc, Mutex, OnceLock};

use safedm_campaign::cache::{CacheStats, ResultCache};
use safedm_campaign::spec::{CampaignSpec, CellSpec, Protocol};
use safedm_campaign::{default_jobs, par_map_timed_observed, ConfigGrid, Progress};
use safedm_core::SafeDmConfig;
use safedm_faults::{Campaign, CampaignConfig, CampaignStats};
use safedm_obs::events::{CellEvent, Timing};
use safedm_soc::fastpath::Engine;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig, Kernel, StaggerConfig};

use crate::experiments::{duration_us, run_cell, table1_cells, Table1CellRun, Window, TABLE1_NOPS};

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
    pub(crate) compute: CellFn,
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

/// One (kernel, stagger) setup of a grid, shared by its runs. Its program
/// is assembled by the first of those runs that simulates, so a campaign
/// replayed from the cache assembles none.
struct GridSetup {
    kernel: &'static Kernel,
    stagger: Option<StaggerConfig>,
    program: OnceLock<safedm_asm::Program>,
}

impl GridSetup {
    fn program(&self) -> &safedm_asm::Program {
        self.program.get_or_init(|| {
            let harness = HarnessConfig { stagger: self.stagger, ..HarnessConfig::default() };
            build_kernel_program(self.kernel, &harness)
        })
    }
}

/// The grid protocol: kernel × stagger × run, `SafeDmConfig::default()`,
/// monitored from reset ([`Window::FromReset`]), the delayed core being
/// core 1.
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
    // One setup per (kernel, stagger), shared by all of that setup's runs.
    // Setup index = cell.index / runs in the canonical kernel-major,
    // run-minor order (configs axis has length 1).
    let setups: Vec<Arc<GridSetup>> = grid
        .kernels
        .iter()
        .flat_map(|&kernel| {
            grid.staggers.iter().map(move |&nops| {
                let stagger = (nops > 0).then_some(StaggerConfig {
                    nops: usize::try_from(nops).unwrap_or(usize::MAX),
                    delayed_core: 1,
                });
                Arc::new(GridSetup { kernel, stagger, program: OnceLock::new() })
            })
        })
        .collect();
    Ok(grid
        .cells()
        .into_iter()
        .map(|cell| {
            let setup = Arc::clone(&setups[cell.index / runs]);
            let config = format!("nops={}", cell.stagger);
            let cell_spec = CellSpec {
                protocol: Protocol::Grid,
                kernel: cell.kernel.name.to_owned(),
                config: config.clone(),
                run: cell.run as u64,
                seed: cell.seed,
                engine: engine.as_str().to_owned(),
            };
            let (index, seed, run, dm_cfg) = (cell.index as u64, cell.seed, cell.run, cell.config);
            let compute: CellFn = Box::new(move || {
                let (kernel, stagger) = (setup.kernel, setup.stagger);
                run_cell(engine, kernel, setup.program(), stagger, seed, Window::FromReset, dm_cfg)
                    .event(index, &config, engine, run as u64)
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect())
}

/// The Table I protocol: the paper's four staggering setups over the
/// [`Window::BootGated`] measurement window; `staggers` and `runs` in the
/// spec are ignored (the protocol pins both).
fn prepare_table1(spec: &CampaignSpec, ks: &[&'static Kernel], engine: Engine) -> Vec<CellTask> {
    table1_cells(ks, spec.root_seed)
        .into_iter()
        .map(|cell| {
            let (index, run) = (cell.index as u64, cell.run as u64);
            let config = format!("nops={}", TABLE1_NOPS[cell.setup_idx]);
            let cell_spec = CellSpec {
                protocol: Protocol::Table1,
                kernel: cell.kernel.name.to_owned(),
                config: config.clone(),
                run,
                seed: cell.seed,
                engine: engine.as_str().to_owned(),
            };
            let Table1CellRun { kernel, stagger, seed, program, .. } = cell;
            let dm_cfg = SafeDmConfig::default();
            let compute: CellFn = Box::new(move || {
                run_cell(engine, kernel, &program, stagger, seed, Window::BootGated, dm_cfg)
                    .event(index, &config, engine, run)
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect()
}

/// One CCF-protocol cell's event: `trials` fault injections into `kernel`
/// folded into `guarded` (the trial count), `violations` (detected
/// mismatches) and `no_div` (silent corruptions under flagged cycles).
/// Shared by the service and the `ccf_campaign` binary.
#[must_use]
pub fn ccf_event(
    index: u64,
    kernel: &str,
    trials: usize,
    seed: u64,
    engine: Engine,
    stats: &CampaignStats,
) -> CellEvent {
    CellEvent {
        index,
        kernel: kernel.to_owned(),
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
                ccf_event(i as u64, kernel.name, trials, seed, engine, &stats)
            });
            CellTask { spec: cell_spec, compute }
        })
        .collect()
}

/// The ordered-prefix publisher: cells complete in scheduling order, lines
/// publish in index order.
struct Publisher {
    /// One slot per cell: its line once replayed or computed.
    slots: Vec<Option<String>>,
    /// The index of the next line to publish.
    next: usize,
}

impl Publisher {
    /// Publishes every line whose prefix is now complete.
    fn publish(&mut self, on_line: Option<LineSink>) {
        while let Some(Some(line)) = self.slots.get(self.next) {
            if let Some(f) = on_line {
                f(self.next, line);
            }
            self.next += 1;
        }
    }
}

/// What [`replay`] leaves for [`compute`]: the replayed lines, this run's
/// hit counts and the cells the cache did not hold.
pub(crate) struct Replay {
    publisher: Publisher,
    cache: CacheStats,
    pending: Vec<usize>,
}

impl Replay {
    /// The cells [`compute`] has to simulate, in index order. Empty when the
    /// cache held every cell.
    #[must_use]
    pub(crate) fn pending(&self) -> &[usize] {
        &self.pending
    }
}

/// The first step of [`run`]: one cache lookup per cell, all under one
/// lock, then the hits' stored lines published in index order. Simulates
/// nothing and assembles no program.
pub(crate) fn replay(prepared: &Prepared, opts: &RunOptions) -> Replay {
    let mut publisher = Publisher { slots: vec![None; prepared.cells.len()], next: 0 };
    // The cache is shared between concurrent campaigns, so this run's hit
    // counters are the stats delta across the *held lock* — a global
    // before/after snapshot would absorb other campaigns' traffic.
    let mut stats = CacheStats::default();
    if let Some(cache) = opts.cache {
        let mut cache = lock(cache);
        let before = cache.stats();
        for (slot, cell) in publisher.slots.iter_mut().zip(&prepared.cells) {
            *slot = cache.get(cell.spec.digest());
        }
        let after = cache.stats();
        stats.hits = after.hits - before.hits;
        stats.disk_hits = after.disk_hits - before.disk_hits;
    }
    let mut pending = Vec::new();
    for (i, slot) in publisher.slots.iter().enumerate() {
        match (slot, opts.progress) {
            (None, _) => pending.push(i),
            (Some(_), Some(p)) => p.cell_done(&prepared.cells[i].spec.kernel),
            (Some(_), None) => {}
        }
    }
    publisher.publish(opts.on_line);
    Replay { publisher, cache: stats, pending }
}

/// The second step of [`run`]: simulates the cells `replay` left pending
/// on the pool, publishing each line as its prefix completes, then
/// assembles the outcome from the replayed and computed cells.
///
/// # Errors
///
/// Returns a message when a cached line does not parse back into an event
/// (a corrupted on-disk cache entry).
///
/// # Panics
///
/// Panics if a cell's simulation panics (propagated from the pool).
pub(crate) fn compute(
    prepared: &Prepared,
    replay: Replay,
    opts: &RunOptions,
) -> Result<RunOutcome, String> {
    let Replay { publisher, cache: mut run_stats, pending } = replay;

    // Each worker checks the stop flag before starting its cell; past that
    // point it serialises its event, stores it, and publishes through the
    // ordered-prefix state. A skipped cell yields `None` — nothing
    // simulated, cached, or published.
    let publisher = Mutex::new(publisher);
    let (computed, timings) = par_map_timed_observed(
        prepared.jobs,
        &pending,
        |_, &i| {
            if opts.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return None;
            }
            let ev = (prepared.cells[i].compute)();
            let line = ev.to_json(Timing::Strip).render();
            if let Some(cache) = opts.cache {
                lock(cache).put(prepared.cells[i].spec.digest(), &line);
            }
            let mut publisher = lock(&publisher);
            publisher.slots[i] = Some(line);
            publisher.publish(opts.on_line);
            Some(ev)
        },
        |j, _| {
            if let Some(p) = opts.progress {
                p.cell_done(&prepared.cells[pending[j]].spec.kernel);
            }
        },
    );

    // Assemble ordered events and lines from the completed cells (hits
    // plus computed misses). Note the published stream stays a contiguous
    // index prefix — a skipped cell blocks later lines from the sink even
    // if they are present here.
    let lines = publisher.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner).slots;
    let mut events: Vec<Option<CellEvent>> = vec![None; lines.len()];
    let mut skipped = 0u64;
    for ((&i, ev), t) in pending.iter().zip(computed).zip(&timings) {
        match ev {
            Some(mut ev) => {
                ev.wall_us = Some(duration_us(*t));
                events[i] = Some(ev);
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
    run_stats.misses = pending.len() as u64 - skipped;
    run_stats.inserts = if opts.cache.is_some() { run_stats.misses } else { 0 };
    let all_ok = events.iter().all(|e| e.ok);
    Ok(RunOutcome { events, lines, cache: run_stats, all_ok, canceled: skipped > 0 })
}

/// Executes a prepared campaign: cache hits replay their stored lines
/// (`replay`), misses run on the pool (`compute`), lines publish in index
/// order.
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
    compute(prepared, replay(prepared, opts), opts)
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
    fn a_replay_publishes_the_hits_and_leaves_the_rest_pending() {
        let cache = Mutex::new(ResultCache::new(64));
        let cached = RunOptions { cache: Some(&cache), ..RunOptions::default() };
        let first = run_spec(&CampaignSpec { runs: 1, ..small_spec() }, &cached).unwrap();

        let seen = Mutex::new(Vec::new());
        let sink = |i: usize, line: &str| lock(&seen).push((i, line.to_owned()));
        let opts =
            RunOptions { cache: Some(&cache), on_line: Some(&sink), ..RunOptions::default() };
        let prepared = prepare(&small_spec()).unwrap();
        let replayed = replay(&prepared, &opts);
        assert_eq!(replayed.pending(), [1]);
        assert_eq!(*lock(&seen), [(0, first.lines[0].clone())], "the hit publishes at once");
        let out = compute(&prepared, replayed, &opts).unwrap();
        assert_eq!((out.cache.hits, out.cache.misses), (1, 1));
        assert_eq!(lock(&seen).iter().map(|(_, l)| l.clone()).collect::<Vec<_>>(), out.lines);
    }

    #[test]
    fn cell_counts_match_the_prepared_cells() {
        for protocol in [Protocol::Grid, Protocol::Table1, Protocol::Ccf] {
            let spec = CampaignSpec {
                protocol,
                kernels: vec!["fac".to_owned(), "bitcount".to_owned()],
                staggers: vec![0, 100, 1000],
                runs: 3,
                ..small_spec()
            };
            let cells = prepare(&spec).unwrap().cells.len() as u64;
            assert_eq!(cells, spec.cell_count(), "protocol {protocol}");
        }
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
