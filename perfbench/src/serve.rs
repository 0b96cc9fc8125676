//! `serve`: an in-process campaign server (one worker, a disk tier in a
//! temporary directory, an in-memory LRU smaller than the set of distinct
//! records) under two closed-loop SDK clients.
//!
//! The clients replay one seeded request sequence. About 19 requests in 20
//! resubmit a grid from a fixed pool, which hits in memory or on disk;
//! about 1 in 20 submits a small grid never seen before, which misses,
//! simulates and writes through. The campaign cache, the service and the
//! HTTP/SDK layers do most of the work; simulation does little.
//!
//! The process runs on one CPU. Spread over two vCPUs, every request hands
//! work between threads on different CPUs, and on a shared virtual machine
//! each such hand-off waits on the host's scheduling: the run-to-run
//! spread of throughput and latency was about 20% that way, and about 5%
//! on one CPU.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use safedm_bench::http::{ServeConfig, Server};
use safedm_bench::service::{self, RunOptions};
use safedm_campaign::cache::ResultCache;
use safedm_campaign::derive_cell_seed;
use safedm_campaign::spec::{content_digest, CampaignSpec, Protocol};
use safedm_sdk::{CampaignResult, Client, SdkError};

use crate::metrics::{fastest, median, peak_rss_mb, quantile, ratio, set_slice_metrics, Report};
use crate::{timed, Args};

/// Kernels of the generated grids: the cheapest to simulate, so that a
/// miss costs tens of milliseconds.
const KERNELS: &[&str] = &["sha", "ludcmp", "md5", "cosf", "countnegative", "st"];

/// Grids in the resubmitted pool (two cells each).
const POOL: usize = 24;

/// In-memory LRU capacity in records: smaller than the pool's 48.
const CACHE_CAP: usize = 32;

/// Closed-loop clients.
const CLIENTS: usize = 2;

/// One request in this many submits a grid never seen before.
const FRESH_EVERY: u64 = 20;

/// Servers the measured run sets up one after another, each serving an
/// equal share of the window, so that set-up is timed in as many host
/// states. A server whose share is over sits idle in `accept`.
const SERVERS: u32 = 4;

/// Requests after which the measured run reads the peak resident set. The
/// server keeps every campaign it ran, so its memory grows with the
/// requests served; reading it after a fixed number keeps a faster server
/// from showing as a larger one.
const RSS_AFTER: u64 = 2000;

/// Length of each untraced and traced phase of the traced run.
const PHASE: Duration = Duration::from_secs(1);

const POOL_SALT: u64 = 0x706f_6f6c;
const REQUEST_SALT: u64 = 0x7265_7175;
const FRESH_SALT: u64 = 0x6672_6573;

/// A two-cell grid: one kernel, unstaggered and staggered.
fn grid(root_seed: u64, pick: u64) -> CampaignSpec {
    let kernel = KERNELS[(pick % KERNELS.len() as u64) as usize];
    let stagger = if (pick / KERNELS.len() as u64).is_multiple_of(2) { 100 } else { 1000 };
    CampaignSpec {
        protocol: Protocol::Grid,
        kernels: vec![kernel.to_owned()],
        staggers: vec![0, stagger],
        runs: 1,
        root_seed: Some(root_seed),
        engine: "cycle".to_owned(),
        jobs: Some(1),
        keep_timing: false,
    }
}

/// The pool of resubmitted grids. Every (kernel, stagger) pair is pooled
/// twice, so filling the pool costs the same on every seed; the seed picks
/// the root seeds. Pool root seeds have the top bit clear, fresh ones have
/// it set, so no fresh grid is ever a pooled one.
pub fn pool_specs(seed: u64) -> Vec<CampaignSpec> {
    (0..POOL as u64).map(|i| grid(derive_cell_seed(seed ^ POOL_SALT, i) >> 1, i)).collect()
}

/// One request of the sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Resubmit pool grid `i`.
    Pool(usize),
    /// Submit a grid never seen before.
    Fresh(CampaignSpec),
}

/// Request `j` of the sequence. Every [`FRESH_EVERY`]th request is fresh,
/// so each slice of the run sees the same mix; the seed picks which pooled
/// grid each other request resubmits and what each fresh one is.
pub fn request(seed: u64, j: u64) -> Request {
    let h = derive_cell_seed(seed ^ REQUEST_SALT, j);
    if j % FRESH_EVERY == FRESH_EVERY - 1 {
        let root = derive_cell_seed(seed ^ FRESH_SALT, j) | (1 << 63);
        Request::Fresh(grid(root, h >> 8))
    } else {
        Request::Pool(((h >> 8) % POOL as u64) as usize)
    }
}

/// What a request's stream is checked against.
enum Expect {
    /// Pool grid `i`, filled at set-up: its reference stream, 2 misses.
    Filled(usize),
    /// Pool grid `i`, resubmitted: its reference stream, 2 hits.
    Pooled(usize),
    /// A fresh grid: a local `run_spec` of the same spec, 2 misses.
    Fresh(CampaignSpec),
}

/// What a finished campaign returned: the digest of its stream, its cache
/// counts, and the stream itself for a fresh grid only (the cache replay
/// puts it), so that a run keeps little beside the server's own memory.
struct Stream {
    digest: u64,
    hits: u64,
    misses: u64,
    lines: Vec<String>,
}

/// One completed (or failed) request.
struct Outcome {
    j: u64,
    /// Completion time since the phase opened.
    end_s: f64,
    expect: Expect,
    total_ms: f64,
    /// Submit, stream and result times (traced phases only).
    split_ms: Option<[f64; 3]>,
    result: Result<Stream, String>,
}

fn stream_digest(lines: &[String]) -> u64 {
    content_digest(&lines.join("\n"))
}

/// The server's address and its pool.
struct Setup {
    addr: String,
    pool: Vec<CampaignSpec>,
}

/// Streams of an in-process `service::run_spec` of each spec, computed on
/// [`CLIENTS`] threads; nothing is being measured while they run.
fn local_lines(specs: &[&CampaignSpec]) -> Vec<Vec<String>> {
    let next = AtomicU64::new(0);
    let out: Mutex<Vec<Option<Vec<String>>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|sc| {
        for _ in 0..CLIENTS {
            sc.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(spec) = specs.get(k) else { break };
                let lines = service::run_spec(spec, &RunOptions::default())
                    .expect("generated specs are valid")
                    .lines;
                out.lock().expect("no reference run panics")[k] = Some(lines);
            });
        }
    });
    out.into_inner().expect("no reference run panics").into_iter().flatten().collect()
}

/// Binds a server with its disk tier in `dir` and fills its cache with the
/// pool. Returns the fill requests, which are checked with the others.
fn setup(seed: u64, dir: &Path) -> (Setup, Vec<Outcome>) {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        cache_cap: CACHE_CAP,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
    })
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr().expect("bound address");
    // `Server::run` serves until the process exits; it has no shutdown.
    std::thread::spawn(move || server.run());

    let pool = pool_specs(seed);
    let client = Client::new(addr.clone()).with_deadline(Duration::from_secs(60));
    let opened = Instant::now();
    let fills = pool
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let t = Instant::now();
            let result = finished(client.run(spec).map(|r| (r.lines, r.result)), false);
            Outcome {
                j: i as u64,
                end_s: opened.elapsed().as_secs_f64(),
                expect: Expect::Filled(i),
                total_ms: t.elapsed().as_secs_f64() * 1e3,
                split_ms: None,
                result,
            }
        })
        .collect();
    (Setup { addr, pool }, fills)
}

/// A request's [`Stream`], keeping its lines if `keep`, or why it did not
/// finish.
fn finished(
    r: Result<(Vec<String>, CampaignResult), SdkError>,
    keep: bool,
) -> Result<Stream, String> {
    let (lines, res) = r.map_err(|e| e.to_string())?;
    if res.status != "done" || !res.ok {
        return Err(format!("campaign ended {} (ok={})", res.status, res.ok));
    }
    Ok(Stream {
        digest: stream_digest(&lines),
        hits: res.cache_hits,
        misses: res.cache_misses,
        lines: if keep { lines } else { Vec::new() },
    })
}

/// The request sequence the clients share: the next request index, and
/// the peak resident set in MiB (as `f64` bits, 0 until read) when request
/// [`RSS_AFTER`] completed.
#[derive(Default)]
struct Sequence {
    next: AtomicU64,
    rss_bits: AtomicU64,
}

/// One closed-loop client: takes the next request index until `until`.
fn client_loop(
    s: &Setup,
    seed: u64,
    seq: &Sequence,
    opened: Instant,
    until: Instant,
    split: bool,
) -> Vec<Outcome> {
    let client = Client::new(s.addr.clone()).with_deadline(Duration::from_secs(30));
    let mut out = Vec::new();
    while Instant::now() < until {
        let j = seq.next.fetch_add(1, Ordering::Relaxed);
        let expect = match request(seed, j) {
            Request::Pool(i) => Expect::Pooled(i),
            Request::Fresh(spec) => Expect::Fresh(spec),
        };
        let spec = match &expect {
            Expect::Fresh(spec) => spec,
            Expect::Filled(i) | Expect::Pooled(i) => &s.pool[*i],
        };
        let t0 = Instant::now();
        let (result, split_ms) = if split {
            let mut ms = [0.0; 3];
            let mut lap = Instant::now();
            let mut mark = |k: usize| {
                ms[k] = lap.elapsed().as_secs_f64() * 1e3;
                lap = Instant::now();
            };
            let r = client.submit(spec).and_then(|sub| {
                mark(0);
                let lines = client.stream_events(&sub.id)?;
                mark(1);
                let res = client.result(&sub.id)?;
                mark(2);
                Ok((lines, res))
            });
            (r, Some(ms))
        } else {
            (client.run(spec).map(|r| (r.lines, r.result)), None)
        };
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = finished(result, matches!(expect, Expect::Fresh(_)));
        let end_s = opened.elapsed().as_secs_f64();
        out.push(Outcome { j, end_s, expect, total_ms, split_ms, result });
        if j + 1 == RSS_AFTER {
            seq.rss_bits.store(peak_rss_mb().to_bits(), Ordering::Relaxed);
        }
    }
    out
}

/// Runs the clients for one phase.
fn phase(s: &Setup, seed: u64, seq: &Sequence, len: Duration, split: bool) -> Vec<Outcome> {
    let opened = Instant::now();
    let until = opened + len;
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| sc.spawn(|| client_loop(s, seed, seq, opened, until, split)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    })
}

/// Checks every outcome, one operation each, against the pool's
/// reference streams `refs` or a local `run_spec` of its fresh spec, and
/// its hit and miss counts against [`Expect`].
fn verify(report: &mut Report, refs: &[Vec<String>], outcomes: &[Outcome]) {
    let ref_digests: Vec<u64> = refs.iter().map(|r| stream_digest(r)).collect();
    let fresh: Vec<(u64, &CampaignSpec)> = outcomes
        .iter()
        .filter_map(|o| match &o.expect {
            Expect::Fresh(spec) if o.result.is_ok() => Some((o.j, spec)),
            _ => None,
        })
        .collect();
    let lines = local_lines(&fresh.iter().map(|(_, spec)| *spec).collect::<Vec<_>>());
    let expected: HashMap<u64, u64> =
        fresh.iter().zip(&lines).map(|((j, _), l)| (*j, stream_digest(l))).collect();
    for o in outcomes {
        let ok = o.result.as_ref().map_err(Clone::clone).and_then(|got| {
            let (want, counts) = match &o.expect {
                Expect::Filled(i) => (ref_digests[*i], (0, 2)),
                Expect::Pooled(i) => (ref_digests[*i], (2, 0)),
                Expect::Fresh(_) => (expected[&o.j], (0, 2)),
            };
            if got.digest == want && (got.hits, got.misses) == counts {
                Ok(())
            } else {
                Err(format!(
                    "hits {}, misses {} (want {counts:?}), stream equal: {}",
                    got.hits,
                    got.misses,
                    got.digest == want
                ))
            }
        });
        report.record(ok.is_ok(), || format!("request {}: {}", o.j, ok.clone().unwrap_err()));
    }
}

/// Cell digests of a spec, in cell order.
fn digests(spec: &CampaignSpec) -> Vec<u64> {
    service::prepare(spec).expect("valid spec").cells.iter().map(|c| c.spec.digest()).collect()
}

/// Replays the run's digest sequence against a `ResultCache` with the
/// server's capacity and a disk tier, filled with the pool first as the
/// server was, timing each lookup by the tier that served it.
fn replay_cache(
    report: &mut Report,
    s: &Setup,
    refs: &[Vec<String>],
    outcomes: &[Outcome],
    dir: &Path,
) {
    let mut cache = ResultCache::new(CACHE_CAP).with_dir(dir);
    let pool_digests: Vec<Vec<u64>> = s.pool.iter().map(digests).collect();
    for (ds, lines) in pool_digests.iter().zip(refs) {
        for (d, line) in ds.iter().zip(lines) {
            cache.put(*d, line);
        }
    }
    let (mut mem, mut disk, mut put) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lookups, mut hits, mut disk_hits) = (0u64, 0u64, 0u64);
    let mut order: Vec<&Outcome> = outcomes.iter().filter(|o| o.result.is_ok()).collect();
    order.sort_by_key(|o| o.j);
    for o in order {
        let Ok(got) = &o.result else { continue };
        let (ds, lines) = match &o.expect {
            Expect::Filled(i) | Expect::Pooled(i) => (pool_digests[*i].clone(), &refs[*i]),
            Expect::Fresh(spec) => (digests(spec), &got.lines),
        };
        for (d, line) in ds.iter().zip(lines) {
            let before = cache.stats();
            let t = Instant::now();
            let got = cache.get(*d);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let after = cache.stats();
            lookups += 1;
            if got.is_none() {
                let t = Instant::now();
                cache.put(*d, line);
                put.push(t.elapsed().as_secs_f64() * 1e6);
            } else if after.hits > before.hits {
                hits += 1;
                mem.push(us);
            } else {
                disk_hits += 1;
                disk.push(us);
            }
        }
    }
    report.set("cache.get_mem_us.p50", median(&mem));
    report.set("cache.get_disk_us.p50", median(&disk));
    report.set("cache.put_us.p50", median(&put));
    report.set("cache.hit_ratio", ratio(hits as f64, lookups as f64));
    report.set("cache.disk_hit_ratio", ratio(disk_hits as f64, lookups as f64));
}

/// `service::run_spec` of pooled grids on a warm in-process cache: the
/// service path of a hit without HTTP or the SDK.
fn run_hit_ms(report: &mut Report, s: &Setup, refs: &[Vec<String>]) -> f64 {
    let cache = Mutex::new(ResultCache::new(4 * POOL));
    {
        let mut c = cache.lock().expect("fresh mutex");
        for (spec, lines) in s.pool.iter().zip(refs) {
            for (d, line) in digests(spec).into_iter().zip(lines) {
                c.put(d, line);
            }
        }
    }
    let opts = RunOptions { cache: Some(&cache), ..RunOptions::default() };
    let mut ms = Vec::new();
    for k in 0..8 * POOL {
        let i = k % POOL;
        let t = Instant::now();
        let out = service::run_spec(&s.pool[i], &opts).expect("valid spec");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.record(out.lines == refs[i] && out.cache.hits == 2, || {
            format!("in-process hit of pool grid {i} differs")
        });
    }
    median(&ms)
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Leaves it as it is, with a
/// warning, when the affinity cannot be read or set.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A 1024-CPU `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0;
    let word = mask.iter().position(|w| *w != 0).filter(|_| got);
    let set = word.is_some_and(|w| {
        let mut one = [0u64; 16];
        one[w] = 1 << mask[w].trailing_zeros();
        // SAFETY: the kernel reads at most `size` bytes from `one`.
        let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
        rc == 0
    });
    if !set {
        eprintln!("serve: cannot restrict the process to one CPU; running unrestricted");
    }
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("serve-{}", std::process::id()))
}

pub fn run(args: &Args) -> Report {
    pin_to_one_cpu();
    let mut report = Report::default();
    let root = scratch_dir();
    let seq = Sequence::default();

    if args.trace {
        let (s, fills) = setup(args.seed, &root.join("server"));
        // Untraced and traced phases alternate; each pair gives one
        // overhead and one coverage figure, reported as medians.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut overhead, mut coverage) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while plain.is_empty() || t0.elapsed() < args.window() {
            let opened = Instant::now();
            let p = phase(&s, args.seed, &seq, PHASE, false);
            let plain_s = opened.elapsed().as_secs_f64();
            let t = phase(&s, args.seed, &seq, PHASE, true);
            let p50 = |os: &[Outcome]| median(&os.iter().map(|o| o.total_ms).collect::<Vec<_>>());
            overhead.push(p50(&t) / p50(&p) - 1.0);
            // Client-side layer time per traced request, extrapolated over
            // the untraced phase's requests, against the clients' busy time.
            let layer_ms: f64 = t.iter().filter_map(|o| o.split_ms).flatten().sum();
            let per_request = layer_ms / t.len().max(1) as f64;
            coverage.push(per_request * p.len() as f64 / (plain_s * 1e3 * CLIENTS as f64));
            plain.extend(p);
            traced.extend(t);
        }
        let refs = local_lines(&s.pool.iter().collect::<Vec<_>>());
        verify(&mut report, &refs, &fills);
        verify(&mut report, &refs, &plain);
        verify(&mut report, &refs, &traced);
        let split = |k: usize| -> Vec<f64> {
            traced.iter().filter_map(|o| o.split_ms.map(|m| m[k])).collect()
        };
        report.set("sdk.submit_ms.p50", median(&split(0)));
        report.set("sdk.stream_ms.p50", median(&split(1)));
        report.set("sdk.stream_ms.p99", quantile(&split(1), 0.99));
        report.set("sdk.result_ms.p50", median(&split(2)));
        report.set("trace.overhead_frac", median(&overhead));
        report.set("trace.coverage_frac", median(&coverage));
        let all: Vec<Outcome> = plain.into_iter().chain(traced).collect();
        replay_cache(&mut report, &s, &refs, &all, &root.join("replay"));
        let hit = run_hit_ms(&mut report, &s, &refs);
        report.set("service.run_hit_ms.p50", hit);
    } else {
        // Each server's share of the window is timed from its own start;
        // the samples are laid end to end into one window.
        let share = args.window() / SERVERS;
        let (mut setups, mut samples) = (Vec::new(), Vec::new());
        let (mut fills, mut outcomes) = (Vec::new(), Vec::new());
        for k in 0..SERVERS {
            let ((s, f), setup_s) = timed(|| setup(args.seed, &root.join(format!("server{k}"))));
            let os = phase(&s, args.seed, &seq, share, false);
            let offset = (share * k).as_secs_f64();
            samples.extend(os.iter().map(|o| (offset + o.end_s, o.total_ms)));
            setups.push(setup_s);
            fills.extend(f);
            outcomes.extend(os);
        }
        set_slice_metrics(&mut report, &samples, args.seconds);
        report.set("setup_s", fastest(&setups));
        report.set(
            "peak_rss_mb",
            match seq.rss_bits.load(Ordering::Relaxed) {
                0 => peak_rss_mb(),
                bits => f64::from_bits(bits),
            },
        );
        let refs = local_lines(&pool_specs(args.seed).iter().collect::<Vec<_>>());
        verify(&mut report, &refs, &fills);
        verify(&mut report, &refs, &outcomes);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_tmp");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<Request> {
        (0..400).map(|j| request(seed, j)).collect()
    }

    #[test]
    fn same_seed_same_pool_and_requests() {
        assert_eq!(pool_specs(3), pool_specs(3));
        assert_eq!(sequence(3), sequence(3));
    }

    #[test]
    fn other_seed_other_pool_and_requests() {
        assert_ne!(pool_specs(3), pool_specs(4));
        assert_ne!(sequence(3), sequence(4));
    }

    #[test]
    fn pool_grids_are_distinct_and_fresh_ones_never_pooled() {
        let pool = pool_specs(5);
        let mut ds: Vec<u64> = pool.iter().map(CampaignSpec::digest).collect();
        ds.sort_unstable();
        ds.dedup();
        assert_eq!(ds.len(), POOL);
        let fresh: Vec<CampaignSpec> = sequence(5)
            .into_iter()
            .filter_map(|r| match r {
                Request::Fresh(s) => Some(s),
                Request::Pool(_) => None,
            })
            .collect();
        assert_eq!(fresh.len() as u64, 400 / FRESH_EVERY);
        assert!(fresh.iter().all(|f| !pool.contains(f)));
    }
}
