//! `safedm-sim serve`: a dependency-free HTTP/1.1 campaign service over
//! `std::net::TcpListener`.
//!
//! Endpoints (all bodies are `safedm-api/1` JSON via the `safedm-obs`
//! layer):
//!
//! | method | path | semantics |
//! |---|---|---|
//! | `POST` | `/v1/campaigns` | submit a [`CampaignSpec`]; `201` with the campaign id |
//! | `GET` | `/v1/campaigns/{id}/events` | chunked `application/x-ndjson` stream of per-cell [`CellEvent`](safedm_obs::events::CellEvent) lines, in cell order, as they complete |
//! | `GET` | `/v1/campaigns/{id}/result` | status + cache counters (`running` until done) |
//! | `DELETE` | `/v1/campaigns/{id}` | cancel: raise the job's stop flag; `202` with `canceling` (or the final status when already done) |
//! | `GET` | `/v1/healthz` | liveness + code version |
//!
//! Each accepted connection is handled on its own thread and stays open
//! for the client's next request (HTTP/1.1 keep-alive). It ends at EOF,
//! after the response to a request that asks to close (`Connection:
//! close`, or HTTP/1.0 without `keep-alive`), after the `400` that answers
//! a malformed or oversized request, or when no request arrives within
//! [`IDLE_TIMEOUT`]. Every response is framed (`Content-Length` or
//! chunked), so the next response on the connection starts where it ends;
//! the last one on a connection says `Connection: close`. Campaign cells
//! execute on the shared `safedm-campaign` pool via [`crate::service`],
//! fronted by one server-wide content-addressed [`ResultCache`]. The
//! streamed lines are the cells' [`Timing::Strip`]-serialised events —
//! byte-identical to a local `--events-out` run of the same spec (see
//! `crate::service` for the argument).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use safedm_campaign::cache::ResultCache;
use safedm_campaign::spec::{CampaignSpec, CODE_VERSION, SCHEMA};
use safedm_campaign::Progress;
use safedm_obs::json::JsonValue;

use crate::service::{self, RunOptions};

/// Maximum request head (request line + headers) the server will read.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body (a spec document) the server will read.
const MAX_BODY: usize = 1024 * 1024;
/// How long a connection may stay silent while the server reads a
/// request. A client that sends nothing for this long is disconnected, so
/// an idle keep-alive connection holds its handler thread no longer.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long one write may block on a client that stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8787` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker count for campaign cells (a submitted spec's `jobs` hint is
    /// clamped to this).
    pub jobs: usize,
    /// In-memory result-cache capacity (cell records).
    pub cache_cap: usize,
    /// Optional on-disk cache directory (write-through tier).
    pub cache_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8787".to_owned(),
            jobs: safedm_campaign::default_jobs(),
            cache_cap: 4096,
            cache_dir: None,
        }
    }
}

struct JobInner {
    lines: Vec<String>,
    done: bool,
    canceled: bool,
    error: Option<String>,
    all_ok: bool,
    hits: u64,
    misses: u64,
}

struct Job {
    total: usize,
    inner: Mutex<JobInner>,
    cond: Condvar,
    /// Cooperative cancellation flag ([`RunOptions::stop`]): raised by
    /// `DELETE`, checked by the runner before each pending cell.
    stop: AtomicBool,
}

impl Job {
    fn finish(&self, update: impl FnOnce(&mut JobInner)) {
        let mut inner = lock(&self.inner);
        update(&mut inner);
        inner.done = true;
        self.cond.notify_all();
    }
}

struct State {
    jobs: usize,
    // `Arc` so runner threads (which are `'static`) can share the one
    // server-wide cache with the accept loop.
    cache: Arc<Mutex<ResultCache>>,
    campaigns: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
}

/// A bound campaign server (listener + shared state). `bind` then `run`;
/// tests bind to `127.0.0.1:0` and read [`Server::local_addr`].
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    /// Read timeout of every connection: [`IDLE_TIMEOUT`] (tests shorten
    /// it).
    idle: Duration,
}

impl Server {
    /// Binds the listener and builds the shared state (cache included).
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let mut cache = ResultCache::new(cfg.cache_cap);
        if let Some(dir) = &cfg.cache_dir {
            cache = cache.with_dir(std::path::Path::new(dir));
        }
        Ok(Server {
            listener,
            state: Arc::new(State {
                jobs: cfg.jobs.max(1),
                cache: Arc::new(Mutex::new(cache)),
                campaigns: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
            }),
            idle: IDLE_TIMEOUT,
        })
    }

    /// The bound address (`host:port`).
    ///
    /// # Errors
    ///
    /// Returns a message when the socket has no local address.
    pub fn local_addr(&self) -> Result<String, String> {
        self.listener.local_addr().map(|a| a.to_string()).map_err(|e| e.to_string())
    }

    /// Serves forever: accepts connections, one handler thread each.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let idle = self.idle;
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &state, idle);
            });
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn json_body(members: Vec<(&str, JsonValue)>) -> String {
    let mut obj = vec![("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned()))];
    obj.extend(members.into_iter().map(|(k, v)| (k.to_owned(), v)));
    JsonValue::Obj(obj).render()
}

/// The write half of a connection. A response is written into the buffer
/// and flushed once (the event stream once per batch).
struct Reply {
    out: BufWriter<TcpStream>,
    /// The connection ends after this response, which then says so.
    last: bool,
}

impl Reply {
    /// The response's `Connection` header line: empty on a connection that
    /// stays open.
    fn connection(&self) -> &'static str {
        if self.last {
            "Connection: close\r\n"
        } else {
            ""
        }
    }
}

fn write_response(out: &mut Reply, status: u16, reason: &str, body: &str) -> std::io::Result<()> {
    let connection = out.connection();
    write!(
        out.out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )?;
    out.out.flush()
}

fn write_error(out: &mut Reply, status: u16, reason: &str, msg: &str) -> std::io::Result<()> {
    let body = json_body(vec![("error", JsonValue::Str(msg.to_owned()))]);
    write_response(out, status, reason, &body)
}

/// One request of a connection.
struct Request {
    method: String,
    path: String,
    body: String,
    /// Whether the client keeps the connection open after the response:
    /// HTTP/1.1 unless it sends `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    keep_alive: bool,
}

/// Reads one line of a request head, charging it to the head's byte
/// budget.
fn read_head_line(reader: &mut BufReader<TcpStream>, budget: &mut usize) -> Result<String, String> {
    let mut line = String::new();
    let n = reader.take(*budget as u64).read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.ends_with('\n') {
        return Err(
            if n == *budget { "request head too large" } else { "request cut short" }.to_owned()
        );
    }
    *budget -= n;
    Ok(line.trim_end().to_owned())
}

/// Whether a comma-separated header value lists `token`.
fn lists(value: &str, token: &str) -> bool {
    value.split(',').any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Reads the next request of a connection. `Ok(None)` when the client
/// closed the connection, or sent nothing within the read timeout, before
/// the request's first byte; `Err` for a malformed, oversized or truncated
/// request.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, String> {
    if !reader.fill_buf().is_ok_and(|b| !b.is_empty()) {
        return Ok(None);
    }
    let mut budget = MAX_HEAD;
    let line = read_head_line(reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let path = parts.next().ok_or("request line has no path")?.to_owned();
    let mut keep_alive = parts.next() == Some("HTTP/1.1");
    let mut content_length = 0usize;
    loop {
        let h = read_head_line(reader, &mut budget)?;
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.trim().parse().map_err(|_| "invalid Content-Length".to_owned())?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Without the body's length the next request cannot be found.
            return Err("request bodies must have a Content-Length".to_owned());
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = if lists(value, "close") {
                false
            } else {
                keep_alive || lists(value, "keep-alive")
            };
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".to_owned());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(Some(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    }))
}

/// Serves the requests of one connection in order until the client closes
/// it, asks to, stays idle past `idle`, or sends a request the server
/// cannot read (answered `400`).
fn handle_connection(stream: TcpStream, state: &State, idle: Duration) -> std::io::Result<()> {
    // The event stream writes once per batch; with Nagle's algorithm, a
    // write would wait for the client's delayed ACK of the one before.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(idle))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = Reply { out: BufWriter::new(stream), last: false };
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) => {
                out.last = true;
                return write_error(&mut out, 400, "Bad Request", &e);
            }
        };
        out.last = !request.keep_alive;
        respond(&mut out, state, &request)?;
        if out.last {
            return Ok(());
        }
    }
}

fn respond(out: &mut Reply, state: &State, request: &Request) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let campaigns = lock(&state.campaigns).len() as u64;
            let body = json_body(vec![
                ("status", JsonValue::Str("ok".to_owned())),
                ("version", JsonValue::Str(CODE_VERSION.to_owned())),
                ("campaigns", JsonValue::Uint(campaigns)),
            ]);
            write_response(out, 200, "OK", &body)
        }
        ("POST", "/v1/campaigns") => post_campaign(out, state, &request.body),
        ("GET", p) => match parse_campaign_path(p) {
            Some((id, "events")) => get_events(out, state, id),
            Some((id, "result")) => get_result(out, state, id),
            _ => write_error(out, 404, "Not Found", &format!("no such resource: {p}")),
        },
        ("DELETE", p) => match parse_campaign_id(p) {
            Some(id) => cancel_campaign(out, state, id),
            None => write_error(out, 404, "Not Found", &format!("no such resource: {p}")),
        },
        (m, p) => write_error(out, 405, "Method Not Allowed", &format!("cannot {m} {p}")),
    }
}

/// `/v1/campaigns/c{N}/{tail}` → `(N, tail)`.
fn parse_campaign_path(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/v1/campaigns/c")?;
    let (id, tail) = rest.split_once('/')?;
    Some((id.parse().ok()?, tail))
}

/// `/v1/campaigns/c{N}` (no tail) → `N`.
fn parse_campaign_id(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/campaigns/c")?.parse().ok()
}

fn post_campaign(out: &mut Reply, state: &State, body: &str) -> std::io::Result<()> {
    let spec = match CampaignSpec::parse_json(body) {
        Ok(s) => s,
        Err(e) => return write_error(out, 400, "Bad Request", &e),
    };
    // The server owns scheduling: a client's jobs hint is clamped to the
    // server's worker budget (it never affects results either way).
    let clamped = CampaignSpec {
        jobs: Some(spec.jobs.map_or(state.jobs as u64, |j| j.min(state.jobs as u64)).max(1)),
        ..spec
    };
    let prepared = match service::prepare(&clamped) {
        Ok(p) => p,
        Err(e) => return write_error(out, 400, "Bad Request", &e),
    };
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        total: prepared.cells.len(),
        inner: Mutex::new(JobInner {
            lines: Vec::new(),
            done: false,
            canceled: false,
            error: None,
            all_ok: true,
            hits: 0,
            misses: 0,
        }),
        cond: Condvar::new(),
        stop: AtomicBool::new(false),
    });
    lock(&state.campaigns).insert(id, Arc::clone(&job));

    let digest = clamped.digest();
    let total = prepared.cells.len() as u64;
    {
        // Runner thread: cells on the campaign pool, lines into the job
        // buffer in index order as their prefix completes.
        let job = Arc::clone(&job);
        let cache = Arc::clone(&state.cache);
        std::thread::spawn(move || {
            let sink = |_i: usize, line: &str| {
                let mut inner = lock(&job.inner);
                inner.lines.push(line.to_owned());
                job.cond.notify_all();
            };
            let progress = Progress::new(false, prepared.cells.len());
            let opts = RunOptions {
                cache: Some(&cache),
                progress: Some(&progress),
                on_line: Some(&sink),
                stop: Some(&job.stop),
            };
            match service::run(&prepared, &opts) {
                Ok(outcome) => job.finish(|inner| {
                    inner.all_ok = outcome.all_ok;
                    inner.canceled = outcome.canceled;
                    inner.hits = outcome.cache.hits + outcome.cache.disk_hits;
                    inner.misses = outcome.cache.misses;
                }),
                Err(e) => job.finish(|inner| inner.error = Some(e)),
            }
        });
    }

    let body = json_body(vec![
        ("id", JsonValue::Str(format!("c{id}"))),
        ("cells", JsonValue::Uint(total)),
        ("spec_digest", JsonValue::Str(format!("{digest:016x}"))),
    ]);
    write_response(out, 201, "Created", &body)
}

fn get_events(out: &mut Reply, state: &State, id: u64) -> std::io::Result<()> {
    let Some(job) = lock(&state.campaigns).get(&id).cloned() else {
        return write_error(out, 404, "Not Found", &format!("no campaign c{id}"));
    };
    let connection = out.connection();
    write!(
        out.out,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n{connection}\r\n"
    )?;
    // Each batch of lines is flushed as it arrives, so the stream follows
    // the campaign live; the last batch leaves with the terminating chunk.
    let mut sent = 0usize;
    loop {
        let batch: Vec<String> = {
            let mut inner = lock(&job.inner);
            while inner.lines.len() == sent && !inner.done {
                inner = job.cond.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let batch = inner.lines[sent..].to_vec();
            if batch.is_empty() && inner.done {
                break;
            }
            batch
        };
        for line in &batch {
            write!(out.out, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
        }
        sent += batch.len();
        if sent >= job.total {
            break;
        }
        out.out.flush()?;
    }
    // Hold the stream open until the runner publishes its final counters,
    // so a `result` fetched right after the stream ends is never `running`.
    {
        let mut inner = lock(&job.inner);
        while !inner.done {
            inner = job.cond.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
    write!(out.out, "0\r\n\r\n")?;
    out.out.flush()
}

/// Raises a campaign's stop flag. Idempotent; a finished campaign just
/// reports its final status.
fn cancel_campaign(out: &mut Reply, state: &State, id: u64) -> std::io::Result<()> {
    let Some(job) = lock(&state.campaigns).get(&id).cloned() else {
        return write_error(out, 404, "Not Found", &format!("no campaign c{id}"));
    };
    job.stop.store(true, Ordering::Relaxed);
    let status = { job_status(&lock(&job.inner)) };
    let status = if status == "running" { "canceling" } else { status };
    let body = json_body(vec![
        ("id", JsonValue::Str(format!("c{id}"))),
        ("status", JsonValue::Str(status.to_owned())),
    ]);
    write_response(out, 202, "Accepted", &body)
}

fn job_status(inner: &JobInner) -> &'static str {
    if !inner.done {
        "running"
    } else if inner.error.is_some() {
        "failed"
    } else if inner.canceled {
        "canceled"
    } else {
        "done"
    }
}

fn get_result(out: &mut Reply, state: &State, id: u64) -> std::io::Result<()> {
    let Some(job) = lock(&state.campaigns).get(&id).cloned() else {
        return write_error(out, 404, "Not Found", &format!("no campaign c{id}"));
    };
    let inner = lock(&job.inner);
    let status = job_status(&inner);
    let mut members = vec![
        ("id", JsonValue::Str(format!("c{id}"))),
        ("status", JsonValue::Str(status.to_owned())),
        ("cells", JsonValue::Uint(job.total as u64)),
        ("completed", JsonValue::Uint(inner.lines.len() as u64)),
        ("ok", JsonValue::Bool(inner.all_ok)),
        (
            "cache",
            JsonValue::Obj(vec![
                ("hits".to_owned(), JsonValue::Uint(inner.hits)),
                ("misses".to_owned(), JsonValue::Uint(inner.misses)),
            ]),
        ),
    ];
    if let Some(e) = &inner.error {
        members.push(("error", JsonValue::Str(e.clone())));
    }
    let body = json_body(members);
    write_response(out, 200, "OK", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_silent_connection_is_closed_after_the_idle_timeout() {
        let mut server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 1,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        server.idle = Duration::from_millis(100);
        let addr = server.local_addr().expect("local addr");
        std::thread::spawn(move || server.run());

        // Silent from the start: closed without a response.
        let mut silent = TcpStream::connect(&addr).expect("connect");
        silent.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
        let t = Instant::now();
        let mut rest = Vec::new();
        silent.read_to_end(&mut rest).expect("the server closes the connection");
        assert!(rest.is_empty(), "no response to a request never sent");
        assert!(t.elapsed() < Duration::from_secs(30));

        // Silent after one answered request: closed after that response.
        let mut idle = TcpStream::connect(&addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
        idle.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut rest = Vec::new();
        idle.read_to_end(&mut rest).expect("the server closes the connection");
        let rest = String::from_utf8(rest).expect("utf-8 response");
        assert!(rest.starts_with("HTTP/1.1 200 OK\r\n"), "{rest}");
        assert!(rest.ends_with('}'), "one complete response, then EOF: {rest}");
    }
}
