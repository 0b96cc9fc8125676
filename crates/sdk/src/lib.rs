//! # safedm-sdk — thin client for the `safedm-sim serve` campaign service
//!
//! A blocking, dependency-free (std + the workspace's own `safedm-obs`
//! JSON layer) client for the `safedm-api/1` HTTP surface:
//!
//! ```no_run
//! use safedm_campaign::CampaignSpec;
//! use safedm_sdk::Client;
//!
//! let client = Client::new("127.0.0.1:8787");
//! let spec = CampaignSpec::default(); // 4-cell grid
//! let run = client.run(&spec).expect("campaign");
//! assert_eq!(run.lines.len() as u64, run.result.cells);
//! ```
//!
//! The client is deliberately thin: typed request/response structs
//! ([`Submission`], [`CampaignResult`], [`CancelAck`], [`Health`]), one
//! persistent HTTP/1.1 connection, retry with exponential backoff on
//! connect failures and 5xx responses, and a per-call deadline that bounds
//! connect, reads and the whole event stream. Event lines come back
//! exactly as the server streamed them — byte-identical to a local
//! `--events-out` run of the same spec.
//!
//! After it has read a complete response, the client parks the connection
//! and sends its next request over it, so [`Client::run`] costs one
//! connection, not three. If a parked connection turns out to be closed
//! before the status line of the next response arrives (the server's idle
//! timeout, a restart), the client sends that request once more over a new
//! connection. Sending a submission twice is harmless: equal specs give
//! identical, cached results.

#![warn(missing_docs)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use safedm_campaign::spec::{CampaignSpec, SCHEMA};
use safedm_obs::json::{parse, JsonValue};

/// Client-side errors, split by what the caller can do about them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdkError {
    /// TCP connect / socket I/O failure (retried automatically).
    Connect(String),
    /// Non-2xx HTTP response (5xx are retried automatically).
    Http {
        /// HTTP status code.
        status: u16,
        /// The response body (usually a `safedm-api/1` error document).
        body: String,
    },
    /// The response did not follow the `safedm-api/1` protocol.
    Protocol(String),
    /// The configured deadline elapsed.
    Deadline,
}

impl std::fmt::Display for SdkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdkError::Connect(e) => write!(f, "connect: {e}"),
            SdkError::Http { status, body } => write!(f, "http {status}: {body}"),
            SdkError::Protocol(e) => write!(f, "protocol: {e}"),
            SdkError::Deadline => write!(f, "deadline elapsed"),
        }
    }
}

/// Retry policy: `attempts` tries with exponential backoff starting at
/// `backoff` (doubling each retry). Applies to connect errors and 5xx.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Initial backoff between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 5, backoff: Duration::from_millis(50) }
    }
}

/// A successful `POST /v1/campaigns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Server-assigned campaign id (e.g. `c7`).
    pub id: String,
    /// Number of cells the spec enumerates to.
    pub cells: u64,
    /// The spec's content digest as the server computed it (hex).
    pub spec_digest: String,
}

/// A `DELETE /v1/campaigns/{id}` acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelAck {
    /// The campaign id the cancellation targeted.
    pub id: String,
    /// `canceling` while the runner drains, or the final status
    /// (`done`/`failed`/`canceled`) when the campaign already finished.
    pub status: String,
}

/// A `GET /v1/campaigns/{id}/result`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// `running`, `done`, `canceled` or `failed`.
    pub status: String,
    /// Total cells.
    pub cells: u64,
    /// Cells completed so far (== `cells` when done).
    pub completed: u64,
    /// Whether every completed cell passed its self-check.
    pub ok: bool,
    /// Result-cache hits this campaign (memory + disk).
    pub cache_hits: u64,
    /// Result-cache misses this campaign (cells actually simulated).
    pub cache_misses: u64,
    /// Failure message when `status == "failed"`.
    pub error: Option<String>,
}

/// A `GET /v1/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Always `ok` when the server answers.
    pub status: String,
    /// The server's code version (cache-salt identity).
    pub version: String,
}

/// A full [`Client::run`]: submission, streamed lines, final result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// The submission receipt.
    pub submission: Submission,
    /// The streamed event lines, in cell order, byte-exact.
    pub lines: Vec<String>,
    /// The final result document.
    pub result: CampaignResult,
}

/// Blocking campaign-service client. Cheap to construct; it opens its
/// connection on the first call and reuses it while the server keeps it
/// open.
#[derive(Debug)]
pub struct Client {
    addr: String,
    retry: RetryPolicy,
    deadline: Option<Duration>,
    /// The connection of the last complete response, if the server keeps
    /// it open.
    parked: Mutex<Option<BufReader<TcpStream>>>,
}

impl Clone for Client {
    /// The same server and settings; the clone opens its own connection.
    fn clone(&self) -> Client {
        Client {
            addr: self.addr.clone(),
            retry: self.retry,
            deadline: self.deadline,
            parked: Mutex::default(),
        }
    }
}

impl Client {
    /// A client for `addr` (`host:port`) with default retry and no
    /// deadline.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            retry: RetryPolicy::default(),
            deadline: None,
            parked: Mutex::default(),
        }
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Bounds every call (including full event streams) by `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        self.deadline = Some(deadline);
        self
    }

    fn start(&self) -> Option<Instant> {
        self.deadline.map(|_| Instant::now())
    }

    fn remaining(&self, started: Option<Instant>) -> Result<Option<Duration>, SdkError> {
        match (self.deadline, started) {
            (Some(d), Some(t0)) => {
                let spent = t0.elapsed();
                if spent >= d {
                    Err(SdkError::Deadline)
                } else {
                    Ok(Some(d - spent))
                }
            }
            _ => Ok(None),
        }
    }

    /// `GET /v1/healthz`.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError`] on connect/protocol failures after retries.
    pub fn healthz(&self) -> Result<Health, SdkError> {
        let started = self.start();
        let (_, v) = self.request_json("GET", "/v1/healthz", None, started)?;
        Ok(Health { status: str_field(&v, "status")?, version: str_field(&v, "version")? })
    }

    /// `POST /v1/campaigns`: submits `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Http`] with status 400 for invalid specs.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<Submission, SdkError> {
        let started = self.start();
        let body = spec.canonical_json();
        let (status, v) = self.request_json("POST", "/v1/campaigns", Some(&body), started)?;
        if status != 201 {
            return Err(SdkError::Protocol(format!("expected 201, got {status}")));
        }
        Ok(Submission {
            id: str_field(&v, "id")?,
            cells: uint_field(&v, "cells")?,
            spec_digest: str_field(&v, "spec_digest")?,
        })
    }

    /// `GET /v1/campaigns/{id}/events`: blocks until the stream ends,
    /// returning every line (in cell order, byte-exact).
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Deadline`] if the stream outlives the deadline.
    pub fn stream_events(&self, id: &str) -> Result<Vec<String>, SdkError> {
        let started = self.start();
        let path = format!("/v1/campaigns/{id}/events");
        let (status, text) = self.exchange("GET", &path, None, started)?;
        if status != 200 {
            return Err(SdkError::Http { status, body: text });
        }
        Ok(text.lines().map(str::to_owned).collect())
    }

    /// `GET /v1/campaigns/{id}/result`.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError`] on connect/protocol failures after retries.
    pub fn result(&self, id: &str) -> Result<CampaignResult, SdkError> {
        let started = self.start();
        let path = format!("/v1/campaigns/{id}/result");
        let (_, v) = self.request_json("GET", &path, None, started)?;
        let cache = v.get("cache").ok_or_else(|| proto("result has no `cache`"))?;
        Ok(CampaignResult {
            status: str_field(&v, "status")?,
            cells: uint_field(&v, "cells")?,
            completed: uint_field(&v, "completed")?,
            ok: v
                .get("ok")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| proto("result has no `ok`"))?,
            cache_hits: uint_field(cache, "hits")?,
            cache_misses: uint_field(cache, "misses")?,
            error: v.get("error").and_then(|e| e.as_str().map(str::to_owned)),
        })
    }

    /// `DELETE /v1/campaigns/{id}`: asks the server to cancel a running
    /// campaign. Cancellation is cooperative — cells already simulating
    /// finish, pending cells are skipped — and idempotent: canceling a
    /// finished campaign just reports its final status.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::Http`] with status 404 for unknown campaigns.
    pub fn cancel(&self, id: &str) -> Result<CancelAck, SdkError> {
        let started = self.start();
        let path = format!("/v1/campaigns/{id}");
        let (status, v) = self.request_json("DELETE", &path, None, started)?;
        if status != 202 {
            return Err(SdkError::Protocol(format!("expected 202, got {status}")));
        }
        Ok(CancelAck { id: str_field(&v, "id")?, status: str_field(&v, "status")? })
    }

    /// Submit + stream + result, in one call.
    ///
    /// # Errors
    ///
    /// Returns the first [`SdkError`] from any of the three steps.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignRun, SdkError> {
        let submission = self.submit(spec)?;
        let lines = self.stream_events(&submission.id)?;
        let result = self.result(&submission.id)?;
        Ok(CampaignRun { submission, lines, result })
    }

    /// One JSON request with the retry policy applied: connect errors and
    /// 5xx retry with backoff; 4xx surface immediately.
    fn request_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        started: Option<Instant>,
    ) -> Result<(u16, JsonValue), SdkError> {
        let mut backoff = self.retry.backoff;
        let mut last = SdkError::Protocol("no attempts made".to_owned());
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            self.remaining(started)?;
            match self.attempt_json(method, path, body, started) {
                Ok((status, v)) if status >= 500 => {
                    last = SdkError::Http { status, body: v.render() };
                }
                Ok((status, v)) if status >= 400 => {
                    return Err(SdkError::Http { status, body: v.render() });
                }
                Ok(ok) => return Ok(ok),
                Err(e @ (SdkError::Connect(_) | SdkError::Http { .. })) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn attempt_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        started: Option<Instant>,
    ) -> Result<(u16, JsonValue), SdkError> {
        let (status, text) = self.exchange(method, path, body, started)?;
        let v = parse(&text).map_err(|e| proto(&format!("body is not JSON: {e}")))?;
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA) => Ok((status, v)),
            Some(other) => Err(proto(&format!("unsupported schema `{other}`"))),
            None => Err(proto("response has no `schema`")),
        }
    }

    /// Sends one request and reads its whole response, over the parked
    /// connection or a new one. A parked connection found closed before
    /// the status line is replaced once by a new connection. The
    /// connection is parked again if the response was framed and did not
    /// say that the server closes it.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        started: Option<Instant>,
    ) -> Result<(u16, String), SdkError> {
        let remaining = self.remaining(started)?;
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        let parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner).take();
        let reused = parked.is_some();
        let mut conn = match parked {
            Some(conn) => conn,
            None => self.connect(remaining)?,
        };
        let mut status = send(&mut conn, &request, remaining)?;
        if status.is_none() && reused {
            conn = self.connect(remaining)?;
            status = send(&mut conn, &request, remaining)?;
        }
        let status = status.ok_or_else(|| {
            SdkError::Connect(format!("{}: connection closed before the response", self.addr))
        })?;
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            conn.read_line(&mut h).map_err(read_err)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        let text = read_body(&headers, &mut conn)?;
        let framed = header(&headers, "content-length").is_some() || is_chunked(&headers);
        let closes = header(&headers, "connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")));
        if framed && !closes && conn.buffer().is_empty() {
            *self.parked.lock().unwrap_or_else(PoisonError::into_inner) = Some(conn);
        }
        Ok((status, text))
    }

    fn connect(&self, remaining: Option<Duration>) -> Result<BufReader<TcpStream>, SdkError> {
        match remaining {
            Some(d) => {
                let addr = self
                    .addr
                    .parse()
                    .map_err(|e| SdkError::Connect(format!("bad address {}: {e}", self.addr)))?;
                TcpStream::connect_timeout(&addr, d)
            }
            None => TcpStream::connect(&self.addr),
        }
        .map(BufReader::new)
        .map_err(|e| SdkError::Connect(format!("{}: {e}", self.addr)))
    }
}

/// Writes `request` and reads the response's status code. `Ok(None)` when
/// the connection turns out to be closed first.
fn send(
    conn: &mut BufReader<TcpStream>,
    request: &str,
    remaining: Option<Duration>,
) -> Result<Option<u16>, SdkError> {
    conn.get_ref().set_read_timeout(remaining).map_err(|e| SdkError::Connect(e.to_string()))?;
    if conn.get_mut().write_all(request.as_bytes()).is_err() {
        return Ok(None);
    }
    let mut status_line = String::new();
    match conn.read_line(&mut status_line).map_err(read_err) {
        Ok(0) | Err(SdkError::Connect(_)) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .map(Some)
        .ok_or_else(|| proto(&format!("bad status line `{}`", status_line.trim())))
}

fn proto(msg: &str) -> SdkError {
    SdkError::Protocol(msg.to_owned())
}

fn read_err(e: std::io::Error) -> SdkError {
    if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
        SdkError::Deadline
    } else {
        SdkError::Connect(e.to_string())
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn is_chunked(headers: &[(String, String)]) -> bool {
    header(headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
}

/// Reads a response body: chunked, `Content-Length`, or to EOF.
fn read_body(
    headers: &[(String, String)],
    reader: &mut BufReader<TcpStream>,
) -> Result<String, SdkError> {
    if is_chunked(headers) {
        let mut out = Vec::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).map_err(read_err)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| proto(&format!("bad chunk size `{}`", size_line.trim())))?;
            let mut chunk = vec![0u8; size + 2]; // chunk + trailing \r\n
            reader.read_exact(&mut chunk).map_err(read_err)?;
            if size == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..size]);
        }
        return Ok(String::from_utf8_lossy(&out).into_owned());
    }
    match header(headers, "content-length") {
        Some(len) => {
            let len: usize =
                len.parse().map_err(|_| proto(&format!("bad Content-Length `{len}`")))?;
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(read_err)?;
            Ok(String::from_utf8_lossy(&body).into_owned())
        }
        None => {
            let mut body = String::new();
            reader.read_to_string(&mut body).map_err(read_err)?;
            Ok(body)
        }
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, SdkError> {
    v.get(key)
        .and_then(|x| x.as_str().map(str::to_owned))
        .ok_or_else(|| proto(&format!("response has no string `{key}`")))
}

fn uint_field(v: &JsonValue, key: &str) -> Result<u64, SdkError> {
    v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| proto(&format!("response has no `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;
    use std::net::TcpListener;

    /// Reads one request off an in-test server's connection (head and
    /// `Content-Length` body) and returns its request line.
    fn read_request(conn: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        conn.read_line(&mut line).expect("request line");
        let mut len = 0;
        loop {
            let mut h = String::new();
            conn.read_line(&mut h).expect("header");
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.strip_prefix("Content-Length: ") {
                len = v.parse().expect("length");
            }
        }
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body).expect("body");
        line.trim_end().to_owned()
    }

    fn json_response(status: &str, body: &str) -> String {
        format!("HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}", body.len())
    }

    #[test]
    fn run_sends_its_three_requests_over_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let responses = [
            json_response(
                "201 Created",
                &format!(r#"{{"schema":"{SCHEMA}","id":"c1","cells":2,"spec_digest":"0"}}"#),
            ),
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n{a}\n\r\n4\r\n{b}\n\r\n0\r\n\r\n"
                .to_owned(),
            json_response(
                "200 OK",
                &format!(
                    r#"{{"schema":"{SCHEMA}","status":"done","cells":2,"completed":2,"ok":true,"cache":{{"hits":2,"misses":0}}}}"#
                ),
            ),
        ];
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut conn = BufReader::new(conn);
            let mut seen = Vec::new();
            for response in responses {
                seen.push(read_request(&mut conn));
                conn.get_mut().write_all(response.as_bytes()).unwrap();
            }
            (listener, seen)
        });
        let client = Client::new(addr).with_deadline(Duration::from_secs(30));
        let run = client.run(&CampaignSpec::default()).expect("run");
        assert_eq!(run.lines, ["{a}", "{b}"]);
        assert_eq!((run.result.status.as_str(), run.result.cache_hits), ("done", 2));
        let (listener, seen) = server.join().unwrap();
        assert_eq!(
            seen,
            [
                "POST /v1/campaigns HTTP/1.1",
                "GET /v1/campaigns/c1/events HTTP/1.1",
                "GET /v1/campaigns/c1/result HTTP/1.1",
            ]
        );
        listener.set_nonblocking(true).unwrap();
        assert!(
            listener.accept().is_err_and(|e| e.kind() == ErrorKind::WouldBlock),
            "the client opened a second connection"
        );
    }

    #[test]
    fn a_server_that_closes_after_every_response_is_still_answered() {
        // The server closes each connection after one response without
        // saying so; with one attempt per call and no retries, only the
        // reconnect rule can answer the calls after the first.
        const CALLS: usize = 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..CALLS {
                let (conn, _) = listener.accept().unwrap();
                let mut conn = BufReader::new(conn);
                read_request(&mut conn);
                let body = format!(r#"{{"schema":"{SCHEMA}","status":"ok","version":"v"}}"#);
                conn.get_mut().write_all(json_response("200 OK", &body).as_bytes()).unwrap();
            }
        });
        let client = Client::new(addr)
            .with_retry(RetryPolicy { attempts: 1, backoff: Duration::from_millis(1) })
            .with_deadline(Duration::from_secs(30));
        for _ in 0..CALLS {
            assert_eq!(client.healthz().expect("answered").status, "ok");
        }
        server.join().unwrap();
    }

    #[test]
    fn errors_render_usefully() {
        assert_eq!(SdkError::Deadline.to_string(), "deadline elapsed");
        let e = SdkError::Http { status: 400, body: "{}".to_owned() };
        assert!(e.to_string().contains("400"));
    }

    #[test]
    fn connect_errors_are_retried_then_surfaced() {
        // Nothing listens on a fresh ephemeral port that we immediately
        // close, so every attempt fails with a connect error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let client = Client::new(addr)
            .with_retry(RetryPolicy { attempts: 2, backoff: Duration::from_millis(1) });
        match client.healthz() {
            Err(SdkError::Connect(_)) => {}
            other => panic!("expected connect error, got {other:?}"),
        }
    }

    #[test]
    fn deadline_bounds_connect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The listener never accepts or answers; reads must time out.
        let client = Client::new(addr)
            .with_retry(RetryPolicy { attempts: 1, backoff: Duration::from_millis(1) })
            .with_deadline(Duration::from_millis(50));
        match client.healthz() {
            Err(SdkError::Deadline | SdkError::Connect(_)) => {}
            other => panic!("expected deadline/connect, got {other:?}"),
        }
    }
}
