//! End-to-end campaign service test: `safedm-sim serve`'s engine on an
//! ephemeral port, driven through the public `safedm-sdk` client.
//!
//! The contract under test is the PR 9 cache-correctness argument: a
//! campaign's event stream over HTTP is byte-identical to local execution
//! of the same spec (any `--jobs`), and a repeated submission is served
//! entirely from the content-addressed result cache — same bytes, zero
//! re-simulation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use safedm::campaign::cache::ResultCache;
use safedm::campaign::spec::{CampaignSpec, CellSpec, Protocol};
use safedm_bench::http::{ServeConfig, Server};
use safedm_bench::service::{self, RunOptions};
use safedm_sdk::{Client, SdkError};

/// The ISSUE's 4-cell grid: bitcount/fac × nops 0/100, one run each.
fn four_cell_spec() -> CampaignSpec {
    CampaignSpec {
        protocol: Protocol::Grid,
        kernels: vec!["bitcount".to_owned(), "fac".to_owned()],
        staggers: vec![0, 100],
        runs: 1,
        root_seed: Some(2024),
        engine: "cycle".to_owned(),
        jobs: Some(2),
        keep_timing: false,
    }
}

fn spawn_server() -> String {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    addr
}

#[test]
fn served_events_match_local_run_and_resubmission_is_all_cache_hits() {
    let addr = spawn_server();
    let client = Client::new(addr).with_deadline(Duration::from_secs(300));

    let health = client.healthz().expect("healthz");
    assert_eq!(health.status, "ok");
    assert!(health.version.starts_with("safedm/"), "code version: {}", health.version);

    // The reference: the same spec executed locally on 2 workers, no
    // cache — exactly what `safedm-sim campaign --jobs 2` runs.
    let spec = four_cell_spec();
    let local = service::run_spec(&spec, &RunOptions::default()).expect("local run");
    assert_eq!(local.lines.len(), 4);

    // Cold submission: everything simulates, stream matches local bytes.
    let cold = client.run(&spec).expect("cold campaign");
    assert_eq!(cold.submission.cells, 4);
    assert_eq!(cold.lines, local.lines, "served stream must be byte-identical to local run");
    assert_eq!(cold.result.status, "done");
    assert!(cold.result.ok);
    assert_eq!((cold.result.cache_hits, cold.result.cache_misses), (0, 4));

    // Resubmission: 100% cache hit, same bytes, nothing re-simulated.
    let warm = client.run(&spec).expect("warm campaign");
    assert_eq!(warm.lines, cold.lines);
    assert_eq!((warm.result.cache_hits, warm.result.cache_misses), (4, 0));
    assert_eq!(warm.result.status, "done");
    assert!(warm.result.ok);
    assert_ne!(warm.submission.id, cold.submission.id, "each submission gets its own id");
    assert_eq!(warm.submission.spec_digest, cold.submission.spec_digest);

    // Scheduling hints are not identity: a different jobs count digests
    // (and caches) identically.
    let rehinted = CampaignSpec { jobs: Some(1), ..spec };
    let hinted = client.run(&rehinted).expect("re-hinted campaign");
    assert_eq!(hinted.submission.spec_digest, cold.submission.spec_digest);
    assert_eq!((hinted.result.cache_hits, hinted.result.cache_misses), (4, 0));
    assert_eq!(hinted.lines, cold.lines);
}

#[test]
fn engine_spellings_share_event_lines_and_cache_entries() {
    // `Engine::parse` trims the name and reads the retired `hybrid` as
    // `cycle`. Cells must carry the canonical name, so every spelling of
    // the cycle engine yields the same bytes and the same cache keys.
    let spec = CampaignSpec {
        kernels: vec!["fac".to_owned()],
        staggers: vec![0],
        runs: 2,
        jobs: Some(1),
        ..four_cell_spec()
    };
    let cache = Mutex::new(ResultCache::new(64));
    let cached = RunOptions { cache: Some(&cache), ..RunOptions::default() };
    let cycle = service::run_spec(&spec, &cached).expect("cycle run");
    assert_eq!((cycle.cache.hits, cycle.cache.misses), (0, 2));
    for name in [" cycle ", "hybrid"] {
        let alias = CampaignSpec { engine: name.to_owned(), ..spec.clone() };
        let fresh = service::run_spec(&alias, &RunOptions::default()).expect("uncached run");
        assert_eq!(fresh.lines, cycle.lines, "engine `{name}`: event lines differ from `cycle`");
        let replay = service::run_spec(&alias, &cached).expect("cached run");
        assert_eq!(replay.lines, cycle.lines);
        assert_eq!(
            (replay.cache.hits, replay.cache.misses),
            (2, 0),
            "engine `{name}` forked the result cache"
        );
    }
}

/// Every cell's cache key, in index order.
fn cell_keys(spec: &CampaignSpec) -> Vec<CellSpec> {
    service::prepare(spec).expect("prepare").cells.into_iter().map(|c| c.spec).collect()
}

#[test]
fn table1_cells_key_on_the_canonical_engine_name() {
    // The Table I protocol pins its own staggers and runs (10 cells per
    // kernel). Keys are fixed when the spec is prepared, before any cell
    // runs, so comparing them needs no simulation.
    let spec = CampaignSpec {
        protocol: Protocol::Table1,
        kernels: vec!["fac".to_owned()],
        ..four_cell_spec()
    };
    let keys = cell_keys(&spec);
    assert_eq!(keys.len(), 10);
    assert!(keys.iter().all(|k| k.engine == "cycle"), "keys: {keys:?}");
    for name in [" cycle ", "hybrid"] {
        let alias = CampaignSpec { engine: name.to_owned(), ..spec.clone() };
        assert_eq!(cell_keys(&alias), keys, "engine `{name}`: Table I keys differ from `cycle`");
    }
}

#[test]
fn ccf_cells_key_on_the_canonical_engine_name() {
    // One CCF cell per kernel; its fault-injection trials are too slow for
    // an unoptimised test build, so this compares the prepared keys only.
    let spec = CampaignSpec {
        protocol: Protocol::Ccf,
        kernels: vec!["fac".to_owned(), "bitcount".to_owned()],
        ..four_cell_spec()
    };
    let keys = cell_keys(&spec);
    assert_eq!(keys.len(), 2);
    assert!(keys.iter().all(|k| k.engine == "cycle"), "keys: {keys:?}");
    for name in [" cycle ", "hybrid"] {
        let alias = CampaignSpec { engine: name.to_owned(), ..spec.clone() };
        assert_eq!(cell_keys(&alias), keys, "engine `{name}`: CCF keys differ from `cycle`");
    }
}

#[test]
fn fast_and_cycle_cells_never_share_cache_entries() {
    // The engine is part of every cell's identity: the fast engine's proxy
    // counters must never be replayed as cycle-accurate results, or the
    // other way round.
    let spec = CampaignSpec {
        kernels: vec!["fac".to_owned()],
        staggers: vec![0],
        runs: 2,
        jobs: Some(1),
        ..four_cell_spec()
    };
    let cache = Mutex::new(ResultCache::new(64));
    let cached = RunOptions { cache: Some(&cache), ..RunOptions::default() };
    let cycle = service::run_spec(&spec, &cached).expect("cycle run");
    let fast_spec = CampaignSpec { engine: "fast".to_owned(), ..spec.clone() };
    let fast = service::run_spec(&fast_spec, &cached).expect("fast run");
    assert_eq!((fast.cache.hits, fast.cache.misses), (0, 2), "fast run hit cycle entries");
    assert!(fast.lines.iter().all(|l| l.contains("\"engine\":\"fast\"")), "{:?}", fast.lines);
    assert_ne!(fast.lines, cycle.lines);

    // Each engine replays only its own entries.
    for (s, first) in [(&spec, &cycle), (&fast_spec, &fast)] {
        let replay = service::run_spec(s, &cached).expect("cached run");
        assert_eq!((replay.cache.hits, replay.cache.misses), (2, 0), "engine `{}`", s.engine);
        assert_eq!(replay.lines, first.lines);
    }
}

#[test]
fn cancellation_stops_pending_cells_and_is_idempotent() {
    // A single-worker server so cells run strictly one at a time, and a
    // 32-cell campaign so the cancel request has a real window to land in.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    let client = Client::new(addr).with_deadline(Duration::from_secs(300));

    let spec = CampaignSpec {
        protocol: Protocol::Grid,
        kernels: vec!["fac".to_owned()],
        staggers: vec![0],
        runs: 32,
        root_seed: Some(99),
        engine: "cycle".to_owned(),
        jobs: Some(1),
        keep_timing: false,
    };
    let sub = client.submit(&spec).expect("submit");
    let ack = client.cancel(&sub.id).expect("cancel");
    assert_eq!(ack.id, sub.id);
    assert!(
        ["canceling", "canceled", "done"].contains(&ack.status.as_str()),
        "unexpected ack status {}",
        ack.status
    );

    // The stream still terminates cleanly, carrying only completed cells.
    let lines = client.stream_events(&sub.id).expect("stream after cancel");
    let result = client.result(&sub.id).expect("result after cancel");
    assert!(result.ok, "completed cells still pass their self-check");
    if result.status == "canceled" {
        assert!(result.completed < 32, "a canceled run skipped at least one cell");
    } else {
        // The whole campaign may have outraced the cancel request.
        assert_eq!(result.status, "done");
        assert_eq!(result.completed, 32);
    }
    assert_eq!(lines.len() as u64, result.completed);

    // Canceling a finished campaign reports its final status.
    let again = client.cancel(&sub.id).expect("idempotent cancel");
    assert_eq!(again.status, result.status);

    // Unknown campaigns are a 404, like every other endpoint.
    match client.cancel("c999999") {
        Err(SdkError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
}

#[test]
fn invalid_specs_and_unknown_campaigns_are_client_errors() {
    let addr = spawn_server();
    let client = Client::new(addr).with_deadline(Duration::from_secs(60));

    let bad = CampaignSpec { kernels: vec!["nonesuch".to_owned()], ..four_cell_spec() };
    match client.submit(&bad) {
        Err(SdkError::Http { status: 400, body }) => {
            assert!(body.contains("nonesuch"), "error names the kernel: {body}");
        }
        other => panic!("expected 400, got {other:?}"),
    }

    match client.result("c999999") {
        Err(SdkError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
}

/// Reads one response off a raw connection: the status line, lowercased
/// headers, and the body its framing delimits (`Content-Length` or
/// chunked; a response without either fails the test).
fn read_response(conn: &mut impl BufRead) -> (String, Vec<(String, String)>, String) {
    let mut status = String::new();
    conn.read_line(&mut status).expect("status line");
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        conn.read_line(&mut h).expect("header");
        let Some((name, value)) = h.trim_end().split_once(':') else { break };
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let header = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
    let mut body = Vec::new();
    if header("transfer-encoding").as_deref() == Some("chunked") {
        loop {
            let mut size = String::new();
            conn.read_line(&mut size).expect("chunk size");
            let size = usize::from_str_radix(size.trim_end(), 16).expect("hex chunk size");
            let mut chunk = vec![0u8; size + 2];
            conn.read_exact(&mut chunk).expect("chunk");
            assert!(chunk.ends_with(b"\r\n"), "chunk not terminated");
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        let len = header("content-length").expect("framed response").parse().expect("length");
        body.resize(len, 0);
        conn.read_exact(&mut body).expect("body");
    }
    (status.trim_end().to_owned(), headers, String::from_utf8(body).expect("utf-8 body"))
}

fn raw_connection(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(300))).expect("read timeout");
    let reader = BufReader::new(conn.try_clone().expect("clone"));
    (conn, reader)
}

#[test]
fn one_connection_answers_back_to_back_requests_in_order() {
    let addr = spawn_server();
    let (mut conn, mut reader) = raw_connection(&addr);
    let spec = CampaignSpec {
        kernels: vec!["fac".to_owned()],
        staggers: vec![0],
        jobs: Some(1),
        ..four_cell_spec()
    };
    let local = service::run_spec(&spec, &RunOptions::default()).expect("local run");
    let spec = spec.canonical_json();

    // A submission and a health check in one write.
    let submit =
        format!("POST /v1/campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}", spec.len());
    conn.write_all(format!("{submit}GET /v1/healthz HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 201 Created");
    assert!(body.contains(r#""id":"c1""#), "{body}");
    assert!(headers.iter().all(|(n, _)| n != "connection"), "{headers:?}");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""status":"ok""#), "{body}");

    // The chunked event stream, then the result, in one write.
    conn.write_all(
        b"GET /v1/campaigns/c1/events HTTP/1.1\r\n\r\nGET /v1/campaigns/c1/result HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let (status, _, events) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(events.lines().collect::<Vec<_>>(), local.lines, "served stream differs");
    let (status, _, result) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(result.contains(r#""status":"done""#), "{result}");
}

#[test]
fn a_connection_ends_after_a_close_request_or_a_bad_one() {
    let addr = spawn_server();
    let (mut conn, mut reader) = raw_connection(&addr);
    conn.write_all(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let (status, headers, _) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains(&("connection".to_owned(), "close".to_owned())), "{headers:?}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after the response");
    assert!(rest.is_empty());

    // A request line without a path: a 400, then the connection ends.
    let (mut conn, mut reader) = raw_connection(&addr);
    conn.write_all(b"GET\r\n\r\n").unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("no path"), "{body}");
    assert!(headers.contains(&("connection".to_owned(), "close".to_owned())), "{headers:?}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after the 400");
    assert!(rest.is_empty());

    // A request head over the 16 KiB limit: a 400, then the connection
    // ends (the server may reset it, as the client's bytes go unread).
    let (mut conn, mut reader) = raw_connection(&addr);
    let filler = "x".repeat(17 * 1024);
    conn.write_all(format!("GET /v1/healthz HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n").as_bytes())
        .unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("too large"), "{body}");
    assert!(headers.contains(&("connection".to_owned(), "close".to_owned())), "{headers:?}");
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty());
}
