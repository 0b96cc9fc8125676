//! Integration tests of the campaign telemetry pipeline: property-based
//! round-trips of the event JSONL codec (including cycle counts past
//! 2^53, where a float-only JSON layer would corrupt them), byte-identity
//! of the event stream across worker counts, HTML report structure, and a
//! golden pin of the terminal report sections.
//!
//! Regenerate the golden fixture deliberately with
//! `BLESS_GOLDEN=1 cargo test --test telemetry`.

use std::path::PathBuf;

use proptest::prelude::*;
use safedm::monitor::SafeDmConfig;
use safedm::obs::aggregate::{heatmap, slowest_cells, summarize_by_kernel};
use safedm::obs::events::{parse_jsonl, to_jsonl, CellEvent, Timing};
use safedm::obs::report::{
    html_escape, html_heatmap, html_page, render_heatmap, render_kernel_table, render_slowest,
};
use safedm::tacle::kernels;
use safedm_bench::experiments::{table1_cells, table1_events, table1_run_cells};
use safedm_soc::Engine;

/// A strategy over arbitrary event records: adversarial counter values
/// (the full `u64` range) on a small vocabulary of kernel/config names.
fn any_event() -> impl Strategy<Value = CellEvent> {
    (
        (any::<u64>(), 0usize..4, 0usize..3),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::bool::weighted(0.5),
        proptest::bool::weighted(0.5),
        any::<u64>(),
    )
        .prop_map(|((index, ki, ci), a, b, ok, timed, wall)| {
            let kernel = ["fac", "bitcount", "pm", "md5"][ki].to_owned();
            let config = ["nops=0", "nops=100", "fifo=8"][ci].to_owned();
            CellEvent {
                index,
                kernel,
                config,
                engine: "cycle".to_owned(),
                run: a.0,
                seed: a.1,
                cycles: a.2,
                guarded: a.3,
                zero_stag: b.0,
                no_div: b.1,
                episodes: b.2,
                violations: b.3,
                ok,
                wall_us: timed.then_some(wall),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keep-timing serialisation is lossless for any event stream,
    /// including counters past 2^53 that would round under an f64 codec.
    #[test]
    fn event_jsonl_round_trips_losslessly(
        events in proptest::collection::vec(any_event(), 0..20)
    ) {
        let text = to_jsonl(&events, Timing::Keep);
        let back = parse_jsonl(&text).expect("round-trip parse");
        prop_assert_eq!(&back, &events);
    }

    /// Strip-timing serialisation round-trips everything except
    /// `wall_us`, which must come back as `None` for every cell.
    #[test]
    fn stripped_jsonl_round_trips_modulo_timing(
        events in proptest::collection::vec(any_event(), 0..20)
    ) {
        let text = to_jsonl(&events, Timing::Strip);
        let back = parse_jsonl(&text).expect("round-trip parse");
        prop_assert_eq!(back.len(), events.len());
        for (b, e) in back.iter().zip(&events) {
            prop_assert_eq!(b.wall_us, None);
            let mut stripped = e.clone();
            stripped.wall_us = None;
            prop_assert_eq!(b, &stripped);
        }
    }
}

#[test]
fn empty_campaign_serializes_to_empty_stream() {
    assert_eq!(to_jsonl(&[], Timing::Keep), "");
    assert_eq!(parse_jsonl("").expect("empty stream"), Vec::<CellEvent>::new());
    assert_eq!(parse_jsonl("\n\n").expect("blank lines"), Vec::<CellEvent>::new());
}

#[test]
fn parse_errors_name_the_line() {
    let err = parse_jsonl("{\"index\":0}\nnot json\n").expect_err("malformed");
    assert!(err.starts_with("line 1:"), "first bad line wins: {err}");
}

/// The tentpole determinism claim, at the library layer: the serialized
/// event stream of a Table-I-protocol campaign is byte-identical for
/// every worker count once timing is stripped.
#[test]
fn event_stream_is_byte_identical_across_jobs() {
    let ks: Vec<&safedm::tacle::Kernel> =
        ["fac", "bitcount"].iter().map(|n| kernels::by_name(n).expect("kernel")).collect();
    let dm = SafeDmConfig::default();
    let cells = table1_cells(&ks, Some(7));
    let (runs1, times1) = table1_run_cells(&cells, dm, 1, None, Engine::Cycle);
    let (runs4, times4) = table1_run_cells(&cells, dm, 4, None, Engine::Cycle);
    let stream1 = to_jsonl(&table1_events(&cells, &runs1, &times1, Engine::Cycle), Timing::Strip);
    let stream4 = to_jsonl(&table1_events(&cells, &runs4, &times4, Engine::Cycle), Timing::Strip);
    assert!(!stream1.is_empty());
    assert_eq!(stream1, stream4, "event stream differs between --jobs 1 and --jobs 4");
}

/// A small synthetic event stream with fixed counters: machine-independent
/// input for the golden report fixture below.
fn fixture_events() -> Vec<CellEvent> {
    let mut events = Vec::new();
    for (i, (kernel, config, cycles, no_div, episodes, wall)) in [
        ("fac", "nops=0", 66_581u64, 383u64, 7u64, 1_200u64),
        ("fac", "nops=100", 66_774, 49, 1, 900),
        ("bitcount", "nops=0", 46_570, 354, 3, 700),
        ("bitcount", "nops=100", 46_726, 12, 1, 2_400),
    ]
    .into_iter()
    .enumerate()
    {
        events.push(CellEvent {
            index: i as u64,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 1000 + i as u64,
            cycles,
            guarded: cycles - 40,
            zero_stag: no_div + 50,
            no_div,
            episodes,
            violations: 0,
            ok: true,
            wall_us: Some(wall),
        });
    }
    events
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n(run `BLESS_GOLDEN=1 cargo test --test telemetry` \
             to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture\n(if the change is intentional, regenerate with \
         `BLESS_GOLDEN=1 cargo test --test telemetry`)"
    );
}

/// Pins the terminal rendering of every machine-independent report
/// section (the synthetic fixture has fixed wall-clocks, so even the
/// slowest-cells table is stable).
#[test]
fn report_sections_match_golden() {
    let events = fixture_events();
    let mut doc = String::new();
    doc.push_str(&render_kernel_table(&summarize_by_kernel(&events)));
    doc.push('\n');
    doc.push_str(&render_heatmap(&heatmap(&events)));
    doc.push('\n');
    doc.push_str(&render_slowest(&slowest_cells(&events, 3)));
    check_golden("report_summary.txt", &doc);
}

#[test]
fn html_report_is_a_self_contained_page() {
    let events = fixture_events();
    let sections = vec![
        ("No-diversity heatmap".to_owned(), html_heatmap(&heatmap(&events))),
        ("A <script> title".to_owned(), "<pre>body</pre>".to_owned()),
    ];
    let page = html_page("SafeDM campaign report", &sections);
    assert!(page.starts_with("<!DOCTYPE html>"), "self-contained page");
    assert!(page.contains("<style>"), "inline CSS, no external assets");
    assert!(!page.contains("http://") && !page.contains("https://"), "no external references");
    assert!(page.contains("A &lt;script&gt; title"), "section titles are escaped");
    for kernel in ["fac", "bitcount"] {
        assert!(page.contains(kernel), "heatmap row for {kernel}");
    }
    assert_eq!(html_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
}
