//! Golden-file pinning of the Table I artefacts: the rendered text table
//! and the JSON document, for the legacy (paper-protocol) seed mode on two
//! small kernels.
//!
//! These fixtures freeze the *bytes* a release tarball would ship — any
//! formatting drift, row reordering, or numeric change in the simulated
//! protocol shows up as a diff here. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test --test golden_experiments`.

use std::path::PathBuf;

use safedm::tacle::kernels;
use safedm_bench::experiments::{json, render_table1, summarize_table1, table1};

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
            "missing golden fixture {}: {e}\n(run `BLESS_GOLDEN=1 cargo test --test \
             golden_experiments` to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture\n(if the change is intentional, regenerate with \
         `BLESS_GOLDEN=1 cargo test --test golden_experiments`)"
    );
}

fn rows() -> &'static [safedm_bench::experiments::Table1Row] {
    static ROWS: std::sync::OnceLock<Vec<safedm_bench::experiments::Table1Row>> =
        std::sync::OnceLock::new();
    ROWS.get_or_init(|| {
        let ks: Vec<&safedm::tacle::Kernel> =
            ["fac", "bitcount"].iter().map(|n| kernels::by_name(n).expect("kernel")).collect();
        table1(&ks, None, 1)
    })
}

#[test]
fn table1_render_matches_golden() {
    check_golden("table1_render.txt", &render_table1(rows()));
}

#[test]
fn table1_json_document_matches_golden() {
    let rows = rows();
    let summary = summarize_table1(rows);
    check_golden("table1_document.json", &json::table1_document(rows, &summary));
}
