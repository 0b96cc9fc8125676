//! Differential serial-vs-parallel harness for the campaign engine.
//!
//! The engine's contract: campaign output is **byte-identical** regardless
//! of worker count or scheduling. These tests pin that contract by
//! rendering every user-visible artefact — Table I rows, text, JSON and
//! metric snapshots; CCF campaign records and metric snapshots — from a
//! serial baseline, a one-worker campaign-service run, and a four-worker
//! campaign-service run, and comparing the bytes, across two root seeds.

use safedm::tacle::kernels;
use safedm_bench::experiments::{
    ccf_metrics, json, render_table1, summarize_table1, table1, table1_metrics, table1_serial,
};
use safedm_bench::service::{run_spec, RunOptions};
use safedm_campaign::spec::{CampaignSpec, Protocol};
use safedm_faults::{run_injection, Campaign, CampaignConfig};

fn table1_kernels() -> Vec<&'static safedm::tacle::Kernel> {
    ["fac", "bitcount"].iter().map(|n| kernels::by_name(n).expect("kernel")).collect()
}

#[test]
fn table1_is_byte_identical_across_jobs_and_vs_serial() {
    let ks = table1_kernels();
    let dm = safedm::monitor::SafeDmConfig::default();
    for root_seed in [Some(1u64), Some(2u64)] {
        let serial = table1_serial(&ks, dm, root_seed);
        let jobs1 = table1(&ks, root_seed, 1);
        let jobs4 = table1(&ks, root_seed, 4);

        // Rows as rendered text.
        let render_serial = render_table1(&serial);
        assert_eq!(render_serial, render_table1(&jobs1), "root {root_seed:?}: jobs=1 vs serial");
        assert_eq!(render_serial, render_table1(&jobs4), "root {root_seed:?}: jobs=4 vs serial");

        // The full JSON document (rows + summary). Its `instructions` come
        // from an ISS run on the service path and from core 0's retired
        // count in the serial reference.
        let doc_serial = json::table1_document(&serial, &summarize_table1(&serial));
        let doc_jobs1 = json::table1_document(&jobs1, &summarize_table1(&jobs1));
        let doc_jobs4 = json::table1_document(&jobs4, &summarize_table1(&jobs4));
        assert_eq!(doc_serial, doc_jobs1, "root {root_seed:?}: JSON jobs=1 vs serial");
        assert_eq!(doc_serial, doc_jobs4, "root {root_seed:?}: JSON jobs=4 vs serial");

        // The merged metric snapshot.
        let snap_serial = table1_metrics(&serial).snapshot().to_json();
        let snap_jobs1 = table1_metrics(&jobs1).snapshot().to_json();
        let snap_jobs4 = table1_metrics(&jobs4).snapshot().to_json();
        assert_eq!(snap_serial, snap_jobs1, "root {root_seed:?}: metrics jobs=1 vs serial");
        assert_eq!(snap_serial, snap_jobs4, "root {root_seed:?}: metrics jobs=4 vs serial");
    }
}

#[test]
fn table1_legacy_seed_mode_matches_serial_protocol() {
    // root_seed = None reproduces the paper protocol's literal seeds; the
    // engine must not perturb the historical numbers either.
    let ks = table1_kernels();
    let dm = safedm::monitor::SafeDmConfig::default();
    let serial = table1_serial(&ks, dm, None);
    let jobs4 = table1(&ks, None, 4);
    assert_eq!(render_table1(&serial), render_table1(&jobs4));
}

#[test]
fn fast_engine_is_deterministic_across_jobs() {
    // The fast engine's counters are instruction-count proxies, not cycle
    // verdicts — but they still obey the campaign contract: byte-identical
    // output for any worker count.
    let spec = |jobs| CampaignSpec {
        protocol: Protocol::Table1,
        kernels: vec!["fac".to_owned(), "bitcount".to_owned()],
        root_seed: Some(1),
        engine: "fast".to_owned(),
        jobs: Some(jobs),
        ..CampaignSpec::default()
    };
    let run_1 = run_spec(&spec(1), &RunOptions::default()).expect("valid spec");
    let run_4 = run_spec(&spec(4), &RunOptions::default()).expect("valid spec");
    let counters = |events: &[safedm::obs::events::CellEvent]| {
        events
            .iter()
            .map(|e| safedm::obs::events::CellEvent { wall_us: None, ..e.clone() })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counters(&run_1.events),
        counters(&run_4.events),
        "fast engine: jobs=1 vs jobs=4 events"
    );
    assert_eq!(run_1.lines, run_4.lines, "fast engine: event streams");
    // Every cell still passes its checksum self-check on the fast engine.
    assert!(run_1.events.iter().all(|e| e.ok), "fast engine failed a checksum");
}

#[test]
fn ccf_campaign_is_byte_identical_across_jobs_and_vs_serial() {
    let kernel = kernels::by_name("fac").expect("kernel");
    for seed in [9u64, 77] {
        let cfg = CampaignConfig { trials: 8, seed, max_cycle: 8_000, ..CampaignConfig::default() };
        let campaign = Campaign::new(cfg);

        // Serial baseline: the historical loop — draw, inject, fold, one
        // trial at a time, no engine involved.
        let prog =
            safedm::tacle::build_kernel_program(kernel, &safedm::tacle::HarnessConfig::default());
        let golden = (kernel.reference)();
        let records: Vec<_> = campaign
            .planned_faults()
            .into_iter()
            .map(|fault| run_injection(&prog, golden, fault, cfg.max_cycles))
            .collect();
        let serial = Campaign::stats_from_records(records);

        let jobs1 = campaign.run_jobs(kernel, 1);
        let jobs4 = campaign.run_jobs(kernel, 4);
        assert_eq!(serial, jobs1, "seed {seed}: jobs=1 vs serial");
        assert_eq!(serial, jobs4, "seed {seed}: jobs=4 vs serial");
        assert_eq!(serial.records, jobs4.records, "seed {seed}: per-trial records");

        // Metric snapshots rendered from the stats.
        let snap_serial = ccf_metrics(&[("fac", &serial)]).snapshot().to_json();
        let snap_jobs4 = ccf_metrics(&[("fac", &jobs4)]).snapshot().to_json();
        assert_eq!(snap_serial, snap_jobs4, "seed {seed}: metric snapshot");
    }
}
