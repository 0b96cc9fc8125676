//! Golden-file pinning of the Table I artefacts (the rendered text table
//! and the JSON document, for the legacy (paper-protocol) seed mode on two
//! small kernels), of the monitor's full counter state, of what the
//! per-cycle observers of a monitored run produce, and of every record of
//! a stage-latch fault campaign.
//!
//! These fixtures freeze the *bytes* a release tarball would ship — any
//! formatting drift, row reordering, or numeric change in the simulated
//! protocol shows up as a diff here. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test --test golden_experiments`.

use std::path::PathBuf;

use safedm::analysis::{analyze, prove, AnalysisConfig, SoundnessGuard};
use safedm::asm::{Asm, Program};
use safedm::faults::{Campaign, CampaignConfig};
use safedm::isa::Reg;
use safedm::monitor::{
    regs, IsLayout, MonitoredSoc, ObsConfig, ReportMode, RunObserver, SafeDmConfig, TraceSample,
};
use safedm::soc::SocConfig;
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig, StaggerConfig};
use safedm_bench::experiments::{
    gate_hazards, json, render_table1, run_guarded, summarize_table1, table1, RUN_BUDGET,
};

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

/// One monitored cell of the monitor-state golden, run as
/// `experiments::run_cell` runs a cycle-engine cell (memory jitter 2, seed
/// 1, polling mode), with the monitor held off until the first commit.
fn monitor_cell(prog: &Program, dm_cfg: SafeDmConfig) -> String {
    let soc_cfg = SocConfig { mem_jitter: 2, jitter_seed: 1, ..SocConfig::default() };
    let dm_cfg = SafeDmConfig { report_mode: ReportMode::Polling, ..dm_cfg };
    let mut sys = MonitoredSoc::new(soc_cfg, dm_cfg);
    sys.load_program(prog);
    sys.write_ctrl(0);
    while sys.soc().core(0).retired() == 0 && sys.soc().core(1).retired() == 0 {
        sys.step();
    }
    let seed_diff = sys.soc().core(0).retired() as i64 - sys.soc().core(1).retired() as i64;
    sys.monitor_mut().preset_diff(seed_diff);
    sys.write_ctrl(regs::enabled_ctrl(ReportMode::Polling));
    let out = sys.run(5_000_000);
    assert!(out.run.all_clean(), "cell must halt cleanly");
    let dm = sys.monitor();
    let c = dm.counters();
    let mut line = format!(
        "cycles={} observed={} ds_match={} is_match={} no_div={} zero_stag={} \
         max_no_div_run={} episodes(no_div,ds,is)=({},{},{}) no_div_bins={:?}",
        out.run.cycles,
        c.cycles_observed,
        c.ds_match_cycles,
        c.is_match_cycles,
        c.no_div_cycles,
        out.zero_stag_cycles,
        dm.max_no_div_run(),
        dm.no_diversity_history().total_episodes(),
        dm.ds_match_history().total_episodes(),
        dm.is_match_history().total_episodes(),
        dm.no_diversity_history().bins(),
    );
    if let Some(h) = dm.hamming_stats() {
        line += &format!(
            " hamming(ds_sum,is_sum,min,max,last)=({},{},{},{},{:?})",
            h.ds_sum, h.is_sum, h.min_total, h.max_total, h.last
        );
    }
    line
}

/// A line-stride read-modify-write stream over `bytes` of private data,
/// `passes` times: both cores stall on memory together, so most cycles are
/// joint holds.
fn stride_stream(bytes: u64, passes: i64) -> Program {
    let line = SocConfig::default().l1d.line_bytes;
    let mut a = Asm::new();
    a.li(Reg::T0, (SocConfig::default().ram_base + (4 << 20)) as i64);
    a.li(Reg::T2, passes);
    a.li(Reg::A0, 0);
    let outer = a.here("outer");
    a.mv(Reg::T3, Reg::T0);
    a.li(Reg::T4, (bytes / line) as i64);
    let inner = a.here("inner");
    a.ld(Reg::T5, 0, Reg::T3);
    a.addi(Reg::T5, Reg::T5, 3);
    a.sd(Reg::T5, 0, Reg::T3);
    a.add(Reg::A0, Reg::A0, Reg::T5);
    a.addi(Reg::T3, Reg::T3, line as i64);
    a.addi(Reg::T4, Reg::T4, -1);
    a.bnez(Reg::T4, inner);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, outer);
    a.ebreak();
    a.link(SocConfig::default().ram_base).expect("the stream assembles")
}

/// Every counter, episode total and history bin of the monitor over
/// kernel cells, a stall-heavy stream, and the FIFO-depth, IS-layout and
/// Hamming options: the monitor's whole observable state, pinned so that
/// a faster monitor must reproduce it exactly.
#[test]
fn monitor_counters_match_golden() {
    let kernel = |name: &str, nops: usize| {
        let stagger = (nops != 0).then_some(StaggerConfig { nops, delayed_core: 0 });
        let harness = HarnessConfig { stagger, ..HarnessConfig::default() };
        build_kernel_program(kernels::by_name(name).expect("kernel"), &harness)
    };
    let base = SafeDmConfig::default();
    let cells: Vec<(String, Program, SafeDmConfig)> = vec![
        ("fac nops=0".into(), kernel("fac", 0), base),
        ("fac nops=100".into(), kernel("fac", 100), base),
        ("bitcount nops=0".into(), kernel("bitcount", 0), base),
        ("bitcount nops=100".into(), kernel("bitcount", 100), base),
        (
            "stride_rmw 2xL1D".into(),
            stride_stream(2 * SocConfig::default().l1d.capacity(), 2),
            base,
        ),
        (
            "bitcount nops=0 depth=1".into(),
            kernel("bitcount", 0),
            SafeDmConfig { data_fifo_depth: 1, ..base },
        ),
        (
            "bitcount nops=0 depth=16".into(),
            kernel("bitcount", 0),
            SafeDmConfig { data_fifo_depth: 16, ..base },
        ),
        (
            "bitcount nops=100 in_flight".into(),
            kernel("bitcount", 100),
            SafeDmConfig { is_layout: IsLayout::InFlight, ..base },
        ),
        (
            "bitcount nops=0 hamming".into(),
            kernel("bitcount", 0),
            SafeDmConfig { track_hamming: true, ..base },
        ),
    ];
    // One thread per cell keeps the unoptimised test build quick.
    let lines: Vec<String> = std::thread::scope(|s| {
        let cells: Vec<_> = cells
            .iter()
            .map(|(name, prog, cfg)| {
                s.spawn(move || format!("{name}: {}", monitor_cell(prog, *cfg)))
            })
            .collect();
        cells.into_iter().map(|h| h.join().expect("cell thread")).collect()
    });
    check_golden("monitor_counters.txt", &(lines.join("\n") + "\n"));
}

/// FNV-1a over every field of every sample.
fn trace_digest(trace: &[TraceSample]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in trace {
        let flags = [s.zero_stagger, s.ds_match, s.is_match, s.no_diversity].map(u8::from);
        for b in s.cycle.to_le_bytes().into_iter().chain(s.diff.to_le_bytes()).chain(flags) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What the per-cycle observers of a monitored run produce: a
/// `RunObserver` metric snapshot (the `tests/observability.rs` run), the
/// soundness guard's per-region lines on four kernels and the three
/// `gate_hazards` programs, and a trace of `fac` at 0 nops.
#[test]
fn observers_match_golden() {
    let polling = SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() };
    let kernel = |name: &str| {
        build_kernel_program(kernels::by_name(name).expect("kernel"), &HarnessConfig::default())
    };

    let mut sys = MonitoredSoc::new(SocConfig::default(), polling);
    sys.load_program(&kernel("prime"));
    let mut obs = RunObserver::new(ObsConfig::default(), 2);
    sys.run_with(50_000, |sys, r| obs.on_cycle(sys.soc(), sys.monitor(), r));
    obs.finish(sys.soc(), sys.monitor());
    let mut text =
        format!("run observer, prime, 50000 cycles:\n{}\n", obs.metrics_snapshot().to_json());

    let mut gated: Vec<(&str, Program, u64)> = ["fac", "prime", "fft", "bitcount"]
        .into_iter()
        .map(|name| (name, kernel(name), RUN_BUDGET))
        .collect();
    gated.extend(gate_hazards().into_iter().map(|(name, prog)| (name, prog, 100_000)));
    for (name, prog, budget) in &gated {
        let report = analyze(prog, &AnalysisConfig::default());
        let proof = prove(&report.program, &report.cfg, &report.config);
        let mut guard = SoundnessGuard::new(&proof, report.config.fifo_depth);
        run_guarded(prog, &mut guard, *budget);
        text += &format!("gate, {name}:\n{}", guard.summary());
    }

    let mut sys = MonitoredSoc::new(SocConfig::default(), polling);
    sys.load_program(&kernel("fac"));
    let mut trace = Vec::new();
    sys.run_with(RUN_BUDGET, |sys, r| trace.push(TraceSample::new(sys, r)));
    text += &format!(
        "trace, fac, 0 nops: {} samples, digest {:#018x}\n",
        trace.len(),
        trace_digest(&trace)
    );
    check_golden("observers.txt", &text);
}

/// Every record of the default (stage-latch) common-cause campaign on two
/// kernels: each fault flips a `(stage, slot)` result latch, so the
/// records pin where the pipeline holds each instruction, cycle by cycle.
#[test]
fn stage_latch_campaign_matches_golden() {
    let cfg =
        CampaignConfig { trials: 16, seed: 2024, max_cycle: 8_000, ..CampaignConfig::default() };
    let lines: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = ["fac", "bitcount"]
            .into_iter()
            .map(|name| {
                s.spawn(move || {
                    let stats = Campaign::new(cfg).run(kernels::by_name(name).expect("kernel"));
                    stats.records.iter().map(|r| format!("{name}: {r:?}\n")).collect::<String>()
                })
            })
            .collect();
        runs.into_iter().map(|h| h.join().expect("campaign thread")).collect()
    });
    check_golden("stage_latch_campaign.txt", &lines.concat());
}
