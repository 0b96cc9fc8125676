//! Compares the **static diversity analyzer** against the **runtime
//! monitor**: per TACLe kernel, what the lints predict vs. what SafeDM
//! measures at stagger 0, plus a set of synthetic hazard programs whose
//! guaranteed (DIV001/DIV002) findings are cross-validated by the pre-run
//! gate.
//!
//! Exits non-zero if any guaranteed prediction is refuted (a false
//! "guaranteed" — the acceptance criterion of the analyzer).
//!
//! Both the kernel comparison and the synthetic-hazard cross-validation run
//! on the `safedm-campaign` pool with ordered collection: output is
//! identical for any `--jobs N`.
//!
//! Usage: `cargo run -p safedm-bench --bin static_vs_dynamic --release
//! [--quick] [--jobs N] [--events-out PATH] [--events-timing] [--progress]`
//!
//! `--events-out` records the per-kernel gate campaign (the synthetic
//! hazard cross-validation is a fixed smoke set and stays out of the
//! stream).

use safedm_analysis::{analyze, AnalysisConfig, DiversityGate, LintCode};
use safedm_bench::args;
use safedm_bench::experiments::{
    gate_hazards, run_cells_with_telemetry, run_gated, Telemetry, RUN_BUDGET,
};
use safedm_campaign::par_map;
use safedm_obs::events::CellEvent;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

fn count(gate: &DiversityGate, code: LintCode) -> usize {
    gate.report().diagnostics.iter().filter(|d| d.code == code).count()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args::flag(&args, "--quick");
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);

    let all = kernels::all();
    let selected: Vec<&safedm_tacle::Kernel> = if quick {
        all.iter()
            .filter(|k| ["bitcount", "fac", "prime", "fft", "iir"].contains(&k.name))
            .collect()
    } else {
        all.iter().collect()
    };

    // One campaign cell per kernel; each returns its rendered row plus the
    // two verdict bits the summary needs.
    let kernel_cells = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &selected,
        |k| k.name.to_owned(),
        |_, k| {
            let prog = build_kernel_program(k, &HarnessConfig::default());
            let (out, gate) =
                run_gated(&prog, analyze(&prog, &AnalysisConfig::default()), RUN_BUDGET);
            assert!(!out.run.timed_out, "{}: kernel run timed out", k.name);
            let report = gate.report();
            let has_diags = !report.diagnostics.is_empty();
            let ok = gate.all_confirmed();
            let row = format!(
                "{:<18} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}  {}\n",
                k.name,
                report.cfg.loops.len(),
                count(&gate, LintCode::Div001),
                count(&gate, LintCode::Div002),
                count(&gate, LintCode::Div003),
                out.no_div_cycles,
                out.cycles_observed,
                if ok { "ok" } else { "REFUTED" }
            );
            (
                row,
                has_diags,
                ok,
                out.run.cycles,
                out.zero_stag_cycles,
                out.no_div_cycles,
                out.cycles_observed,
            )
        },
        |index, k, &(_, _, ok, cycles, zero_stag, no_div, observed)| CellEvent {
            index,
            kernel: k.name.to_owned(),
            config: "gate".to_owned(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 0,
            cycles,
            guarded: observed,
            zero_stag,
            no_div,
            episodes: 0,
            violations: u64::from(!ok),
            ok,
            wall_us: None,
        },
    );

    let mut refuted = 0usize;
    let mut kernels_with_diags = 0usize;
    let mut kernel_rows = String::new();
    for (row, has_diags, ok, ..) in kernel_cells {
        kernel_rows.push_str(&row);
        if has_diags {
            kernels_with_diags += 1;
        }
        if !ok {
            refuted += 1;
        }
    }

    let hazards = gate_hazards();
    let synth_cells = par_map(jobs, &hazards, |_, (name, prog)| {
        let (out, gate) = run_gated(prog, analyze(prog, &AnalysisConfig::default()), 100_000);
        let guaranteed = gate.report().guaranteed_hazards().count();
        assert!(guaranteed > 0, "{name}: expected a guaranteed hazard");
        let ok = gate.all_confirmed();
        let executed = gate.executed_count();
        let row = format!(
            "  {:<20} guaranteed {:>2}  executed {:>2}  no-div {:>7}  {}\n",
            name,
            guaranteed,
            executed,
            out.no_div_cycles,
            if ok { "all confirmed" } else { "REFUTED" }
        );
        assert!(executed > 0, "{name}: no predicted region was executed");
        (row, ok)
    });

    let mut synth_rows = String::new();
    for (row, ok) in synth_cells {
        synth_rows.push_str(&row);
        if !ok {
            refuted += 1;
        }
    }

    println!("STATIC vs DYNAMIC: analyzer predictions against the monitor (stagger 0)");
    println!(
        "{:<18} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}  verdict",
        "program", "loops", "DIV001", "DIV002", "DIV003", "no-div", "observed"
    );
    print!("{kernel_rows}");
    println!("\nsynthetic guaranteed-hazard programs (gate cross-validation):");
    print!("{synth_rows}");
    println!("\nkernels with diagnostics: {kernels_with_diags}/{}", selected.len());
    if refuted > 0 {
        println!("FALSE GUARANTEED PREDICTIONS: {refuted}");
        std::process::exit(1);
    }
    println!("zero false guaranteed predictions");
}
