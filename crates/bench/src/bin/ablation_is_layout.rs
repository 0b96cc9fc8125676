//! **Ablation A2**: per-stage vs in-flight Instruction-Signature layout
//! (paper, Section III-B2).
//!
//! The per-stage layout distinguishes two cores that hold the *same*
//! instructions in *different* pipeline stages; the flat in-flight list
//! (the paper's fallback for cores without group advance) cannot, so it
//! reports **more** cycles without instruction diversity — extra false
//! positives the paper's design decision avoids.
//!
//! Usage: `cargo run -p safedm-bench --bin ablation_is_layout --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{
    dm_config_with_layout, run_cells_with_telemetry, run_monitored, Telemetry,
};
use safedm_core::IsLayout;
use safedm_soc::Engine;
use safedm_tacle::kernels;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let names = ["fac", "bitcount", "iir", "insertsort", "quicksort", "pm"];

    // One campaign cell per (kernel, layout); ordered collection keeps the
    // table identical for any --jobs N.
    let cells: Vec<(&str, IsLayout)> =
        names.iter().flat_map(|&n| [(n, IsLayout::PerStage), (n, IsLayout::InFlight)]).collect();
    let outs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |&(name, _)| name.to_owned(),
        |_, &(name, layout)| {
            let k = kernels::by_name(name).expect("kernel");
            run_monitored(k, None, 0, dm_config_with_layout(layout))
        },
        |index, &(_, layout), r| r.event(index, &format!("layout={layout:?}"), Engine::Cycle, 0),
    );

    let mut rows = String::new();
    let mut total_extra = 0i64;
    for (i, name) in names.iter().enumerate() {
        let ps = &outs[2 * i];
        let fl = &outs[2 * i + 1];
        assert!(ps.checksum_ok && fl.checksum_ok);
        let extra = fl.is_match as i64 - ps.is_match as i64;
        total_extra += extra;
        let _ = writeln!(
            rows,
            "{:<12} {:>14} {:>14} {:>12} {:>14} {:>14}",
            name, ps.is_match, fl.is_match, extra, ps.no_div, fl.no_div
        );
    }
    println!("ABLATION A2: Instruction-Signature layout (is-match cycles, 0-nop runs)");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>14} {:>14}",
        "benchmark", "per-stage IS", "in-flight IS", "extra", "no-div (ps)", "no-div (if)"
    );
    print!("{rows}");
    println!();
    println!(
        "the flat layout reports {total_extra} additional instruction-match cycles in total \
         (>= 0 expected: it is strictly coarser)"
    );
    assert!(total_extra >= 0, "in-flight layout cannot be finer than per-stage");
}
