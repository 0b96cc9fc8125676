//! **Ablation A4**: mirrored vs per-hart address spaces.
//!
//! The paper observes that software-created redundant threads "have
//! different address spaces ... whenever an address is read and/or
//! operated, the actual address differs, hence bringing some diversity"
//! (Section V-C). The harness can run both ways: `Mirrored` (both copies at
//! identical addresses — the diversity-scarce stress case) and `PerHart`
//! (each hart's stack offset by 64 KiB — the software-replication case).
//! Per-hart layouts should slash the no-diversity counts for every
//! stack-using kernel, with zero-staggering barely affected (address
//! diversity is data diversity, not timing).
//!
//! Usage: `cargo run -p safedm-bench --bin ablation_stack_mode --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, run_monitored_cfg, Telemetry};
use safedm_core::SafeDmConfig;
use safedm_soc::Engine;
use safedm_tacle::{kernels, HarnessConfig, StackMode};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    // Stack-using kernels (calls / explicit work stacks) versus controls
    // whose data lives only in mirrored tables or registers.
    let stack_users = ["fac", "recursion", "quicksort"];
    let controls = ["md5", "prime"];
    let names: Vec<&str> = stack_users.iter().chain(&controls).copied().collect();

    // One campaign cell per (kernel, stack mode); ordered collection keeps
    // the table identical for any --jobs N.
    let cells: Vec<(&str, StackMode)> =
        names.iter().flat_map(|&n| [(n, StackMode::Mirrored), (n, StackMode::PerHart)]).collect();
    let outs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |&(name, _)| name.to_owned(),
        |_, &(name, stack)| {
            let k = kernels::by_name(name).expect("kernel");
            run_monitored_cfg(k, HarnessConfig { stagger: None, stack }, 0, SafeDmConfig::default())
        },
        |index, &(_, stack), r| r.event(index, &format!("stack={stack:?}"), Engine::Cycle, 0),
    );

    let mut rows = String::new();
    for (i, &name) in names.iter().enumerate() {
        let mirrored = &outs[2 * i];
        let per_hart = &outs[2 * i + 1];
        assert!(mirrored.checksum_ok && per_hart.checksum_ok, "{name}");
        let _ = writeln!(
            rows,
            "{:<12} | {:>10} {:>8} | {:>10} {:>8}",
            name, mirrored.zero_stag, mirrored.no_div, per_hart.zero_stag, per_hart.no_div
        );
        if stack_users.contains(&name) {
            assert!(
                per_hart.no_div * 2 < mirrored.no_div,
                "{name}: address diversity must slash no-div ({} vs {})",
                per_hart.no_div,
                mirrored.no_div
            );
        }
    }
    println!("ABLATION A4: mirrored vs per-hart address spaces (0-nop runs)");
    println!();
    println!("{:<12} | {:>10} {:>8} | {:>10} {:>8}", "", "mirrored", "", "per-hart", "");
    println!(
        "{:<12} | {:>10} {:>8} | {:>10} {:>8}",
        "benchmark", "zero-stag", "no-div", "zero-stag", "no-div"
    );
    print!("{rows}");
    println!();
    println!(
        "distinct address spaces put different values on the register ports\n\
         (pointers, spilled addresses) — the DS differs even in cycle\n\
         lockstep, the paper's software-replication argument. The controls\n\
         (`md5`, `prime`) are unaffected: their data never involves the stack."
    );
}
