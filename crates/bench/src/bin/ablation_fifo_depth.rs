//! **Ablation A1**: sensitivity of the Data-Signature FIFO depth *n*
//! (paper, Section III-B1: "the size of n depends on the depth of the
//! processor pipeline").
//!
//! A deeper FIFO remembers more port history, so one divergent value
//! suppresses the no-diversity flag for longer — fewer flagged cycles — at
//! a linear area cost. The sweep quantifies that trade-off.
//!
//! Usage: `cargo run -p safedm-bench --bin ablation_fifo_depth --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, run_monitored, Telemetry};
use safedm_core::SafeDmConfig;
use safedm_power::estimate_area;
use safedm_soc::Engine;
use safedm_tacle::kernels;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let names = ["fac", "iir", "bitcount", "md5"];
    let depths = [1usize, 2, 4, 8, 12, 16];

    // One campaign cell per (depth, kernel); ordered collection keeps the
    // table identical for any --jobs N.
    let cells: Vec<(usize, &str)> =
        depths.iter().flat_map(|&d| names.iter().map(move |&n| (d, n))).collect();
    let runs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |&(_, name)| name.to_owned(),
        |_, &(depth, name)| {
            let cfg = SafeDmConfig { data_fifo_depth: depth, ..SafeDmConfig::default() };
            let k = kernels::by_name(name).expect("kernel");
            let r = run_monitored(k, None, 0, cfg);
            assert!(r.checksum_ok);
            r
        },
        |index, &(depth, _), r| r.event(index, &format!("fifo={depth}"), Engine::Cycle, 0),
    );
    let no_divs: Vec<u64> = runs.iter().map(|r| r.no_div).collect();

    let mut rows = String::new();
    let mut per_depth: Vec<Vec<u64>> = Vec::new();
    for (i, depth) in depths.iter().enumerate() {
        let cfg = SafeDmConfig { data_fifo_depth: *depth, ..SafeDmConfig::default() };
        let area = estimate_area(&cfg);
        let _ =
            write!(rows, "{:>4} {:>9} {:>7.2}", depth, area.total_luts, area.percent_of_baseline);
        let row: Vec<u64> = no_divs[i * names.len()..(i + 1) * names.len()].to_vec();
        for nd in &row {
            let _ = write!(rows, " {:>10}", nd);
        }
        let _ = writeln!(rows);
        per_depth.push(row);
    }

    println!("ABLATION A1: data-FIFO depth n vs no-diversity cycles and area");
    println!();
    print!("{:>4} {:>9} {:>7}", "n", "LUTs", "%SoC");
    for n in names {
        print!(" {:>10}", n);
    }
    println!("   (no-div cycles, 0-nop runs)");
    print!("{rows}");

    // Deeper FIFOs can only extend the protection window: no-div counts
    // must be non-increasing in n (each divergent sample lives n cycles).
    let mut monotone = true;
    for col in 0..names.len() {
        for w in per_depth.windows(2) {
            if w[1][col] > w[0][col] {
                monotone = false;
            }
        }
    }
    println!();
    println!("no-div non-increasing in n: {monotone}");
}
