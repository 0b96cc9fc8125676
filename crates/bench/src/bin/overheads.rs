//! Regenerates the **Section V-D overheads**: SafeDM area (LUTs, % of the
//! MPSoC) and power (W, % of baseline), plus a configuration sweep showing
//! how the costs scale with the data-FIFO depth.
//!
//! Usage: `cargo run -p safedm-bench --bin overheads --release`

use safedm_bench::experiments::run_monitored;
use safedm_core::SafeDmConfig;
use safedm_power::{estimate_area, estimate_power, Activity, BASELINE_LUTS, BASELINE_POWER_W};
use safedm_tacle::kernels;

fn main() {
    let cfg = SafeDmConfig::default();
    let area = estimate_area(&cfg);

    // Derive switching activity from a real monitored run.
    let k = kernels::by_name("bitcount").expect("kernel exists");
    let run = run_monitored(k, None, 0, cfg);
    assert!(run.checksum_ok);
    let activity = Activity::from_run(run.cycles, run.cycles - run.observed.min(run.cycles));
    let power = estimate_power(&cfg, activity);

    println!("SECTION V-D: SafeDM overheads (structural model, calibrated)");
    println!();
    println!("  paper:  4000 LUTs   (3.4% of MPSoC)    0.019 W (<1% of >2 W)");
    println!(
        "  model:  {:>4} LUTs   ({:.1}% of {} LUTs)   {:.3} W ({:.2}% of {} W)",
        area.total_luts,
        area.percent_of_baseline,
        BASELINE_LUTS,
        power.total_w,
        power.percent_of_baseline,
        BASELINE_POWER_W,
    );
    println!();
    println!("  breakdown:");
    println!(
        "    signature storage : {:>5} LUTs ({} DS bits + {} IS bits)",
        area.storage_luts, area.ds_bits, area.is_bits
    );
    println!(
        "    comparators       : {:>5} LUTs ({} compared bits)",
        area.compare_luts, area.cmp_bits
    );
    println!("    APB/control       : {:>5} LUTs", area.control_luts);
    println!("    flip-flops        : {:>5}", area.total_ffs);
    println!();
    println!("  activity from run: shift fraction {:.2}", activity.shift_fraction);
    println!();
    println!("  FIFO-depth sweep (ablation A1 cost axis):");
    println!("    {:>5} {:>10} {:>8} {:>10}", "n", "LUTs", "%SoC", "power(W)");
    for n in [1usize, 2, 4, 8, 12, 16] {
        let c = SafeDmConfig { data_fifo_depth: n, ..SafeDmConfig::default() };
        let a = estimate_area(&c);
        let p = estimate_power(&c, activity);
        println!(
            "    {:>5} {:>10} {:>8.2} {:>10.4}",
            n, a.total_luts, a.percent_of_baseline, p.total_w
        );
    }
}
