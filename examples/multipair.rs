//! Two redundant pairs on a 4-core MPSoC, each with its own SafeDM
//! instance — the deployment shape of the De-RISC space platform the paper
//! integrates into (Fig. 3 shows four NOEL-V cores).
//!
//! ```text
//! cargo run --release --example multipair
//! ```

use safedm::monitor::regs::regmap;
use safedm::monitor::{MonitoredSoc, SafeDmConfig};
use safedm::soc::SocConfig;
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig};

fn main() {
    let soc_cfg = SocConfig { cores: 4, ..SocConfig::default() };

    let mut sys = MonitoredSoc::with_pairs(soc_cfg, SafeDmConfig::default(), &[(0, 1), (2, 3)]);

    let kernel = kernels::by_name("quicksort").expect("kernel exists");
    let prog = build_kernel_program(kernel, &HarnessConfig::default());
    sys.load_program(&prog);

    let out = sys.run(200_000_000).run;
    assert!(out.all_clean(), "{:?}", out.exits);

    let golden = (kernel.reference)();
    for core in 0..4 {
        assert_eq!(sys.soc().core(core).reg(safedm::isa::Reg::A0), golden, "core {core}");
    }

    println!("kernel: {} on 4 cores, two monitored pairs", kernel.name);
    println!("cycles: {}", out.cycles);
    println!();
    println!("{:>6} {:>10} {:>10} {:>10} {:>8}", "pair", "observed", "zero-stag", "no-div", "irq");
    for i in 0..sys.pair_count() {
        let ((a, b), _, bank) = sys.pair(i);
        println!(
            "({a},{b})  {:>10} {:>10} {:>10} {:>8}",
            bank.reg(regmap::CYCLES_OBSERVED),
            bank.reg(regmap::ZERO_STAG_CYCLES),
            bank.reg(regmap::NO_DIV_CYCLES),
            bank.reg(regmap::STATUS) & 1 != 0,
        );
    }
    println!();
    println!(
        "four cores contending on one bus give each pair a *different*\n\
         serialisation history — the pairs' diversity statistics diverge,\n\
         which is exactly why each pair needs its own monitor. Each SafeDM\n\
         lives at its own APB bank ({:#x} apart).",
        MonitoredSoc::BANK_STRIDE
    );
}
