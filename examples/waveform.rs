//! Dump a cycle-accurate waveform of both cores plus the SafeDM verdict
//! lines — the model's equivalent of the paper's Modelsim inspection
//! (Section V-A). Open the result in GTKWave/Surfer.
//!
//! ```text
//! cargo run --release --example waveform [-- kernel [nops]]
//! # writes safedm_trace.vcd in the working directory
//! ```

use safedm::monitor::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm::soc::{ProbeVcd, SocConfig};
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig, StaggerConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kernel_name = args.get(1).map_or("fac", String::as_str);
    let nops: usize = args.get(2).map_or(0, |v| v.parse().expect("nops"));

    let kernel = kernels::by_name(kernel_name).expect("unknown kernel");
    let stagger = (nops > 0).then_some(StaggerConfig { nops, delayed_core: 1 });
    let prog = build_kernel_program(kernel, &HarnessConfig { stagger, ..HarnessConfig::default() });

    let mut sys = MonitoredSoc::new(
        SocConfig::default(),
        SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() },
    );
    sys.load_program(&prog);

    let mut vcd = ProbeVcd::new(2, "safedm_mpsoc");
    let ch_ds = vcd.add_channel("monitor.ds_match", 1);
    let ch_is = vcd.add_channel("monitor.is_match", 1);
    let ch_nd = vcd.add_channel("monitor.no_diversity", 1);
    let ch_diff = vcd.add_channel("monitor.instr_diff", 64);

    // Record the first few thousand cycles (the interesting window: boot
    // lockstep, first divergence).
    sys.run_with(4_000, |sys, report| {
        vcd.set_channel(ch_ds, u64::from(report.ds_match));
        vcd.set_channel(ch_is, u64::from(report.is_match));
        vcd.set_channel(ch_nd, u64::from(report.no_diversity));
        vcd.set_channel(ch_diff, sys.monitor().instruction_diff().value() as u64);
        let (p0, p1) = (*sys.soc().probe(0), *sys.soc().probe(1));
        vcd.sample(&[&p0, &p1]);
    });

    let cycles = vcd.cycles();
    let path = std::path::Path::new("safedm_trace.vcd");
    vcd.write_to(path).expect("write vcd");
    println!("wrote {} ({} cycles of 2 cores + monitor verdicts)", path.display(), cycles);
    println!("open it with: gtkwave {}", path.display());
}
