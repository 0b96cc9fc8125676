//! **Ablation A3**: bus arbitration policy and natural diversity.
//!
//! The paper credits serialisation at shared resources for natural
//! diversity ("one core is granted access first", Section V-C). The
//! arbiter's *policy* shapes that serialisation: fair round-robin spreads
//! the lead between the cores; fixed priority systematically favours
//! core 0, biasing which core leads but still breaking lockstep. This sweep
//! quantifies the effect on the Table I metrics.
//!
//! Usage: `cargo run -p safedm-bench --bin ablation_arbitration --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use std::fmt::Write as _;

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, Telemetry};
use safedm_core::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm_obs::events::CellEvent;
use safedm_soc::{ArbitrationPolicy, SocConfig};
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

struct RunOut {
    zero_stag: u64,
    no_div: u64,
    cycles: u64,
    bias: i64,
    observed: u64,
    episodes: u64,
}

fn run(name: &str, policy: ArbitrationPolicy) -> RunOut {
    let k = kernels::by_name(name).expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let soc_cfg = SocConfig { arbitration: policy, ..SocConfig::default() };
    let mut sys = MonitoredSoc::new(
        soc_cfg,
        SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() },
    );
    sys.load_program(&prog);
    // Which core led (positive diff = core 0 ahead)? Cycles core 0 led
    // minus cycles core 1 led.
    let mut bias = 0i64;
    let out = sys.run_with(200_000_000, |sys, _| {
        bias += sys.monitor().instruction_diff().value().signum();
    });
    assert!(out.run.all_clean(), "{name}: {:?}", out.run.exits);
    RunOut {
        zero_stag: out.zero_stag_cycles,
        no_div: out.no_div_cycles,
        cycles: out.run.cycles,
        bias,
        observed: out.cycles_observed,
        episodes: sys.monitor().no_diversity_history().total_episodes(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    let names = ["bitcount", "fac", "insertsort", "quicksort", "lms"];
    // One campaign cell per (kernel, policy); ordered collection keeps the
    // table identical for any --jobs N.
    let cells: Vec<(&str, ArbitrationPolicy)> = names
        .iter()
        .flat_map(|&n| [(n, ArbitrationPolicy::RoundRobin), (n, ArbitrationPolicy::FixedPriority)])
        .collect();
    let outs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        &cells,
        |&(name, _)| name.to_owned(),
        |_, &(name, policy)| run(name, policy),
        |index, &(name, policy), r| CellEvent {
            index,
            kernel: name.to_owned(),
            config: format!("arb={policy:?}"),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 0,
            cycles: r.cycles,
            guarded: r.observed,
            zero_stag: r.zero_stag,
            no_div: r.no_div,
            episodes: r.episodes,
            violations: 0,
            ok: true,
            wall_us: None,
        },
    );
    let mut rows = String::new();
    for (i, name) in names.iter().enumerate() {
        let rr = &outs[2 * i];
        let fp = &outs[2 * i + 1];
        let _ = writeln!(
            rows,
            "{:<12} | {:>10} {:>8} {:>10} | {:>10} {:>8} {:>10}",
            name, rr.zero_stag, rr.no_div, rr.bias, fp.zero_stag, fp.no_div, fp.bias
        );
    }
    println!("ABLATION A3: bus arbitration policy vs natural diversity");
    println!();
    println!(
        "{:<12} | {:>10} {:>8} {:>10} | {:>10} {:>8} {:>10}",
        "", "round-robin", "", "", "fixed-prio", "", ""
    );
    println!(
        "{:<12} | {:>10} {:>8} {:>10} | {:>10} {:>8} {:>10}",
        "benchmark", "zero-stag", "no-div", "lead-bias", "zero-stag", "no-div", "lead-bias"
    );
    print!("{rows}");
    println!();
    println!(
        "lead-bias = (cycles core 0 led) − (cycles core 1 led): fixed priority\n\
         pushes the bias towards core 0, while both policies break lockstep —\n\
         natural diversity does not depend on arbiter fairness, only on\n\
         serialisation existing at all."
    );
}
