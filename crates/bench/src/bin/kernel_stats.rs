//! Workload characterisation: dynamic instruction mix, cycle counts and IPC
//! for every Table I kernel — the context table for interpreting the
//! diversity results (memory-rich kernels diverge early; register-pure ones
//! stay in lockstep).
//!
//! Usage: `cargo run -p safedm-bench --bin kernel_stats --release
//! [--jobs N] [--events-out PATH] [--events-timing] [--progress]`

use safedm_bench::args;
use safedm_bench::experiments::{run_cells_with_telemetry, Telemetry};
use safedm_isa::Inst;
use safedm_obs::events::CellEvent;
use safedm_soc::{Iss, MpSoc, SocConfig};
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

#[derive(Default)]
struct Mix {
    total: u64,
    mem: u64,
    branch: u64,
    muldiv: u64,
    system: u64,
}

fn characterize(prog: &safedm_asm::Program) -> Mix {
    let mut iss = Iss::new(0);
    iss.load_program(prog);
    let mut mix = Mix::default();
    loop {
        let pc = iss.pc();
        let word = iss.mem.read_word(safedm_soc::MemSpace::Code, pc);
        // The instruction `step` halts on (the kernel's `ebreak`) executed too.
        let running = iss.step();
        mix.total += 1;
        match safedm_isa::decode(word) {
            Ok(i) if i.is_mem() => mix.mem += 1,
            Ok(i) if i.is_control_flow() => mix.branch += 1,
            Ok(i) if i.is_muldiv() => mix.muldiv += 1,
            Ok(Inst::Csr { .. } | Inst::CsrImm { .. } | Inst::Fence) => mix.system += 1,
            _ => {}
        }
        if !running {
            break;
        }
        assert!(mix.total < 100_000_000, "runaway kernel");
    }
    assert_eq!(mix.total, iss.executed(), "every executed instruction is counted");
    mix
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args::jobs(&args);
    let telemetry = Telemetry::from_args(&args);
    // One campaign cell per kernel; ordered collection keeps the table
    // identical for any --jobs N.
    let all = kernels::all();
    let outs = run_cells_with_telemetry(
        jobs,
        &telemetry,
        all,
        |k| k.name.to_owned(),
        |_, k| {
            let prog = build_kernel_program(k, &HarnessConfig::default());
            let mix = characterize(&prog);

            let cfg = SocConfig { cores: 1, ..SocConfig::default() };
            let mut soc = MpSoc::new(cfg);
            soc.load_program(&prog);
            let r = soc.run(400_000_000);
            assert!(r.all_clean(), "{}: {:?}", k.name, r.exits);
            assert_eq!(mix.total, soc.core(0).retired(), "{}: ISS vs pipeline count", k.name);

            let row = format!(
                "{:<16} {:>10} {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>6.2}\n",
                k.name,
                mix.total,
                mix.mem as f64 / mix.total as f64 * 100.0,
                mix.branch as f64 / mix.total as f64 * 100.0,
                mix.muldiv as f64 / mix.total as f64 * 100.0,
                r.cycles,
                mix.total as f64 / r.cycles as f64,
            );
            (row, r.cycles)
        },
        |index, k, &(_, cycles)| CellEvent {
            index,
            kernel: k.name.to_owned(),
            config: "single-core".to_owned(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 0,
            cycles,
            guarded: 0,
            zero_stag: 0,
            no_div: 0,
            episodes: 0,
            violations: 0,
            ok: true,
            wall_us: None,
        },
    );
    let rows: String = outs.into_iter().map(|(row, _)| row).collect();
    println!("KERNEL CHARACTERISATION (dynamic, single core)");
    println!();
    println!(
        "{:<16} {:>10} {:>8} {:>8} {:>8} {:>10} {:>6}",
        "benchmark", "insts", "mem %", "br %", "muldiv %", "cycles", "IPC"
    );
    print!("{rows}");
    println!();
    println!("IPC < 2 reflects the dual-issue in-order bound minus hazards and misses.");
}
