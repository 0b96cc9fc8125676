//! `membound`: line-stride read-modify-write streams, monitored and
//! cycle-accurate, with private footprints of about ½× L1D, 4× L1D and 4×
//! L2 of `SocConfig::default()` (16 KiB L1D, 128 KiB L2, 32-byte lines).
//!
//! It drives the simulator the opposite way from `table1`: the TACLe
//! kernels all fit in L1, while these streams keep both cores frozen on
//! memory, so the uncore, the store-buffer drain and the pipeline's stall
//! path carry the load. Caches start cold in every cell.

use std::time::Instant;

use safedm_asm::{Asm, Program};
use safedm_campaign::derive_cell_seed;
use safedm_isa::Reg;
use safedm_soc::{CoreExit, Iss, SocConfig};

use crate::metrics::{fastest, peak_rss_mb, set_pass_metrics, FastestPass, Report};
use crate::sim::{self, Window};
use crate::{timed, Args};

/// One stream: its name, private footprint in bytes, and passes over it.
/// The two cache-resident streams make 8,192 accesses per core; the 4× L2
/// stream makes one pass, 16,384.
pub const STREAMS: [(&str, u64, u64); 3] =
    [("half_l1d", 8 << 10, 32), ("4x_l1d", 64 << 10, 4), ("4x_l2", 512 << 10, 1)];

/// Instruction budget of the ISS reference run.
const ISS_BUDGET: u64 = 50_000_000;

/// One generated cell: a stream program and its memory-jitter seed.
pub struct Cell {
    pub name: &'static str,
    pub program: Program,
    pub jitter_seed: u64,
    /// `a0` the ISS computes for the program.
    pub expected_a0: u64,
}

/// The stream program for footprint `bytes` and `passes` passes. The seed
/// picks the base (a 4 KiB-aligned offset, so the cache set mapping is the
/// same) and the value each access adds; `a0` accumulates every value
/// loaded back.
pub fn stream_program(bytes: u64, passes: u64, seed: u64) -> Program {
    let line = SocConfig::default().l1d.line_bytes;
    let base = SocConfig::default().ram_base + (4 << 20) + (seed % 16) * 4096;
    let inc = (seed >> 8) % 1000 + 1;
    let mut a = Asm::new();
    a.li(Reg::T0, base as i64);
    a.li(Reg::T2, passes as i64);
    a.li(Reg::T6, inc as i64);
    a.li(Reg::A0, 0);
    let outer = a.here("outer");
    a.mv(Reg::T3, Reg::T0);
    a.li(Reg::T4, (bytes / line) as i64);
    let inner = a.here("inner");
    a.ld(Reg::T5, 0, Reg::T3);
    a.add(Reg::T5, Reg::T5, Reg::T6);
    a.sd(Reg::T5, 0, Reg::T3);
    a.add(Reg::A0, Reg::A0, Reg::T5);
    a.addi(Reg::T3, Reg::T3, line as i64);
    a.addi(Reg::T4, Reg::T4, -1);
    a.bnez(Reg::T4, inner);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, outer);
    a.ebreak();
    a.link(SocConfig::default().ram_base).expect("the stream program assembles")
}

/// `a0` of `prog` on the functional ISS.
fn iss_a0(prog: &Program) -> Option<u64> {
    let mut iss = Iss::new(0);
    iss.load_program(prog);
    matches!(iss.run(ISS_BUDGET), CoreExit::Ebreak { .. }).then(|| iss.reg(Reg::A0))
}

/// The cells of one pass for workload seed `seed`, in a fixed order.
pub fn cells(seed: u64) -> Vec<Cell> {
    STREAMS
        .into_iter()
        .enumerate()
        .map(|(s, (name, bytes, passes))| {
            let program = stream_program(bytes, passes, derive_cell_seed(seed, s as u64));
            let expected_a0 = iss_a0(&program).expect("the stream halts on the ISS");
            Cell {
                name,
                program,
                jitter_seed: derive_cell_seed(seed ^ 0x6a09_e667, s as u64),
                expected_a0,
            }
        })
        .collect()
}

fn check(report: &mut Report, cell: &Cell, r: &sim::CellResult) {
    report.record(r.a0_ok(cell.expected_a0), || {
        format!("{}: a0 {:?} != ISS {}", cell.name, r.a0, cell.expected_a0)
    });
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (cells, setup_s) = timed(|| cells(args.seed));

    if args.trace {
        sim::traced_cells(
            args,
            &mut report,
            cells.len(),
            |report, i| {
                let c = &cells[i];
                let r = sim::run_cell(&c.program, c.jitter_seed, Window::FromReset, None, None);
                check(report, c, &r);
                r.key()
            },
            |i, sampler, acc| {
                let c = &cells[i];
                let r = sim::run_cell(
                    &c.program,
                    c.jitter_seed,
                    Window::FromReset,
                    Some(sampler),
                    Some(acc),
                );
                let ok = r.a0_ok(c.expected_a0);
                (r, ok)
            },
        );
        return report;
    }

    // Set-up is re-timed after every pass, so that it is taken in the same
    // host states as the cells, and counts with its fastest repetition as
    // each cell does.
    let mut setups = vec![setup_s];
    let mut passes = FastestPass::default();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed() < args.window() {
        let mut ms = Vec::with_capacity(cells.len());
        for c in &cells {
            let t = Instant::now();
            let r = sim::run_cell(&c.program, c.jitter_seed, Window::FromReset, None, None);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            check(&mut report, c, &r);
        }
        passes.add(&ms);
        setups.push(timed(|| self::cells(args.seed)).1);
    }
    set_pass_metrics(&mut report, &passes);
    report.set("setup_s", fastest(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(seed: u64) -> Vec<Vec<u8>> {
        cells(seed).iter().map(|c| c.program.text.clone()).collect()
    }

    #[test]
    fn same_seed_same_programs_and_jitter() {
        let (a, b) = (cells(7), cells(7));
        assert_eq!(texts(7), texts(7));
        let seeds = |cs: &[Cell]| cs.iter().map(|c| c.jitter_seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
    }

    #[test]
    fn other_seed_other_programs_and_jitter() {
        assert_ne!(texts(7), texts(8));
        let seeds = |s| cells(s).iter().map(|c| c.jitter_seed).collect::<Vec<_>>();
        assert_ne!(seeds(7), seeds(8));
    }
}
