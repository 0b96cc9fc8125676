//! Golden cycle-by-cycle pipeline traces — the model's substitute for the
//! paper's Modelsim inspection (Section V-A): pin the exact stage occupancy
//! pattern of small programs as file fixtures under `tests/golden/`, so
//! timing regressions show up as a readable diff. Regenerate deliberately
//! with `BLESS_GOLDEN=1 cargo test -p safedm-soc --test golden_pipeline`.

use std::path::PathBuf;

use safedm_asm::Asm;
use safedm_isa::Reg;
use safedm_soc::{MpSoc, SocConfig, PIPE_STAGES};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n(run `BLESS_GOLDEN=1 cargo test -p safedm-soc \
             --test golden_pipeline` to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture\n(if the change is intentional, regenerate with \
         `BLESS_GOLDEN=1 cargo test -p safedm-soc --test golden_pipeline`)"
    );
}

/// Renders one cycle's occupancy: one char per stage, `.`/`1`/`2` wide.
fn occupancy(soc: &MpSoc) -> String {
    let p = soc.probe(0);
    (0..PIPE_STAGES)
        .map(|s| {
            let a = p.stages[s][0].valid;
            let b = p.stages[s][1].valid;
            match (a, b) {
                (true, true) => "2",
                (true, false) | (false, true) => "1",
                (false, false) => ".",
            }
        })
        .collect::<Vec<_>>()
        .join("")
}

/// Runs `prog` to completion on a single core, collecting the occupancy row
/// of every cycle from the first non-empty one.
fn occupancy_trace(prog: &safedm_asm::Program) -> Vec<String> {
    let mut soc = MpSoc::new(single_core());
    soc.load_program(prog);
    let mut trace = Vec::new();
    for _ in 0..200 {
        soc.step();
        if soc.probe(0).occupancy() > 0 || !trace.is_empty() {
            trace.push(occupancy(&soc));
        }
        if soc.all_halted() {
            break;
        }
    }
    assert!(soc.all_halted(), "trace program did not halt within 200 cycles");
    trace
}

fn single_core() -> SocConfig {
    SocConfig { cores: 1, ..SocConfig::default() }
}

#[test]
fn straightline_pair_flows_through_all_stages() {
    // Two independent instructions fetched as one dual-issue group.
    let mut a = Asm::new();
    a.addi(Reg::T0, Reg::ZERO, 1);
    a.addi(Reg::T1, Reg::ZERO, 2);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();

    let trace = occupancy_trace(&prog);
    // Structural claim first (a readable failure before the byte diff):
    // the dual-issued addi pair marches F→D→RA→EX→ME→XC→WB one stage per
    // cycle (the ebreak trails one group behind).
    assert_eq!(&trace[0], "2......", "pair must fetch together: {trace:?}");
    for (i, stage_char) in (1..PIPE_STAGES).enumerate() {
        let row = &trace[i + 1];
        assert_eq!(
            &row[stage_char..=stage_char],
            "2",
            "pair must be in stage {stage_char} at cycle {}: {trace:?}",
            i + 1
        );
    }
    // Then the full cycle-by-cycle pattern, pinned byte-for-byte.
    check_golden("straightline_occupancy.txt", &(trace.join("\n") + "\n"));
}

#[test]
fn raw_dependent_pair_splits_at_issue() {
    // addi t0 <- then addi t1, t0: must split into two 1-wide groups.
    let mut a = Asm::new();
    a.addi(Reg::T0, Reg::ZERO, 1);
    a.addi(Reg::T1, Reg::T0, 2);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();
    let mut soc = MpSoc::new(single_core());
    soc.load_program(&prog);
    let mut saw_split = false;
    for _ in 0..200 {
        soc.step();
        let p = soc.probe(0);
        // a 1-wide group in RA while another 1-wide group sits in D
        if p.stages[2][0].valid && !p.stages[2][1].valid && p.stages[1][0].valid {
            saw_split = true;
        }
        if soc.all_halted() {
            break;
        }
    }
    assert!(soc.all_halted());
    assert!(saw_split, "dependent pair must issue one at a time");
    assert_eq!(soc.core(0).reg(Reg::T1), 3);
    // The exact split pattern, pinned byte-for-byte.
    check_golden("raw_dependent_occupancy.txt", &(occupancy_trace(&prog).join("\n") + "\n"));
}

#[test]
fn load_use_creates_pipeline_bubble() {
    let mut a = Asm::new();
    let cell = a.d_dwords("cell", &[41]);
    a.la(Reg::T0, cell);
    a.ld(Reg::T1, 0, Reg::T0);
    a.addi(Reg::T2, Reg::T1, 1); // immediate use of the load
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();
    let mut soc = MpSoc::new(single_core());
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::T2), 42);
    // The load's D$ miss stalls the consumer: hold cycles beyond the two
    // I$ boot misses must appear.
    let stats = soc.core(0).stats();
    assert!(stats.hold_cycles > 30, "expected load-miss stalls: {}", stats.hold_cycles);
}

#[test]
fn taken_backward_branch_has_single_fetch_bubble() {
    // With BTFN prediction, the back-to-back loop iterations re-fetch from
    // the predicted target at decode: a short, constant bubble per
    // iteration, never a full EX-resolve flush (except loop exit).
    let mut a = Asm::new();
    a.li(Reg::T0, 64);
    let top = a.here("top");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();
    let mut soc = MpSoc::new(single_core());
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(r.all_clean());
    let stats = soc.core(0).stats();
    assert_eq!(stats.mispredicts, 1, "only the loop exit mispredicts");
    // Steady-state loop cost: ≲4 cycles per 2-instruction iteration.
    assert!(stats.cycles < 64 * 4 + 120, "loop iterations too slow: {} cycles", stats.cycles);
}
