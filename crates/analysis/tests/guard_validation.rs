//! The soundness guard under the runtime monitor: at stagger 0 the prover's
//! DIV001/DIV002 collision regions must show no-diversity cycles once both
//! cores execute them — a self-test of the prover (no false collision
//! claim) and of the monitor (no missed collision) at once.

use safedm_analysis::{analyze, prove, AnalysisConfig, LintCode, SoundnessGuard};
use safedm_asm::{Asm, Program};
use safedm_core::{MonitoredSoc, SafeDmConfig};
use safedm_isa::Reg;
use safedm_soc::SocConfig;

/// Proves `prog` at stagger 0 and runs it under the default monitor with
/// the guard fed every cycle. Returns whether both cores halted.
fn run_guarded(prog: &Program, max_cycles: u64) -> (bool, SoundnessGuard) {
    let report = analyze(prog, &AnalysisConfig::default());
    let proof = prove(&report.program, &report.cfg, &report.config);
    let dm = SafeDmConfig::default();
    let mut guard = SoundnessGuard::new(&proof, dm.data_fifo_depth);
    let mut sys = MonitoredSoc::new(SocConfig::default(), dm);
    sys.load_program(prog);
    sys.run_with(max_cycles, |sys, r| {
        let pc = |c: usize| sys.soc().core(c).last_commit_pc();
        let stagger = sys.monitor().instruction_diff().value();
        guard.observe(sys.soc().cycle(), [pc(0), pc(1)], stagger, r.observed, r.no_diversity);
    });
    (sys.soc().all_halted(), guard)
}

#[test]
fn idle_loop_collision_is_confirmed() {
    let mut a = Asm::new();
    a.li(Reg::T0, 100);
    let spin = a.new_label("spin");
    a.bind(spin).unwrap();
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, spin);
    let idle = a.new_label("idle");
    a.bind(idle).unwrap();
    a.nop();
    a.j(idle);

    let (_, guard) = run_guarded(&a.link(0x8000_0000).unwrap(), 50_000);
    let div001: Vec<_> = guard.collisions().iter().filter(|c| c.code == LintCode::Div001).collect();
    assert_eq!(div001.len(), 1, "{}", guard.summary());
    assert!(div001[0].met() && div001[0].confirmed(), "{}", guard.summary());
    // In lockstep the idle loop is no-diversity on essentially every cycle.
    assert!(div001[0].no_div_cycles * 10 >= div001[0].met_cycles * 9, "{}", guard.summary());
    assert!(guard.passed());
}

#[test]
fn nop_sled_collision_is_confirmed() {
    let mut a = Asm::new();
    a.nops(48);
    a.ebreak();
    let (halted, guard) = run_guarded(&a.link(0x8000_0000).unwrap(), 100_000);
    assert!(halted);
    let div002: Vec<_> = guard.collisions().iter().filter(|c| c.code == LintCode::Div002).collect();
    assert_eq!(div002.len(), 1, "{}", guard.summary());
    assert!(div002[0].met() && div002[0].confirmed(), "{}", guard.summary());
    assert!(guard.passed());
}

#[test]
fn one_nop_arms_no_region() {
    let mut a = Asm::new();
    a.nop();
    a.ebreak();
    let (halted, guard) = run_guarded(&a.link(0x8000_0000).unwrap(), 10_000);
    assert!(halted);
    assert!(guard.collisions().is_empty(), "{}", guard.summary());
    assert!(guard.passed());
}
