//! Cross-validation of the static analyzer against the runtime monitor:
//! every region the lints mark *guaranteed no-diversity* must overlap
//! cycles where SafeDM actually reported no diversity when executed at
//! stagger 0 — a self-test of the analyzer (no false "guaranteed") and of
//! the monitor (no missed collisions).

use safedm_analysis::{analyze, AnalysisConfig, DiversityGate, LintCode};
use safedm_asm::{Asm, Program};
use safedm_core::{MonitoredRun, MonitoredSoc, SafeDmConfig};
use safedm_isa::Reg;
use safedm_soc::SocConfig;
use safedm_tacle::{build_kernel_program, kernels, HarnessConfig};

fn run_gated(prog: &Program, max_cycles: u64) -> (MonitoredRun, DiversityGate) {
    let mut gate = DiversityGate::new(analyze(prog, &AnalysisConfig::default()));
    let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
    sys.load_program(prog);
    let out = sys.run_with(max_cycles, |sys, r| {
        gate.observe(sys.soc().core(0).last_commit_pc(), r.observed, r.no_diversity);
    });
    (out, gate)
}

#[test]
fn kernels_at_stagger_zero_confirm_predictions() {
    // At least three kernels, including ones the lints flag (fac, prime,
    // fft carry DIV003 findings) and a quiet one (bitcount).
    for name in ["fac", "prime", "fft", "bitcount"] {
        let k = kernels::by_name(name).expect("kernel exists");
        let prog = build_kernel_program(k, &HarnessConfig::default());
        let (out, gate) = run_gated(&prog, 200_000_000);
        assert!(!out.run.timed_out, "{name}: timed out");
        assert!(gate.all_confirmed(), "{name}: refuted guaranteed prediction:\n{}", gate.summary());
        // Stagger 0 on mirrored images keeps the pair in lockstep often
        // enough that the monitor must see some no-diversity cycles.
        assert!(out.no_div_cycles > 0, "{name}: no no-diversity cycles at stagger 0");
    }
}

#[test]
fn idle_loop_prediction_is_confirmed() {
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
    let prog = a.link(0x8000_0000).unwrap();

    let (_, gate) = run_gated(&prog, 50_000);
    let div001: Vec<_> = gate.checks().iter().filter(|c| c.code == LintCode::Div001).collect();
    assert_eq!(div001.len(), 1, "{}", gate.report().render());
    assert!(div001[0].executed(), "idle loop must be reached");
    assert!(div001[0].confirmed());
    // In lockstep the idle loop is no-diversity on essentially every cycle.
    assert!(div001[0].no_div_cycles * 10 >= div001[0].executed_cycles * 9);
}

#[test]
fn nop_sled_prediction_is_confirmed() {
    let mut a = Asm::new();
    a.nops(48);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();

    let (out, gate) = run_gated(&prog, 100_000);
    assert!(!out.run.timed_out);
    let div002: Vec<_> = gate.checks().iter().filter(|c| c.code == LintCode::Div002).collect();
    assert_eq!(div002.len(), 1, "{}", gate.report().render());
    assert!(div002[0].executed() && div002[0].confirmed(), "{}", gate.summary());

    // One nop is no sled: a clean program has no checks and is trivially
    // confirmed.
    let mut a = Asm::new();
    a.nop();
    a.ebreak();
    let (_, gate) = run_gated(&a.link(0x8000_0000).unwrap(), 10_000);
    assert_eq!(gate.checks().len(), 0);
    assert!(gate.all_confirmed());
}
