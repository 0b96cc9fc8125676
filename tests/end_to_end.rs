//! Cross-crate integration: kernels × MPSoC × SafeDM × APB, end to end.

use safedm::monitor::regs::regmap;
use safedm::monitor::{MonitoredSoc, ReportMode, SafeDmConfig};
use safedm::soc::SocConfig;
use safedm::tacle::{build_kernel_program, kernels, HarnessConfig, StaggerConfig};

fn polling_cfg() -> SafeDmConfig {
    SafeDmConfig { report_mode: ReportMode::Polling, ..SafeDmConfig::default() }
}

#[test]
fn monitored_kernel_runs_clean_and_mirrors_apb() {
    let k = kernels::by_name("insertsort").expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(100_000_000);
    assert!(out.run.all_clean());

    // Both cores agree with the reference checksum.
    let golden = (k.reference)();
    assert_eq!(sys.soc().core(0).reg(safedm::isa::Reg::A0), golden);
    assert_eq!(sys.soc().core(1).reg(safedm::isa::Reg::A0), golden);

    // APB bank mirrors the monitor's architectural counters exactly.
    let bank = sys.apb_bank();
    let c = sys.monitor().counters();
    assert_eq!(bank.reg(regmap::NO_DIV_CYCLES), c.no_div_cycles);
    assert_eq!(bank.reg(regmap::DS_MATCH_CYCLES), c.ds_match_cycles);
    assert_eq!(bank.reg(regmap::IS_MATCH_CYCLES), c.is_match_cycles);
    assert_eq!(bank.reg(regmap::CYCLES_OBSERVED), c.cycles_observed);
    assert_eq!(bank.reg(regmap::ZERO_STAG_CYCLES), sys.monitor().instruction_diff().zero_cycles());
    assert_eq!(bank.reg(regmap::MAX_NO_DIV_RUN), sys.monitor().max_no_div_run());
}

#[test]
fn no_div_cycles_imply_both_signatures_matched() {
    let k = kernels::by_name("fac").expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run_with(100_000_000, |sys, r| {
        let cycle = sys.soc().cycle();
        assert!(
            !r.no_diversity || (r.ds_match && r.is_match),
            "no-div requires both matches (cycle {cycle})"
        );
    });
    assert!(out.run.all_clean());
    let c = sys.monitor().counters();
    assert!(c.no_div_cycles <= c.ds_match_cycles);
    assert!(c.no_div_cycles <= c.is_match_cycles);
    assert!(c.ds_match_cycles <= c.cycles_observed);
}

#[test]
fn staggering_suppresses_no_diversity() {
    let k = kernels::by_name("iir").expect("kernel");
    let run = |stagger: Option<StaggerConfig>| {
        let prog = build_kernel_program(k, &HarnessConfig { stagger, ..HarnessConfig::default() });
        let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
        sys.load_program(&prog);
        let out = sys.run(100_000_000);
        assert!(out.run.all_clean());
        out.no_div_cycles
    };
    let synced = run(None);
    let staggered = run(Some(StaggerConfig { nops: 1_000, delayed_core: 1 }));
    assert!(synced > 0, "synchronised identical runs must lose diversity sometimes");
    // The staggered run may retain the short pre-sled window; it must be
    // far below the synchronised count.
    assert!(
        staggered * 4 < synced.max(4),
        "staggering must suppress no-diversity ({staggered} vs {synced})"
    );
}

#[test]
fn history_histogram_accounts_for_every_no_div_cycle() {
    let k = kernels::by_name("bitcount").expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(100_000_000);
    assert!(out.run.all_clean());
    let hist = sys.monitor().no_diversity_history();
    assert_eq!(
        hist.total_cycles(),
        out.no_div_cycles,
        "episodes must partition the no-diversity cycles"
    );
    assert!(hist.max_episode() <= out.no_div_cycles);
}

#[test]
fn guest_program_can_poll_safedm_over_apb() {
    // A bare-metal program that reads the SafeDM CYCLES_OBSERVED register
    // from the APB bank and returns it in a0: the integration path of
    // Fig. 3/4 exercised from inside the guest.
    use safedm::asm::Asm;
    use safedm::isa::Reg;
    let mut a = Asm::new();
    // burn some cycles so the monitor observes something
    a.li(Reg::T0, 200);
    let top = a.here("top");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.li(Reg::T1, 0xfc00_0000u32 as i64 + (regmap::CYCLES_OBSERVED as i64) * 8);
    a.ld(Reg::A0, 0, Reg::T1);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();

    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(1_000_000);
    assert!(out.run.all_clean());
    let polled = sys.soc().core(0).reg(Reg::A0);
    assert!(polled > 0, "guest must see live monitor counters");
    assert!(polled <= out.cycles_observed);
}

#[test]
fn guest_apb_reads_see_exact_monitor_state() {
    // Each of 300 iterations folds six SafeDM registers into a0. A load
    // sees the bank as mirrored at the end of the cycle before its APB
    // access completes, so the final a0 of each core pins exactly which
    // monitor state every read observed, in polling and interrupt-first
    // mode.
    use safedm::asm::Asm;
    use safedm::isa::Reg;
    let prog = |nops: usize| {
        let mut a = Asm::new();
        for _ in 0..nops {
            a.nop();
        }
        a.li(Reg::T0, 300);
        a.li(Reg::A0, 0);
        a.li(Reg::T1, 0xfc00_0000);
        let top = a.here("loop");
        for reg in [
            regmap::STATUS,
            regmap::NO_DIV_CYCLES,
            regmap::CYCLES_OBSERVED,
            regmap::MAX_NO_DIV_RUN,
            regmap::DS_MATCH_CYCLES,
            regmap::HIST_BASE,
        ] {
            a.ld(Reg::T2, 8 * reg as i64, Reg::T1);
            a.slli(Reg::A0, Reg::A0, 5);
            a.xor(Reg::A0, Reg::A0, Reg::T2);
        }
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        a.link(0x8000_0000).unwrap()
    };
    let soc_cfg = SocConfig { mem_jitter: 2, jitter_seed: 3, ..SocConfig::default() };
    let cases = [
        (0, ReportMode::Polling, [0xd8a_86b0_36e0_1ac0, 0xd89_a6b0_361c_9ac0]),
        (7, ReportMode::InterruptFirst, [0xd3e_ebd8_34cd_af60, 0xd3f_0bd8_3436_2f60]),
    ];
    for (nops, report_mode, want) in cases {
        let dm_cfg = SafeDmConfig { report_mode, ..SafeDmConfig::default() };
        let mut sys = MonitoredSoc::new(soc_cfg.clone(), dm_cfg);
        sys.load_program(&prog(nops));
        assert!(sys.run(10_000_000).run.all_clean());
        let got = [0, 1].map(|c| sys.soc().core(c).reg(Reg::A0));
        assert_eq!(got, want, "{nops} nops, {report_mode:?}");
    }
}

#[test]
fn text_assembled_program_runs_under_the_monitor() {
    // The text front end, the SoC and the monitor compose end to end.
    let prog = safedm::asm::assemble(
        r"
            .data
        table:  .dword 10, 20, 30, 40
            .text
            la   t0, table
            li   t1, 4
            li   a0, 0
        top:
            ld   t2, (t0)
            add  a0, a0, t2
            addi t0, t0, 8
            addi t1, t1, -1
            bnez t1, top
            ebreak
        ",
        0x8000_0000,
    )
    .expect("assembles");
    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(1_000_000);
    assert!(out.run.all_clean());
    assert_eq!(sys.soc().core(0).reg(safedm::isa::Reg::A0), 100);
    assert_eq!(sys.soc().core(1).reg(safedm::isa::Reg::A0), 100);
    assert!(out.cycles_observed > 0);
}

#[test]
fn guest_can_reprogram_the_monitor_over_apb() {
    // The guest disables the monitor through its CTRL register mid-run
    // (write-and-apply path of Section IV-B2): counters freeze afterwards.
    use safedm::asm::Asm;
    use safedm::isa::Reg;
    let mut a = Asm::new();
    a.li(Reg::T0, 100);
    let warm = a.here("warm");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, warm);
    // CTRL := 0 (disable)
    a.li(Reg::T1, 0xfc00_0000u32 as i64 + (regmap::CTRL as i64) * 8);
    a.sd(Reg::ZERO, 0, Reg::T1);
    a.fence();
    // burn many more cycles while disabled
    a.li(Reg::T0, 2_000);
    let cool = a.here("cool");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, cool);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();

    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(1_000_000);
    assert!(out.run.all_clean());
    // Observation stopped well before the end of the run:
    assert!(
        out.cycles_observed * 2 < out.run.cycles,
        "monitor must have been disabled mid-run ({} of {})",
        out.cycles_observed,
        out.run.cycles
    );
    assert!(!sys.monitor().enabled());
}

#[test]
fn monitor_state_always_equals_its_applied_bank() {
    // A guest disables the monitor over APB, re-enables it in threshold
    // mode with THRESHOLD, then selects polling and clears the IRQ through
    // CTRL's write-1-to-clear bit, while the host writes CTRL and overrides
    // the enable flag between steps. After every step the monitor's enable
    // flag, report mode and IRQ equal what applying its bank gives.
    use safedm::asm::Asm;
    use safedm::isa::Reg;
    use safedm::monitor::regs::{self, enabled_ctrl};
    const THRESHOLD: u64 = 40;
    let reg_addr = |reg: usize| 0xfc00_0000u32 as i64 + reg as i64 * 8;
    let mut a = Asm::new();
    let spin = |a: &mut Asm, label: &str, iters: i64| {
        a.li(Reg::T0, iters);
        let top = a.here(label);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
    };
    let store = |a: &mut Asm, reg: usize, value: u64| {
        a.li(Reg::T1, reg_addr(reg));
        a.li(Reg::T2, value as i64);
        a.sd(Reg::T2, 0, Reg::T1);
        a.fence();
    };
    spin(&mut a, "warm", 60);
    store(&mut a, regmap::CTRL, 0);
    spin(&mut a, "off", 60);
    store(&mut a, regmap::THRESHOLD, THRESHOLD);
    store(&mut a, regmap::CTRL, enabled_ctrl(ReportMode::InterruptThreshold(THRESHOLD)));
    spin(&mut a, "threshold", 60);
    store(&mut a, regmap::CTRL, enabled_ctrl(ReportMode::Polling) | 0b1000);
    spin(&mut a, "polling", 60);
    a.ebreak();
    let prog = a.link(0x8000_0000).unwrap();

    let mut sys = MonitoredSoc::new(SocConfig::default(), polling_cfg());
    sys.load_program(&prog);
    let (mut disabled, mut threshold, mut irq_raised, mut irq_cleared) = (0, 0, 0, 0);
    let mut irq_before = false;
    for step in 0..100_000u64 {
        match step {
            20 => sys.monitor_mut().set_enabled(false),
            40 => sys.write_ctrl(enabled_ctrl(ReportMode::InterruptFirst)),
            80 => sys.monitor_mut().set_enabled(false),
            _ => {}
        }
        sys.step();
        let dm = sys.monitor();
        let (mut applied, mut bank) = (dm.clone(), sys.apb_bank().clone());
        regs::apply_commands(&mut applied, &mut bank);
        assert_eq!(dm.enabled(), applied.enabled(), "enable flag after step {step}");
        assert_eq!(dm.config().report_mode, applied.config().report_mode, "mode, step {step}");
        assert_eq!(dm.irq_pending(), applied.irq_pending(), "IRQ after step {step}");
        disabled += u64::from(!dm.enabled());
        threshold +=
            u64::from(dm.config().report_mode == ReportMode::InterruptThreshold(THRESHOLD));
        irq_raised += u64::from(!irq_before && dm.irq_pending());
        irq_cleared += u64::from(irq_before && !dm.irq_pending());
        irq_before = dm.irq_pending();
        let soc = sys.soc();
        if soc.all_halted() && (0..2).all(|c| soc.core(c).store_buffer_len() == 0) {
            break;
        }
    }
    assert!(sys.soc().all_halted(), "the program ran to its end");
    assert!(disabled > 0, "the guest's CTRL write disabled the monitor");
    assert!(threshold > 0, "the guest selected threshold mode");
    assert!(irq_raised > 0 && irq_cleared > 0, "raised {irq_raised}, cleared {irq_cleared}");
    assert!(sys.monitor().enabled());
    assert_eq!(sys.monitor().config().report_mode, ReportMode::Polling);
    assert!(!sys.monitor().irq_pending(), "the write-1-to-clear bit cleared the IRQ");
}

#[test]
fn four_core_soc_still_monitors_first_pair() {
    let cfg = SocConfig { cores: 4, ..SocConfig::default() };
    let k = kernels::by_name("fac").expect("kernel");
    let prog = build_kernel_program(k, &HarnessConfig::default());
    let mut sys = MonitoredSoc::new(cfg, polling_cfg());
    sys.load_program(&prog);
    let out = sys.run(200_000_000);
    assert!(out.run.all_clean());
    let golden = (k.reference)();
    for c in 0..4 {
        assert_eq!(sys.soc().core(c).reg(safedm::isa::Reg::A0), golden, "core {c}");
    }
    assert!(out.cycles_observed > 0);
}
