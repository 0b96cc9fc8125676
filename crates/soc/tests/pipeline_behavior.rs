//! Behavioural tests of the microarchitectural mechanisms the SafeDM paper
//! relies on: dual issue, bus serialisation between redundant cores, store
//! coalescing, hold signalling, APB access, and the external stall line.

use safedm_asm::{Asm, Program};
use safedm_isa::Reg;
use safedm_soc::{ApbRegisterFile, MpSoc, SocConfig};

const BASE: u64 = 0x8000_0000;

fn countdown_loop(iters: i64) -> Program {
    let mut a = Asm::new();
    a.li(Reg::T0, iters);
    a.li(Reg::A0, 0);
    let top = a.here("top");
    a.add(Reg::A0, Reg::A0, Reg::T0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.ebreak();
    a.link(BASE).unwrap()
}

#[test]
fn dual_issue_pairs_independent_ops() {
    // Long runs of independent ALU ops should dual-commit frequently.
    let mut a = Asm::new();
    a.li(Reg::T0, 1);
    a.li(Reg::T1, 2);
    for _ in 0..200 {
        a.addi(Reg::T2, Reg::T0, 1);
        a.addi(Reg::T3, Reg::T1, 1);
    }
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    let stats = soc.core(0).stats();
    assert!(
        stats.dual_commits > 100,
        "expected frequent dual commits, got {} in {} cycles",
        stats.dual_commits,
        stats.cycles
    );
}

#[test]
fn dependent_chain_does_not_dual_issue() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    for _ in 0..100 {
        a.addi(Reg::T0, Reg::T0, 1); // strict RAW chain
    }
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::T0), 100);
    let stats = soc.core(0).stats();
    assert_eq!(stats.dual_commits, 0, "RAW chain must issue singly");
}

#[test]
fn loop_executes_with_btfn_prediction() {
    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&countdown_loop(1000));
    let r = soc.run(200_000);
    assert!(r.all_clean());
    assert_eq!(soc.core(0).reg(Reg::A0), 500_500);
    // The backward branch is predicted taken: exactly one mispredict at
    // loop exit (plus none at entry).
    assert_eq!(soc.core(0).stats().mispredicts, 1);
}

#[test]
fn pure_register_program_keeps_cores_in_lockstep() {
    // With shared-code fetch merging, two identical cores running a
    // register-only loop never touch a serialising resource: they stay in
    // cycle lockstep for the whole run (the paper's diversity-scarce case).
    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&countdown_loop(2000));
    let mut always_equal = true;
    for _ in 0..500_000 {
        if soc.all_halted() {
            break;
        }
        soc.step();
        always_equal &= soc.core(0).retired() == soc.core(1).retired();
    }
    assert!(soc.all_halted());
    assert!(always_equal, "register-only redundant run must stay synchronised");
}

#[test]
fn private_data_traffic_diverges_redundant_cores() {
    // A loop with stores/loads hits the private data mirrors: those bus
    // requests cannot merge, one core is granted first, and the committed
    // counts diverge — the paper's natural-diversity mechanism.
    let mut a = Asm::new();
    let buf = a.d_zero("buf", 4096);
    a.la(Reg::T0, buf);
    a.li(Reg::T1, 2000);
    a.li(Reg::A0, 0);
    let top = a.here("top");
    a.andi(Reg::T2, Reg::T1, 511);
    a.slli(Reg::T2, Reg::T2, 3);
    a.add(Reg::T2, Reg::T2, Reg::T0);
    a.sd(Reg::T1, 0, Reg::T2);
    a.ld(Reg::T3, 0, Reg::T2);
    a.add(Reg::A0, Reg::A0, Reg::T3);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
    a.ebreak();
    let prog = a.link(BASE).unwrap();

    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&prog);
    let mut saw_stagger = false;
    for _ in 0..2_000_000 {
        if soc.all_halted() {
            break;
        }
        soc.step();
        saw_stagger |= soc.core(0).retired() != soc.core(1).retired();
    }
    assert!(soc.all_halted());
    assert!(saw_stagger, "private-data serialisation must introduce staggering");
    assert_eq!(soc.core(0).reg(Reg::A0), soc.core(1).reg(Reg::A0));
    assert_eq!(soc.core(0).retired(), soc.core(1).retired());
}

#[test]
fn store_buffer_coalesces_same_line() {
    let mut a = Asm::new();
    let buf = a.d_zero("buf", 256);
    a.la(Reg::T0, buf);
    // Burst of stores into one 32-byte line.
    for i in 0..4 {
        a.li(Reg::T1, 0x1111 * (i + 1));
        a.sd(Reg::T1, i * 8, Reg::T0);
    }
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    // All four stores landed:
    let b = prog.symbol("buf").unwrap();
    for i in 0..4u64 {
        assert_eq!(soc.read_dword(0, b + 8 * i), 0x1111 * (i + 1));
    }
    // And the bus carried fewer write transactions than stores:
    let tx = soc.uncore().stats().transactions;
    assert!(tx < 4 + 4, "stores must coalesce, saw {tx} transactions");
}

#[test]
fn hold_cycles_appear_during_misses() {
    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&countdown_loop(10));
    assert!(soc.run(100_000).all_clean());
    let stats = soc.core(0).stats();
    // The initial I$ miss alone stalls for tens of cycles.
    assert!(stats.hold_cycles > 10, "expected hold cycles, got {}", stats.hold_cycles);
    assert!(stats.hold_cycles < stats.cycles);
}

#[test]
fn external_stall_freezes_a_core() {
    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&countdown_loop(5000));
    // Let both start, then stall core 1 for a while.
    for _ in 0..200 {
        soc.step();
    }
    let frozen_at = soc.core(1).retired();
    soc.core_mut(1).set_external_stall(true);
    for _ in 0..300 {
        soc.step();
    }
    assert_eq!(soc.core(1).retired(), frozen_at, "stalled core must not commit");
    assert!(soc.core(0).retired() > frozen_at, "other core keeps running");
    soc.core_mut(1).set_external_stall(false);
    let r = soc.run(2_000_000);
    assert!(r.all_clean());
    assert_eq!(soc.core(1).reg(Reg::A0), soc.core(0).reg(Reg::A0));
}

#[test]
fn guest_apb_store_and_load() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0xfc00_0000u32 as i64 + 0x100);
    a.li(Reg::T1, 0xdead_beef);
    a.sd(Reg::T1, 0, Reg::T0);
    a.ld(Reg::A0, 0, Reg::T0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    let slave = soc.uncore_mut().add_apb_slave(ApbRegisterFile::new(0xfc00_0100, 8));
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::A0), 0xdead_beef);
    assert_eq!(soc.uncore().apb_slave(slave).reg(0), 0xdead_beef);
    assert_eq!(soc.uncore().apb_slave(slave).write_count(), 1);
}

#[test]
fn fence_drains_store_buffer() {
    let mut a = Asm::new();
    let buf = a.d_zero("buf", 64);
    a.la(Reg::T0, buf);
    a.li(Reg::T1, 42);
    a.sd(Reg::T1, 0, Reg::T0);
    a.fence();
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.read_dword(0, prog.symbol("buf").unwrap()), 42);
}

#[test]
fn per_core_private_data_spaces() {
    // Each core increments a counter in its own data mirror; values must not
    // interfere even at identical logical addresses.
    let mut a = Asm::new();
    let cell = a.d_dwords("cell", &[100]);
    a.hartid(Reg::T2);
    a.la(Reg::T0, cell);
    a.ld(Reg::T1, 0, Reg::T0);
    a.add(Reg::T1, Reg::T1, Reg::T2); // + hartid
    a.sd(Reg::T1, 0, Reg::T0);
    a.fence();
    a.ld(Reg::A0, 0, Reg::T0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let mut soc = MpSoc::new(SocConfig::default());
    soc.load_program(&prog);
    assert!(soc.run(200_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::A0), 100);
    assert_eq!(soc.core(1).reg(Reg::A0), 101);
    let cell_addr = prog.symbol("cell").unwrap();
    assert_eq!(soc.read_dword(0, cell_addr), 100);
    assert_eq!(soc.read_dword(1, cell_addr), 101);
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut soc = MpSoc::new(SocConfig::default());
        soc.load_program(&countdown_loop(500));
        let r = soc.run(1_000_000);
        (r.cycles, soc.core(0).stats(), soc.core(1).stats(), soc.uncore().stats())
    };
    assert_eq!(run(), run(), "simulation must be bit-deterministic");
}

#[test]
fn jitter_seeds_change_timing_but_not_results() {
    let run = |seed: u64| {
        let cfg = SocConfig { mem_jitter: 4, jitter_seed: seed, ..SocConfig::default() };
        let mut soc = MpSoc::new(cfg);
        soc.load_program(&countdown_loop(500));
        let r = soc.run(1_000_000);
        assert!(r.all_clean());
        (r.cycles, soc.core(0).reg(Reg::A0))
    };
    let (c1, v1) = run(1);
    let (c2, v2) = run(2);
    assert_eq!(v1, 125_250);
    assert_eq!(v1, v2, "results are timing-independent");
    assert_ne!(c1, c2, "different jitter seeds should shift timing");
}

#[test]
fn load_use_forwarding_correctness_under_misses() {
    // Store then immediately load the same address (store-buffer forward),
    // then a dependent use.
    let mut a = Asm::new();
    let buf = a.d_zero("buf", 64);
    a.la(Reg::T0, buf);
    a.li(Reg::T1, 7);
    a.sd(Reg::T1, 8, Reg::T0);
    a.ld(Reg::T2, 8, Reg::T0); // must forward 7
    a.addi(Reg::A0, Reg::T2, 1);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::A0), 8);
}

#[test]
fn partial_store_overlap_forces_drain() {
    // Narrow store then wider load overlapping it partially: the model must
    // drain and still return the right bytes.
    let mut a = Asm::new();
    let buf = a.d_dwords("buf", &[0x1111_1111_1111_1111]);
    a.la(Reg::T0, buf);
    a.li(Reg::T1, 0xff);
    a.sb(Reg::T1, 2, Reg::T0);
    a.ld(Reg::A0, 0, Reg::T0); // partial overlap with the pending sb
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = MpSoc::new(cfg);
    soc.load_program(&prog);
    assert!(soc.run(100_000).all_clean());
    assert_eq!(soc.core(0).reg(Reg::A0), 0x1111_1111_11ff_1111);
}

#[test]
fn illegal_instruction_traps_the_pipeline() {
    let mut a = Asm::new();
    a.li(Reg::T0, 3);
    a.word(0xffff_ffff); // not a valid encoding
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = safedm_soc::MpSoc::new(cfg);
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(!r.timed_out);
    assert!(
        matches!(
            r.exits[0],
            safedm_soc::CoreExit::Trap(safedm_soc::TrapCause::IllegalInstruction {
                word: 0xffff_ffff,
                ..
            })
        ),
        "{:?}",
        r.exits[0]
    );
    // NOTE: the model takes the trap at decode (imprecise): older
    // instructions still in flight are flushed, so t0 may not have
    // committed. See `TrapCause` docs.
}

#[test]
fn wild_jump_traps_as_fetch_fault() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0x8070_0000); // inside RAM but outside the text image
    a.jalr(Reg::ZERO, Reg::T0, 0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = safedm_soc::MpSoc::new(cfg);
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(matches!(
        r.exits[0],
        safedm_soc::CoreExit::Trap(safedm_soc::TrapCause::FetchFault { pc: 0x8070_0000 })
    ));
}

#[test]
fn out_of_ram_load_traps_as_access_fault() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0x4000_0000); // below RAM base
    a.ld(Reg::T1, 0, Reg::T0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = safedm_soc::MpSoc::new(cfg);
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(matches!(
        r.exits[0],
        safedm_soc::CoreExit::Trap(safedm_soc::TrapCause::AccessFault { addr: 0x4000_0000, .. })
    ));
    // The reference ISS stops on the same access with the same cause.
    let mut iss = safedm_soc::Iss::new(0);
    iss.load_program(&prog);
    assert_eq!(iss.run(100), r.exits[0]);
}

#[test]
fn store_to_code_traps_on_the_pipeline() {
    let mut a = Asm::new();
    a.li(Reg::T0, BASE as i64);
    a.sd(Reg::T0, 0, Reg::T0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = safedm_soc::MpSoc::new(cfg);
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(matches!(
        r.exits[0],
        safedm_soc::CoreExit::Trap(safedm_soc::TrapCause::StoreToCode { .. })
    ));
}

#[test]
fn misaligned_load_traps_on_the_pipeline() {
    let mut a = Asm::new();
    let buf = a.d_zero("buf", 16);
    a.la(Reg::T0, buf);
    a.lw(Reg::T1, 2, Reg::T0);
    a.ebreak();
    let prog = a.link(BASE).unwrap();
    let cfg = SocConfig { cores: 1, ..SocConfig::default() };
    let mut soc = safedm_soc::MpSoc::new(cfg);
    soc.load_program(&prog);
    let r = soc.run(100_000);
    assert!(matches!(
        r.exits[0],
        safedm_soc::CoreExit::Trap(safedm_soc::TrapCause::MisalignedAccess { .. })
    ));
}
