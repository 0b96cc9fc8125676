//! Property tests: the analyzer and the prover never panic on any program
//! the assembler can produce, the CFG partitions the decoded text into
//! well-formed blocks whose edges land on decoded instruction boundaries,
//! and the prover's findings stay inside the text section.

use proptest::collection::vec;
use proptest::prelude::*;

use safedm_analysis::{analyze, prove, AnalysisConfig, Cfg, DecodedProgram, Diagnostic};
use safedm_asm::{Asm, Label, Program};
use safedm_isa::Reg;

/// Builds a linked program from a generated op list: arithmetic, memory,
/// and control flow against a pool of labels scattered through the text.
fn build_program(ops: &[(u8, u8, u8, i64)]) -> Program {
    let mut a = Asm::new();
    let nlabels = ops.len() / 4 + 1;
    let labels: Vec<Label> = (0..nlabels).map(|i| a.new_label(&format!("l{i}"))).collect();
    let mut next = 0usize;
    for (i, &(sel, x, y, imm)) in ops.iter().enumerate() {
        if i % 4 == 0 && next < nlabels {
            a.bind(labels[next]).unwrap();
            next += 1;
        }
        let rd = Reg::new(x % 32);
        let rs = Reg::new(y % 32);
        let target = labels[(x as usize) % nlabels];
        match sel % 8 {
            0 => {
                a.nop();
            }
            1 => {
                a.addi(rd, rs, imm);
            }
            2 => {
                a.lw(rd, imm & !3, Reg::SP);
            }
            3 => {
                a.sw(rs, imm & !3, Reg::SP);
            }
            4 => {
                a.beq(rd, rs, target);
            }
            5 => {
                a.j(target);
            }
            6 => {
                a.mv(rd, rs);
            }
            _ => {
                a.hartid(rd);
            }
        }
    }
    while next < nlabels {
        a.bind(labels[next]).unwrap();
        next += 1;
    }
    a.ebreak();
    a.link(0x8000_0000).unwrap()
}

/// CFG well-formedness: blocks partition the slots in address order, edges
/// are symmetric, and every edge target starts at a decoded boundary.
fn check_cfg(prog: &DecodedProgram, cfg: &Cfg) {
    let mut covered = 0usize;
    for (i, b) in cfg.blocks.iter().enumerate() {
        assert_eq!(b.id, i);
        assert_eq!(b.start, covered, "blocks must tile the text in order");
        assert!(b.start < b.end && b.end <= prog.slots.len());
        covered = b.end;
        for &s in &b.succs {
            assert!(s < cfg.blocks.len());
            let spc = prog.pc_of(cfg.blocks[s].start);
            assert!(prog.index_of(spc).is_some(), "edge target off instruction boundary");
            assert!(cfg.blocks[s].preds.contains(&b.id), "missing reverse edge");
        }
        for &p in &b.preds {
            assert!(cfg.blocks[p].succs.contains(&b.id), "missing forward edge");
        }
    }
    assert_eq!(covered, prog.slots.len(), "blocks must cover every slot");
    for lp in &cfg.loops {
        assert!(lp.blocks.contains(&lp.header));
        assert!(!lp.latches.is_empty());
        assert!(lp.insts >= 1);
    }
}

/// Every finding lies inside the text section on instruction boundaries,
/// and renders.
fn check_findings(prog: &Program, decoded: &DecodedProgram, diags: &[Diagnostic]) {
    for d in diags {
        assert!(d.span.start >= prog.text_base);
        assert!(d.span.end <= prog.text_base + prog.text.len() as u64);
        assert!(d.span.start % 4 == 0 && d.span.end % 4 == 0);
        assert!(d.span.insts() >= 1);
        let _ = d.render(decoded, 6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structured random programs: analysis and proof complete and all
    /// invariants hold, with and without a configured stagger.
    fn analyzer_handles_assembled_programs(
        ops in vec((0u8..8, 0u8..32, 0u8..32, -64i64..64), 1..120),
        stagger in 0u64..64,
    ) {
        let prog = build_program(&ops);
        for cfg in [
            AnalysisConfig::default(),
            AnalysisConfig { stagger_nops: Some(stagger), ..AnalysisConfig::default() },
        ] {
            let report = analyze(&prog, &cfg);
            check_cfg(&report.program, &report.cfg);
            let proof = prove(&report.program, &report.cfg, &cfg);
            check_findings(&prog, &report.program, &proof.diagnostics);
        }
    }

    /// Raw-word fuzz: arbitrary (mostly undecodable) text sections never
    /// panic the decoder, CFG builder, prover or renderer.
    fn analyzer_handles_arbitrary_words(words in vec(any::<u32>(), 0..256)) {
        let mut a = Asm::new();
        for &w in &words {
            a.word(w);
        }
        let prog = a.link(0x8000_0000).unwrap();
        let report = analyze(&prog, &AnalysisConfig::default());
        check_cfg(&report.program, &report.cfg);
        let proof = prove(&report.program, &report.cfg, &report.config);
        check_findings(&prog, &report.program, &proof.diagnostics);
        let _ = proof.render(&report.program, 6);
    }
}
