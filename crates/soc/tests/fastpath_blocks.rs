//! Block-cache invariants for the fast path:
//!
//! * block discovery agrees with the static analysis CFG — same leader set,
//!   same block extents — on every TACLe kernel and twin image;
//! * reinstalling an image bumps the cache version and drops every
//!   compiled block (no stale code survives a reload);
//! * resuming a block mid-way never skips or double-executes an
//!   instruction: chopping a run into arbitrary `run(chunk)` slices
//!   conserves the retired-instruction count and the final architectural
//!   state.

use proptest::prelude::*;
use safedm_analysis::cfg::{Cfg, DecodedProgram};
use safedm_isa::Reg;
use safedm_soc::fastpath::{BlockCache, FastIss, MAX_BLOCK_OPS};
use safedm_soc::{MainMemory, MemSpace};
use safedm_tacle::{build_kernel_program, build_twin_program, kernels, HarnessConfig, TwinConfig};

fn installed_cache(prog: &safedm_asm::Program) -> (MainMemory, BlockCache) {
    let mut mem = MainMemory::new();
    mem.write(MemSpace::Code, prog.text_base, &prog.text);
    let mut cache = BlockCache::new();
    cache.install_image(&mem, (prog.text_base, prog.text_base + prog.text_size()), prog.entry);
    (mem, cache)
}

/// The cache's leader set and block extents must agree with the static CFG.
fn assert_cache_matches_cfg(what: &str, prog: &safedm_asm::Program) {
    let (mem, mut cache) = installed_cache(prog);
    let dec = DecodedProgram::from_program(prog);
    let cfg = Cfg::build(&dec);

    let mut cfg_leaders: Vec<u64> = cfg.blocks.iter().map(|b| dec.pc_of(b.start)).collect();
    cfg_leaders.sort_unstable();
    assert_eq!(cache.leaders_sorted(), cfg_leaders, "{what}: leader sets differ");

    for b in &cfg.blocks {
        let pc = dec.pc_of(b.start);
        // Blocks whose slots all decode compile to exactly the CFG extent
        // (capped at MAX_BLOCK_OPS); a block led by an undecodable word
        // stays uncompiled and the engine traps on it instead.
        let all_decode = (b.start..b.end).all(|i| dec.slots[i].inst.is_some());
        let leads_decodable = dec.slots[b.start].inst.is_some();
        match cache.block_at(&mem, pc) {
            Some(blk) => {
                assert!(leads_decodable, "{what}: compiled a block led by an undecodable word");
                if all_decode {
                    assert_eq!(
                        blk.ops.len(),
                        b.len().min(MAX_BLOCK_OPS),
                        "{what}: block at {pc:#x} has the wrong extent"
                    );
                }
            }
            None => assert!(!leads_decodable, "{what}: decodable leader {pc:#x} did not compile"),
        }
    }
}

#[test]
fn block_discovery_agrees_with_cfg_on_every_kernel() {
    for k in kernels::all() {
        assert_cache_matches_cfg(k.name, &build_kernel_program(k, &HarnessConfig::default()));
    }
}

#[test]
fn block_discovery_agrees_with_cfg_on_twin_images() {
    for k in kernels::all() {
        let tw = build_twin_program(k, &TwinConfig::default());
        assert_cache_matches_cfg(&format!("{} twin", k.name), &tw.program);
    }
}

#[test]
fn reloaded_images_invalidate_the_cache() {
    let a = build_kernel_program(
        kernels::by_name("bitcount").expect("kernel"),
        &HarnessConfig::default(),
    );
    let b =
        build_kernel_program(kernels::by_name("fac").expect("kernel"), &HarnessConfig::default());

    let mut f = FastIss::new(0);
    f.load_program(&a);
    f.run(500);
    let v1 = f.block_cache().version();
    assert!(f.block_cache().compiled_blocks() > 0, "warm cache expected after 500 insts");

    // Reload a different image: version bumps, every compiled block drops,
    // and the leader set now describes the new image.
    f.load_program(&b);
    assert!(f.block_cache().version() > v1, "reload must bump the cache version");
    assert_eq!(f.block_cache().compiled_blocks(), 0, "stale blocks survived a reload");
    let (_, fresh) = installed_cache(&b);
    assert_eq!(f.block_cache().leaders_sorted(), fresh.leaders_sorted());

    // And the reloaded engine still runs the new image to the right answer.
    f.run(200_000_000);
    assert_eq!(
        f.reg(Reg::A0),
        (kernels::by_name("fac").expect("kernel").reference)(),
        "post-reload run produced the wrong checksum"
    );
}

const CHUNK_KERNELS: [&str; 5] = ["bitcount", "fac", "iir", "pm", "insertsort"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slicing a fast run into arbitrary `run(chunk)` windows — each
    /// boundary can land mid-block, so the next window resumes from the
    /// block cursor — never skips or double-executes: retired count and
    /// final state match a one-shot run exactly.
    #[test]
    fn chunked_runs_conserve_retire_counts(
        kidx in 0..CHUNK_KERNELS.len(),
        chunk in 1u64..3000,
    ) {
        let k = kernels::by_name(CHUNK_KERNELS[kidx]).expect("kernel");
        let prog = build_kernel_program(k, &HarnessConfig::default());

        let mut oneshot = FastIss::new(0);
        oneshot.load_program(&prog);
        oneshot.run(200_000_000);

        let mut chunked = FastIss::new(0);
        chunked.load_program(&prog);
        let mut spent = 0u64;
        while chunked.exit().is_running() && spent < 200_000_000 {
            chunked.run(chunk);
            spent += chunk;
        }

        prop_assert_eq!(chunked.executed(), oneshot.executed(), "retire count differs");
        prop_assert_eq!(chunked.exit(), oneshot.exit());
        prop_assert_eq!(chunked.pc(), oneshot.pc());
        for r in Reg::all() {
            prop_assert_eq!(chunked.reg(r), oneshot.reg(r), "register {} differs", r);
        }
        prop_assert_eq!(chunked.mem.digest(), oneshot.mem.digest(), "memory digest differs");
    }
}
