//! Per-image block cache: straight-line regions compiled once.
//!
//! [`BlockCache::install_image`] scans the loaded text section once,
//! computing the same basic-block *leader* set as the static CFG builder
//! (`safedm_analysis::cfg::Cfg::build`): slot 0 and the entry point are
//! leaders; the slot after an undecodable word is a leader; for every
//! control-flow instruction (plus `ecall`/`ebreak`) the next slot and any
//! direct in-text target (`jal`/branch) are leaders. Agreement with the
//! analysis crate is enforced by a property test, so fast-path block
//! boundaries and statically proven block boundaries can never drift apart.
//!
//! [`BlockCache::block_at`] then compiles (and memoises) the straight-line
//! run starting at any pc — leaders *and* arbitrary indirect-jump landing
//! pads — stopping after control flow, before the next leader, at the end
//! of text, before an undecodable word, or at [`MAX_BLOCK_OPS`]. Blocks are
//! keyed on `(entry pc, code version)`; reloading an image bumps the
//! version and drops every stale block, so self-modifying *loads* (the only
//! way code can change — stores to code trap) can never replay stale ops.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use safedm_isa::decode;

use super::lower::{is_block_end, lower, FastOp};
use crate::{MainMemory, MemSpace};

/// Upper bound on ops per compiled block; keeps pathological leader-free
/// images (e.g. giant nop sleds) from compiling unbounded blocks.
pub const MAX_BLOCK_OPS: usize = 1024;

/// One compiled straight-line region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBlock {
    /// Address of the first op.
    pub base_pc: u64,
    /// Pre-lowered ops, one per 4-byte slot from `base_pc`.
    pub ops: Vec<FastOp>,
}

impl CompiledBlock {
    /// The pc of op `idx`.
    #[must_use]
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.base_pc + 4 * idx as u64
    }
}

/// Cache of compiled blocks for the currently installed code image.
#[derive(Debug, Default)]
pub struct BlockCache {
    version: u64,
    code_range: (u64, u64),
    leaders: HashSet<u64>,
    blocks: HashMap<(u64, u64), Arc<CompiledBlock>>,
}

impl BlockCache {
    /// An empty cache with no image installed.
    #[must_use]
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Current code version; bumped by every [`BlockCache::install_image`].
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of blocks compiled for the current image.
    #[must_use]
    pub fn compiled_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// (Re)installs a code image: bumps the version, drops every cached
    /// block, and recomputes the leader set for `[code_range.0,
    /// code_range.1)` with `entry` as the program entry point.
    pub fn install_image(&mut self, mem: &MainMemory, code_range: (u64, u64), entry: u64) {
        self.version += 1;
        self.code_range = code_range;
        self.blocks.clear();
        self.leaders.clear();
        let (base, end) = code_range;
        if base >= end {
            return;
        }
        let in_text = |pc: u64| pc >= base && pc < end && (pc - base).is_multiple_of(4);
        self.leaders.insert(base);
        if in_text(entry) {
            self.leaders.insert(entry);
        }
        let mut pc = base;
        while pc < end {
            let word = mem.read_word(MemSpace::Code, pc);
            match decode(word) {
                Err(_) => {
                    // Undecodable word: traps, so the next slot starts fresh.
                    if pc + 4 < end {
                        self.leaders.insert(pc + 4);
                    }
                }
                Ok(inst) => {
                    if is_block_end(&inst) {
                        if pc + 4 < end {
                            self.leaders.insert(pc + 4);
                        }
                        // Direct targets, mirroring `cfg::flow_targets`:
                        // jal and branches have one; jalr/ecall/ebreak none.
                        let target = match inst {
                            safedm_isa::Inst::Jal { offset, .. }
                            | safedm_isa::Inst::Branch { offset, .. } => {
                                Some(pc.wrapping_add(offset as u64))
                            }
                            _ => None,
                        };
                        if let Some(t) = target {
                            if in_text(t) {
                                self.leaders.insert(t);
                            }
                        }
                    }
                }
            }
            pc += 4;
        }
    }

    /// The leader set in ascending address order (test/diagnostic aid).
    #[must_use]
    pub fn leaders_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.leaders.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The compiled block starting at `pc`, compiling and caching it on
    /// first use. Returns `None` when the word at `pc` does not decode
    /// (the caller raises the illegal-instruction trap). `pc` must be a
    /// 4-aligned address inside the installed code range.
    pub fn block_at(&mut self, mem: &MainMemory, pc: u64) -> Option<Arc<CompiledBlock>> {
        debug_assert!(pc >= self.code_range.0 && pc < self.code_range.1);
        debug_assert!(pc.is_multiple_of(4));
        if let Some(b) = self.blocks.get(&(pc, self.version)) {
            return Some(Arc::clone(b));
        }
        let mut ops = Vec::new();
        let mut cur = pc;
        loop {
            let word = mem.read_word(MemSpace::Code, cur);
            let Ok(inst) = decode(word) else {
                // An undecodable word is never *inside* a block (the slot
                // after one is a leader), so it can only be the entry.
                break;
            };
            ops.push(lower(cur, &inst));
            cur += 4;
            if is_block_end(&inst)
                || cur >= self.code_range.1
                || self.leaders.contains(&cur)
                || ops.len() >= MAX_BLOCK_OPS
            {
                break;
            }
        }
        if ops.is_empty() {
            return None;
        }
        let block = Arc::new(CompiledBlock { base_pc: pc, ops });
        self.blocks.insert((pc, self.version), Arc::clone(&block));
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;
    use safedm_isa::Reg;

    fn image(build: impl FnOnce(&mut Asm)) -> (MainMemory, (u64, u64), u64) {
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.link(0x8000_0000).unwrap();
        let mut mem = MainMemory::new();
        mem.write(MemSpace::Code, prog.text_base, &prog.text);
        ((mem), (prog.text_base, prog.text_base + prog.text_size()), prog.entry)
    }

    #[test]
    fn blocks_stop_at_control_flow_and_leaders() {
        let (mem, range, entry) = image(|a| {
            a.li(Reg::T0, 3); // 0x00
            let top = a.here("top"); // 0x04 — branch target => leader
            a.addi(Reg::T0, Reg::T0, -1); // 0x04
            a.bnez(Reg::T0, top); // 0x08 — block end; next is leader
            a.ebreak(); // 0x0c
        });
        let mut cache = BlockCache::new();
        cache.install_image(&mem, range, entry);
        // li may expand to >1 inst; resolve the branch-target leader set.
        let leaders = cache.leaders_sorted();
        assert!(leaders.contains(&range.0));
        // Entry block runs up to (not into) the loop-top leader.
        let b = cache.block_at(&mem, range.0).unwrap();
        assert_eq!(b.base_pc, range.0);
        assert!(leaders.contains(&(b.base_pc + 4 * b.ops.len() as u64)));
        // The loop body block ends at the branch.
        let top = leaders[1];
        let body = cache.block_at(&mem, top).unwrap();
        assert!(matches!(body.ops.last(), Some(FastOp::Branch { .. })));
        // Memoised: same Arc on re-query.
        let again = cache.block_at(&mem, top).unwrap();
        assert!(Arc::ptr_eq(&body, &again));
    }

    #[test]
    fn reinstall_bumps_version_and_drops_blocks() {
        let (mem, range, entry) = image(|a| {
            a.li(Reg::A0, 1);
            a.ebreak();
        });
        let mut cache = BlockCache::new();
        cache.install_image(&mem, range, entry);
        let v1 = cache.version();
        let b1 = cache.block_at(&mem, range.0).unwrap();
        assert_eq!(cache.compiled_blocks(), 1);
        cache.install_image(&mem, range, entry);
        assert!(cache.version() > v1);
        assert_eq!(cache.compiled_blocks(), 0);
        let b2 = cache.block_at(&mem, range.0).unwrap();
        assert!(!Arc::ptr_eq(&b1, &b2));
        assert_eq!(*b1, *b2); // same image => same lowering
    }

    #[test]
    fn undecodable_entry_yields_none() {
        let (mut mem, range, entry) = image(|a| {
            a.li(Reg::A0, 1);
            a.ebreak();
        });
        mem.write(MemSpace::Code, range.0, &0xffff_ffffu32.to_le_bytes());
        let mut cache = BlockCache::new();
        cache.install_image(&mem, range, entry);
        assert!(cache.block_at(&mem, range.0).is_none());
        // The slot after the bad word is a leader and compiles fine.
        assert!(cache.leaders_sorted().contains(&(range.0 + 4)));
        assert!(cache.block_at(&mem, range.0 + 4).is_some());
    }
}
