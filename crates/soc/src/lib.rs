//! # safedm-soc — cycle-accurate NOEL-V-like MPSoC model
//!
//! The platform substrate of the SafeDM reproduction: a multicore RV64IM
//! system modelled after the Cobham Gaisler NOEL-V MPSoC used in the paper
//! (DATE 2022). Each core is a dual-issue, in-order, 7-stage pipeline with
//! private L1 instruction and data caches (write-through, write-no-allocate)
//! and a coalescing store buffer; the cores share an AHB-like arbitrated bus,
//! an L2 cache, a memory controller and an APB peripheral bridge.
//!
//! The crate's purpose is to expose, cycle by cycle, exactly the signals the
//! SafeDM hardware taps: per-stage instruction occupancy, register-file port
//! activity, the pipeline hold signal and commit counts — see [`CoreProbe`].
//! Probes are handed out by shared reference only, so observers cannot
//! perturb execution (the paper's non-intrusiveness property).
//!
//! ## Example
//!
//! ```
//! use safedm_asm::Asm;
//! use safedm_isa::Reg;
//! use safedm_soc::{MpSoc, SocConfig};
//!
//! let mut a = Asm::new();
//! a.li(Reg::T0, 25);
//! a.li(Reg::A0, 0);
//! let top = a.here("top");
//! a.add(Reg::A0, Reg::A0, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, top);
//! a.ebreak();
//! let prog = a.link(0x8000_0000)?;
//!
//! let mut soc = MpSoc::new(SocConfig::default());
//! soc.load_program(&prog);
//! let result = soc.run(1_000_000);
//! assert!(result.all_clean());
//! // Both cores ran the program redundantly:
//! assert_eq!(soc.core(0).reg(Reg::A0), 325);
//! assert_eq!(soc.core(1).reg(Reg::A0), 325);
//! # Ok::<(), safedm_asm::AsmError>(())
//! ```

#![warn(missing_docs)]

mod apb;
mod bus;
mod cache;
mod config;
mod exit;
pub mod fastpath;
mod iss;
mod mem;
mod mpsoc;
mod obs;
mod pipeline;
pub mod probe;
mod regfile;
mod storebuf;
mod vcd;

pub use apb::ApbRegisterFile;
pub use bus::{BusOp, BusResult, BusStats, BusUnit, PortId, Uncore, UNITS_PER_CORE};
pub use cache::TagCache;
pub use config::{ArbitrationPolicy, CacheConfig, SocConfig};
pub use exit::{CoreExit, TrapCause};
pub use fastpath::Engine;
pub use iss::Iss;
pub use mem::{MainMemory, MemSpace};
pub use mpsoc::{MpSoc, RunResult};
pub use obs::SocMetrics;
pub use pipeline::{CommitRecord, Core, CoreStats};
pub use probe::{
    CoreProbe, PortSample, StageSlot, PIPE_STAGES, PIPE_WIDTH, PORT_WORDS, READ_PORTS, WRITE_PORTS,
};
pub use regfile::RegFile;
pub use storebuf::{SbEntry, SbForward, StoreBuffer, MAX_LINE};
pub use vcd::{Channel, ProbeVcd};
