//! # safedm-core — the SafeDM hardware diversity monitor
//!
//! Behavioural model of **SafeDM** (Bas et al., DATE 2022): a hardware
//! module that quantifies the diversity between two cores performing
//! redundant execution on a non-lockstepped MPSoC, enabling an ASIL-D
//! safety concept without lockstep and without intrusive staggering
//! enforcement.
//!
//! Every cycle, SafeDM captures each core's
//! [`DataSignature`] (register-file port traffic over the last *n* cycles)
//! and [`InstructionSignature`] (per-stage pipeline occupancy) and flags
//! **lack of diversity** exactly when both signatures are bit-identical
//! across the cores ([`SafeDm::observe`]). Lack of diversity means a common
//! cause fault could produce identical errors in both cores and escape
//! output comparison; diversity means it cannot. The monitor may raise
//! false positives (unobserved diversity sources) but never false
//! negatives.
//!
//! The crate also provides:
//!
//! * [`InstructionDiff`] — the staggering counter of the paper's evaluation,
//! * [`Histogram`]/[`EpisodeTracker`] — the History module,
//! * APB integration ([`regs`], mirrored register bank),
//! * [`SafeDe`] — the *intrusive* staggering-enforcement baseline
//!   (IOLTS 2021) used for the Table II comparison, and
//! * [`MonitoredSoc`] — an MPSoC with one SafeDM per redundant core pair,
//!   ready to run redundant bare-metal programs under an optional per-cycle
//!   observer ([`MonitoredSoc::run_with`]), e.g. a [`RunObserver`].
//!
//! ## Example
//!
//! ```
//! use safedm_asm::Asm;
//! use safedm_core::{MonitoredSoc, SafeDmConfig};
//! use safedm_isa::Reg;
//! use safedm_soc::SocConfig;
//!
//! // A redundant countdown loop on both cores.
//! let mut a = Asm::new();
//! a.li(Reg::T0, 1000);
//! let top = a.here("top");
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, top);
//! a.ebreak();
//! let prog = a.link(0x8000_0000)?;
//!
//! let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
//! sys.load_program(&prog);
//! let out = sys.run(10_000_000);
//! assert!(out.run.all_clean());
//! // Bus serialisation produces natural diversity: far fewer cycles
//! // without diversity than cycles with zero staggering.
//! assert!(out.no_div_cycles <= out.zero_stag_cycles);
//! # Ok::<(), safedm_asm::AsmError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod dcls;
mod diff;
mod fifo;
mod history;
mod monitor;
mod obs;
pub mod regs;
mod safede;
mod signature;
mod system;

pub use config::{IsLayout, ReportMode, SafeDmConfig};
pub use dcls::DclsComparator;
pub use diff::InstructionDiff;
pub use fifo::HoldFifo;
pub use history::{EpisodeTracker, Histogram};
pub use monitor::{CycleReport, DiversityCounters, HammingStats, SafeDm};
pub use obs::{ObsConfig, RunObserver};
pub use safede::{SafeDe, SafeDeConfig};
pub use signature::{DataSample, DataSignature, InstructionSignature, DATA_PORTS};
pub use system::{MonitoredRun, MonitoredSoc, TraceSample, SAFEDM_APB_OFFSET};
