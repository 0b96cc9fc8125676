//! Block-compiled fast-path execution engine.
//!
//! The cycle-accurate pipeline model ([`crate::Core`]) is the throughput
//! ceiling of every campaign: each simulated cycle pays for stage shuffling,
//! cache lookups and bus arbitration even when the caller only needs the
//! architectural outcome. This module adds a second execution tier that
//! decodes basic blocks **once** into pre-lowered threaded-code ops
//! ([`FastOp`]) and replays them from a per-image cache ([`BlockCache`])
//! keyed on `(entry pc, code version)`.
//!
//! ## Engines
//!
//! Two engine selections are exposed to the CLI as `--engine`:
//!
//! * [`Engine::Cycle`] — the cycle-accurate pipeline model.
//!   Monitor verdicts are a pure function of the per-cycle probe stream
//!   (stage raw bits, register ports, commit counts), so this is the only
//!   engine that produces paper-grade diversity numbers.
//! * [`Engine::Fast`] — whole-run block-compiled functional execution
//!   ([`FastIss`] / [`FastTwin`]): exact RV64IM architectural semantics
//!   (differentially fuzzed against [`crate::Iss`] and the pipeline), with
//!   *nominal* 1-instruction-per-cycle time. Monitor counters reported by
//!   [`FastTwin`] are functional proxies (see its docs), not comparable
//!   byte-for-byte with the cycle engine.
//!
//! SafeDM's signatures hash raw instruction bits and register port values
//! *per cycle*; a functional model has no cycles, ports or stage contents.
//! The fast tier therefore accelerates the places where fidelity is *not*
//! observable: architectural reference runs, twin verification, fuzzing,
//! and `--engine fast` campaigns that only need checksums and functional
//! counters.

mod block;
mod engine;
mod lower;

pub use block::{BlockCache, CompiledBlock, MAX_BLOCK_OPS};
pub use engine::{FastIss, FastTwin, FastTwinRun};
pub use lower::{is_block_end, lower, FastOp};

/// Which execution engine a CLI run or campaign cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Cycle-accurate pipeline model everywhere (the paper-grade default).
    #[default]
    Cycle,
    /// Block-compiled functional execution everywhere; nominal 1-IPC time.
    Fast,
}

impl Engine {
    /// Canonical lower-case name (the `--engine` flag vocabulary).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Cycle => "cycle",
            Engine::Fast => "fast",
        }
    }

    /// Parses a `--engine` value. `hybrid`, the name of a retired engine
    /// that ran every monitored cell on the cycle-accurate model, parses as
    /// [`Engine::Cycle`] so stored `safedm-api/1` specs keep running.
    ///
    /// # Errors
    ///
    /// Returns a CLI-ready message naming the accepted values.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s.trim() {
            "cycle" | "hybrid" => Ok(Engine::Cycle),
            "fast" => Ok(Engine::Fast),
            other => Err(format!("invalid engine `{other}` (expected cycle or fast)")),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        Engine::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_roundtrip() {
        for e in [Engine::Cycle, Engine::Fast] {
            assert_eq!(Engine::parse(e.as_str()), Ok(e));
            assert_eq!(e.as_str().parse::<Engine>(), Ok(e));
            assert_eq!(format!("{e}"), e.as_str());
        }
        assert_eq!(Engine::parse("hybrid"), Ok(Engine::Cycle));
        assert!(Engine::parse("warp").is_err());
        assert_eq!(Engine::default(), Engine::Cycle);
    }
}
