//! The fast functional execution engine.
//!
//! The cycle-accurate pipeline model ([`crate::Core`]) is the throughput
//! ceiling of every campaign: each simulated cycle pays for stage shuffling,
//! cache lookups and bus arbitration even when the caller only needs the
//! architectural outcome. The fast engine skips the pipeline: [`FastTwin`]
//! steps two reference [`Iss`] harts in lockstep, one instruction each per
//! step.
//!
//! ## Engines
//!
//! Two engine selections are exposed to the CLI as `--engine`:
//!
//! * [`Engine::Cycle`] — the cycle-accurate pipeline model.
//!   Monitor verdicts are a pure function of the per-cycle probe stream
//!   (stage raw bits, register ports, commit counts), so this is the only
//!   engine that produces paper-grade diversity numbers.
//! * [`Engine::Fast`] — whole-run functional execution on two [`Iss`]
//!   harts ([`FastTwin`]): exact RV64IM architectural semantics (the ISS
//!   is the pipeline's differential reference), with *nominal*
//!   1-instruction-per-cycle time. Monitor counters reported by
//!   [`FastTwin`] are functional proxies (see its docs), not comparable
//!   byte-for-byte with the cycle engine.
//!
//! SafeDM's signatures hash raw instruction bits and register port values
//! *per cycle*; a functional model has no cycles, ports or stage contents.
//! The fast engine therefore serves where fidelity is *not* observable:
//! `--engine fast` campaigns that only need checksums and functional
//! counters.

use safedm_asm::Program;

use crate::Iss;

/// Which execution engine a CLI run or campaign cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Cycle-accurate pipeline model everywhere (the paper-grade default).
    #[default]
    Cycle,
    /// Functional execution on two reference-ISS harts; nominal 1-IPC time.
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

/// Monitor counters from a [`FastTwin`] run. All diversity counters are
/// **functional proxies**, not pipeline observations — see
/// [`FastTwin::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastTwinRun {
    /// Nominal cycles: one per lockstep step, plus one per drained
    /// instruction after the first hart halts (1 IPC).
    pub cycles: u64,
    /// Instructions retired per hart.
    pub instructions: [u64; 2],
    /// Lockstep steps observed (first step until the first hart halts).
    pub observed: u64,
    /// Observed steps with equal retired-instruction counts.
    pub zero_stag: u64,
    /// Observed steps with equal counts *and* equal pcs.
    pub no_div: u64,
    /// Completed no-diversity streaks (a trailing streak counts).
    pub episodes: u64,
    /// Whether the step budget ran out before both harts halted.
    pub timed_out: bool,
}

/// Two [`Iss`] harts stepped in lockstep over the same image — the fast
/// engine's analogue of a redundant monitored pair.
#[derive(Debug)]
pub struct FastTwin {
    harts: [Iss; 2],
}

impl Default for FastTwin {
    fn default() -> FastTwin {
        FastTwin::new()
    }
}

impl FastTwin {
    /// A twin pair (harts 0 and 1).
    #[must_use]
    pub fn new() -> FastTwin {
        FastTwin { harts: [Iss::new(0), Iss::new(1)] }
    }

    /// Loads the same program into both harts.
    pub fn load_program(&mut self, prog: &Program) {
        for h in &mut self.harts {
            h.load_program(prog);
        }
    }

    /// Hart `i` (0 or 1).
    #[must_use]
    pub fn hart(&self, i: usize) -> &Iss {
        &self.harts[i]
    }

    /// Runs both harts and reports functional monitor proxies.
    ///
    /// Per lockstep step, each running hart retires exactly one
    /// instruction, so the proxies are:
    ///
    /// * `zero_stag` — retired counts equal (the committed-instruction
    ///   stagger the paper's DS staleness argument hinges on);
    /// * `no_div` — counts equal **and** pcs equal: with identical images,
    ///   mirrored private data and deterministic functional execution,
    ///   equal pcs at equal retire counts means both harts are executing
    ///   the same instruction with the same operands — the functional
    ///   shadow of `DS && IS` matching.
    ///
    /// The observed window runs from the first step until the first hart
    /// halts (the same window the monitored cycle protocol uses); the
    /// surviving hart is then drained with cycles counted at 1 IPC.
    pub fn run(&mut self, budget: u64) -> FastTwinRun {
        let mut out = FastTwinRun::default();
        let mut in_episode = false;
        while out.cycles < budget
            && self.harts[0].exit().is_running()
            && self.harts[1].exit().is_running()
        {
            self.harts[0].step();
            self.harts[1].step();
            out.cycles += 1;
            out.observed += 1;
            let zs = self.harts[0].executed() == self.harts[1].executed();
            if zs {
                out.zero_stag += 1;
            }
            if zs && self.harts[0].pc() == self.harts[1].pc() {
                out.no_div += 1;
                in_episode = true;
            } else if in_episode {
                in_episode = false;
                out.episodes += 1;
            }
        }
        if in_episode {
            out.episodes += 1;
        }
        // The monitor window ended at the first halt; drain the straggler.
        for h in &mut self.harts {
            if h.exit().is_running() {
                let before = h.executed();
                h.run(budget.saturating_sub(out.cycles));
                out.cycles += h.executed() - before;
            }
        }
        out.timed_out = self.harts.iter().any(|h| h.exit().is_running());
        out.instructions = [self.harts[0].executed(), self.harts[1].executed()];
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;
    use safedm_isa::Reg;

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

    #[test]
    fn twin_identical_images_never_diverge() {
        let mut a = Asm::new();
        a.li(Reg::T0, 100);
        a.li(Reg::A0, 0);
        let top = a.here("top");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let mut twin = FastTwin::new();
        twin.load_program(&a.link(0x8000_0000).unwrap());
        let out = twin.run(1_000_000);
        assert!(!out.timed_out);
        assert_eq!(out.zero_stag, out.observed);
        assert_eq!(out.no_div, out.observed);
        assert_eq!(out.episodes, 1);
        assert_eq!(out.instructions[0], out.instructions[1]);
        assert_eq!(twin.hart(0).reg(Reg::A0), 5050);
        assert_eq!(twin.hart(1).reg(Reg::A0), 5050);
    }
}
