//! The multiprocessor system-on-chip: cores + uncore, stepped together.

use std::sync::Arc;

use safedm_asm::Program;

use crate::iss::Text;
use crate::{Core, CoreExit, CoreProbe, MainMemory, MemSpace, SocConfig, Uncore};

/// Outcome of [`MpSoc::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles elapsed during this run call.
    pub cycles: u64,
    /// Exit state per core.
    pub exits: Vec<CoreExit>,
    /// `true` when the cycle budget expired before all cores halted.
    pub timed_out: bool,
}

impl RunResult {
    /// Whether every core halted cleanly (`ebreak`/`ecall`).
    #[must_use]
    pub fn all_clean(&self) -> bool {
        !self.timed_out && self.exits.iter().all(CoreExit::is_clean)
    }
}

/// The modelled MPSoC: `cfg.cores` NOEL-V-like cores sharing an AHB bus,
/// L2, memory and APB peripherals.
///
/// # Examples
///
/// ```
/// use safedm_asm::Asm;
/// use safedm_isa::Reg;
/// use safedm_soc::{MpSoc, SocConfig};
///
/// let mut a = Asm::new();
/// a.li(Reg::A0, 7);
/// a.ebreak();
/// let prog = a.link(0x8000_0000)?;
///
/// let mut soc = MpSoc::new(SocConfig::default());
/// soc.load_program(&prog);
/// let result = soc.run(100_000);
/// assert!(result.all_clean());
/// assert_eq!(soc.core(0).reg(Reg::A0), 7);
/// # Ok::<(), safedm_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct MpSoc {
    cfg: SocConfig,
    cores: Vec<Core>,
    uncore: Uncore,
    cycle: u64,
    /// The loaded program's text, decoded once and shared with the cores.
    text: Arc<Text>,
}

impl MpSoc {
    /// Builds the SoC.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`SocConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SocConfig) -> MpSoc {
        cfg.validate();
        let cores = (0..cfg.cores).map(|i| Core::new(i, &cfg)).collect();
        let uncore = Uncore::new(&cfg);
        MpSoc { cfg, cores, uncore, cycle: 0, text: Arc::default() }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Loads `prog` for every core (shared read-only text, decoded once;
    /// per-core private data mirrors) and resets all cores to the entry
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_program(&mut self, prog: &Program) {
        self.text = Arc::new(Text::load(&self.cfg, &mut self.uncore.mem, prog));
        for (i, core) in self.cores.iter_mut().enumerate() {
            self.uncore.mem.write(MemSpace::Private(i), prog.data_base, &prog.data);
            core.set_text(Arc::clone(&self.text));
            core.reset(prog.entry);
        }
        self.cycle = 0;
    }

    /// Advances the whole SoC by one clock cycle.
    pub fn step(&mut self) {
        self.uncore.step();
        for core in &mut self.cores {
            core.step(&mut self.uncore);
        }
        self.cycle += 1;
    }

    /// Advances the whole SoC by one clock cycle, attributing wall-clock
    /// time per component to `prof` (`uncore`, `core0`, `core1`, …).
    ///
    /// Functionally identical to [`MpSoc::step`]; the timing overhead is
    /// two `Instant` reads per component per cycle, so use plain `step`
    /// when profiling is off.
    pub fn step_profiled(&mut self, prof: &mut safedm_obs::SelfProfiler) {
        const CORE_PHASE: [&str; 8] =
            ["core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7"];
        let uncore = &mut self.uncore;
        prof.time_named("uncore", || uncore.step());
        for (i, core) in self.cores.iter_mut().enumerate() {
            let name = CORE_PHASE.get(i).copied().unwrap_or("coreN");
            prof.time_named(name, || core.step(uncore));
        }
        self.cycle += 1;
    }

    /// Runs until all cores halt **and** their store buffers drain, or until
    /// `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let start = self.cycle;
        while self.cycle - start < max_cycles {
            if self.all_halted() && self.cores.iter().all(|c| c.store_buffer_len() == 0) {
                return RunResult {
                    cycles: self.cycle - start,
                    exits: self.cores.iter().map(Core::exit).collect(),
                    timed_out: false,
                };
            }
            self.step();
        }
        RunResult {
            cycles: self.cycle - start,
            exits: self.cores.iter().map(Core::exit).collect(),
            timed_out: !self.all_halted(),
        }
    }

    /// Whether every core has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(Core::halted)
    }

    /// Global cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Shared access to core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to core `i` (fault injection, SafeDE stall line).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The per-cycle probe of core `i` (what SafeDM observes).
    #[must_use]
    pub fn probe(&self, i: usize) -> &CoreProbe {
        self.cores[i].probe()
    }

    /// The shared uncore.
    #[must_use]
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable uncore access (APB slave registration, memory backdoor).
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// Functional memory backdoor.
    #[must_use]
    pub fn mem(&self) -> &MainMemory {
        &self.uncore.mem
    }

    /// Reads an aligned doubleword from core `core`'s view of RAM (code
    /// addresses read the shared code space, everything else the core's
    /// private mirror).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the RAM window.
    #[must_use]
    pub fn read_dword(&self, core: usize, addr: u64) -> u64 {
        let space = if self.text.contains(addr) { MemSpace::Code } else { MemSpace::Private(core) };
        self.uncore.mem.read_dword_window(space, addr & !7)
    }
}
