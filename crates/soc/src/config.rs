//! Configuration of the modelled MPSoC.

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two, at least 8).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Bus arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Fair round-robin (default; the AMBA-typical choice).
    #[default]
    RoundRobin,
    /// Fixed priority by port index (core 0 always wins ties): the
    /// systematically-unfair variant, which biases which redundant core
    /// leads after contention.
    FixedPriority,
}

/// Full configuration of the MPSoC model.
///
/// The defaults approximate the Cobham Gaisler NOEL-V based platform used in
/// the SafeDM paper: two dual-issue in-order 7-stage RV64 cores, 16 KiB
/// private L1s (write-through, write-no-allocate data cache), a shared
/// 128 KiB L2 behind an AHB-like arbitrated bus, and an APB peripheral port.
///
/// # Examples
///
/// ```
/// use safedm_soc::SocConfig;
///
/// let cfg = SocConfig::default();
/// assert_eq!(cfg.cores, 2);
/// assert_eq!(cfg.l1d.capacity(), 16 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocConfig {
    /// Number of cores (the diversity monitor observes the first two).
    pub cores: usize,
    /// Base address of RAM.
    pub ram_base: u64,
    /// RAM size in bytes.
    pub ram_size: u64,
    /// Base address of the APB peripheral window.
    pub apb_base: u64,
    /// Size of the APB window in bytes.
    pub apb_size: u64,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry (write-through, write-no-allocate).
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L2 lookup latency in bus-clock cycles.
    pub l2_latency: u32,
    /// Main-memory access latency in cycles (on L2 miss).
    pub mem_latency: u32,
    /// Bus transfer beats per line (AHB is 128-bit wide: 2 beats for 32 B).
    pub beat_latency: u32,
    /// APB access latency in cycles.
    pub apb_latency: u32,
    /// Multiplier latency in cycles.
    pub mul_latency: u32,
    /// Divider latency in cycles.
    pub div_latency: u32,
    /// Store-buffer capacity in line-granular entries.
    pub store_buffer_entries: usize,
    /// Cycles a store-buffer entry waits (coalescing window) before the
    /// buffer requests the bus, unless the buffer is full.
    pub store_drain_delay: u32,
    /// Bus arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// Amplitude (in cycles) of deterministic pseudo-random main-memory
    /// latency jitter; `0` disables it. Models DRAM state differences
    /// between otherwise identical runs.
    pub mem_jitter: u32,
    /// Seed for the memory-latency jitter sequence.
    pub jitter_seed: u64,
}

impl Default for SocConfig {
    fn default() -> SocConfig {
        SocConfig {
            cores: 2,
            ram_base: 0x8000_0000,
            ram_size: 16 * 1024 * 1024,
            apb_base: 0xfc00_0000,
            apb_size: 0x1_0000,
            l1i: CacheConfig { sets: 128, ways: 4, line_bytes: 32 },
            l1d: CacheConfig { sets: 128, ways: 4, line_bytes: 32 },
            l2: CacheConfig { sets: 512, ways: 8, line_bytes: 32 },
            l2_latency: 6,
            mem_latency: 28,
            beat_latency: 2,
            apb_latency: 8,
            mul_latency: 3,
            div_latency: 12,
            store_buffer_entries: 4,
            store_drain_delay: 6,
            arbitration: ArbitrationPolicy::RoundRobin,
            mem_jitter: 0,
            jitter_seed: 0,
        }
    }
}

impl SocConfig {
    /// End of RAM (exclusive).
    #[must_use]
    pub fn ram_end(&self) -> u64 {
        self.ram_base + self.ram_size
    }

    /// Whether `addr` falls in the RAM window.
    #[must_use]
    pub fn in_ram(&self, addr: u64, size: u64) -> bool {
        addr >= self.ram_base && addr + size <= self.ram_end()
    }

    /// Whether `addr` falls in the APB window.
    #[must_use]
    pub fn in_apb(&self, addr: u64, size: u64) -> bool {
        addr >= self.apb_base && addr + size <= self.apb_base + self.apb_size
    }

    /// Validates internal consistency (power-of-two geometries, at least one
    /// core, coherent windows).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an invalid configuration; called
    /// from [`MpSoc::new`](crate::MpSoc::new).
    pub fn validate(&self) {
        assert!(self.cores >= 1, "at least one core required");
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            assert!(c.sets.is_power_of_two(), "{name}: sets must be a power of two");
            assert!(
                c.line_bytes.is_power_of_two() && c.line_bytes >= 8,
                "{name}: line size must be a power of two >= 8"
            );
            assert!(c.ways >= 1, "{name}: at least one way");
        }
        assert_eq!(self.l1i.line_bytes, self.l2.line_bytes, "L1I/L2 line sizes must match");
        assert_eq!(self.l1d.line_bytes, self.l2.line_bytes, "L1D/L2 line sizes must match");
        assert!(self.store_buffer_entries >= 1, "store buffer needs an entry");
        assert!(
            self.ram_size > 0 && self.ram_base.is_multiple_of(self.l2.line_bytes),
            "RAM must be line-aligned and non-empty"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_noelv_like() {
        let c = SocConfig::default();
        c.validate();
        assert_eq!(c.l1i.capacity(), 16 * 1024);
        assert_eq!(c.l2.capacity(), 128 * 1024);
        assert_eq!(c.l1d.line_bytes, 32);
    }

    #[test]
    fn window_checks() {
        let c = SocConfig::default();
        assert!(c.in_ram(c.ram_base, 8));
        assert!(c.in_ram(c.ram_end() - 8, 8));
        assert!(!c.in_ram(c.ram_end() - 4, 8));
        assert!(!c.in_ram(c.ram_base - 1, 1));
        assert!(c.in_apb(c.apb_base + 8, 4));
        assert!(!c.in_apb(c.ram_base, 4));
    }

    #[test]
    #[should_panic(expected = "sets must be a power of two")]
    fn invalid_sets_panics() {
        let mut c = SocConfig::default();
        c.l1i.sets = 3;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "line sizes must match")]
    fn mismatched_lines_panic() {
        let mut c = SocConfig::default();
        c.l1d.line_bytes = 64;
        c.validate();
    }
}
