//! Optional functional data-cache hierarchy.
//!
//! The paper's two-step methodology measures runtime on real hardware,
//! where cache behaviour is implicit. Our default timing model folds
//! average cache behaviour into a constant per-access cost; enabling this
//! substrate (`SystemConfig::cache`) replaces that constant with a
//! simulated per-core L1D + L2 in front of a shared LLC, **indexed by
//! physical address** — so huge-page promotions genuinely change cache
//! indexing, and pathological alignment effects (a known THP side effect)
//! can be studied.
//!
//! The model is functional: LRU set-associative levels counting hits and
//! misses, no coherence (the simulator is logically single-threaded per
//! address), no MSHRs.
//!
//! # Example
//!
//! ```
//! use hpage_cache::{CacheConfig, CacheHierarchy};
//! use hpage_types::PhysAddr;
//!
//! let mut caches = CacheHierarchy::new(CacheConfig::typical_per_core(), 1);
//! let line = PhysAddr::new(0x1000);
//! assert_eq!(caches.access(0, line).name(), "memory");   // cold
//! assert_eq!(caches.access(0, line).name(), "L1");       // warm
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpage_types::{ConfigError, PhysAddr};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Hit in the core's L1D.
    L1,
    /// Hit in the core's private L2.
    L2,
    /// Hit in the shared last-level cache.
    Llc,
    /// Missed everything: a memory access.
    Memory,
}

impl CacheOutcome {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::L1 => "L1",
            CacheOutcome::L2 => "L2",
            CacheOutcome::Llc => "LLC",
            CacheOutcome::Memory => "memory",
        }
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheLevelConfig {
    /// Creates a level geometry.
    pub const fn new(bytes: u64, ways: u32, line_bytes: u32) -> Self {
        CacheLevelConfig {
            bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub const fn sets(&self) -> u64 {
        self.bytes / (self.ways as u64 * self.line_bytes as u64)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero sizes, non-power-of-two lines, or
    /// geometry that does not divide evenly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err(ConfigError::new("cache fields must be nonzero"));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new("cache line size must be a power of two"));
        }
        if !self
            .bytes
            .is_multiple_of(u64::from(self.ways) * u64::from(self.line_bytes))
        {
            return Err(ConfigError::new("ways*line must divide capacity"));
        }
        if self.sets() == 0 {
            return Err(ConfigError::new("cache must have at least one set"));
        }
        Ok(())
    }
}

/// Hierarchy configuration: per-core L1D and L2, shared LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Per-core L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Per-core private L2.
    pub l2: CacheLevelConfig,
    /// Shared last-level cache.
    pub llc: CacheLevelConfig,
}

impl CacheConfig {
    /// Typical client-core geometry: 32 KiB/8-way L1D, 256 KiB/8-way L2,
    /// 8 MiB/16-way shared LLC, 64 B lines.
    pub const fn typical_per_core() -> Self {
        CacheConfig {
            l1d: CacheLevelConfig::new(32 << 10, 8, 64),
            l2: CacheLevelConfig::new(256 << 10, 8, 64),
            llc: CacheLevelConfig::new(8 << 20, 16, 64),
        }
    }

    /// A scaled-down hierarchy for fast tests.
    pub const fn tiny() -> Self {
        CacheConfig {
            l1d: CacheLevelConfig::new(2 << 10, 4, 64),
            l2: CacheLevelConfig::new(8 << 10, 4, 64),
            llc: CacheLevelConfig::new(64 << 10, 8, 64),
        }
    }

    /// Checks every level.
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`CacheLevelConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1d.validate()?;
        self.l2.validate()?;
        self.llc.validate()
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::typical_per_core()
    }
}

/// Hit/miss counters for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// Accesses that went to memory.
    pub memory_accesses: u64,
}

impl CacheStats {
    /// Fraction of accesses served from memory.
    pub fn memory_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.memory_accesses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    last_used: u64,
}

#[derive(Debug, Clone)]
struct Level {
    sets: Vec<Vec<Line>>,
    ways: usize,
    line_shift: u32,
}

impl Level {
    fn new(config: CacheLevelConfig) -> Self {
        Level {
            sets: vec![Vec::with_capacity(config.ways as usize); config.sets() as usize],
            ways: config.ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.raw() >> self.line_shift;
        ((line % self.sets.len() as u64) as usize, line)
    }

    /// Looks up and refreshes recency; true on hit.
    fn access(&mut self, addr: PhysAddr, clock: u64) -> bool {
        let (set, tag) = self.index(addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            l.last_used = clock;
            true
        } else {
            false
        }
    }

    /// Installs a line, evicting LRU when full.
    fn fill(&mut self, addr: PhysAddr, clock: u64) {
        let (set, tag) = self.index(addr);
        let set = &mut self.sets[set];
        if set.iter().any(|l| l.tag == tag) {
            return;
        }
        if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("full set is nonempty");
            set.swap_remove(lru);
        }
        set.push(Line {
            tag,
            last_used: clock,
        });
    }
}

/// Per-core L1D + L2 in front of a shared LLC.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<Level>,
    l2: Vec<Level>,
    llc: Level,
    clock: u64,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or `cores == 0`.
    pub fn new(config: CacheConfig, cores: u32) -> Self {
        config.validate().expect("invalid cache config");
        assert!(cores > 0, "need at least one core");
        CacheHierarchy {
            l1: (0..cores).map(|_| Level::new(config.l1d)).collect(),
            l2: (0..cores).map(|_| Level::new(config.l2)).collect(),
            llc: Level::new(config.llc),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs one data access by core `core` to physical address
    /// `addr`, filling the levels on the way back (inclusive hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: PhysAddr) -> CacheOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let clock = self.clock;
        if self.l1[core].access(addr, clock) {
            self.stats.l1_hits += 1;
            return CacheOutcome::L1;
        }
        let outcome = if self.l2[core].access(addr, clock) {
            self.stats.l2_hits += 1;
            CacheOutcome::L2
        } else if self.llc.access(addr, clock) {
            self.stats.llc_hits += 1;
            CacheOutcome::Llc
        } else {
            self.stats.memory_accesses += 1;
            CacheOutcome::Memory
        };
        // Fill inward.
        self.l1[core].fill(addr, clock);
        if outcome != CacheOutcome::L2 {
            self.l2[core].fill(addr, clock);
        }
        if outcome == CacheOutcome::Memory {
            self.llc.fill(addr, clock);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> CacheHierarchy {
        CacheHierarchy::new(CacheConfig::tiny(), 2)
    }

    #[test]
    fn cold_then_warm() {
        let mut c = h();
        let a = PhysAddr::new(0x4000);
        assert_eq!(c.access(0, a), CacheOutcome::Memory);
        assert_eq!(c.access(0, a), CacheOutcome::L1);
        // Same line, different byte: still an L1 hit.
        assert_eq!(c.access(0, PhysAddr::new(0x403F)), CacheOutcome::L1);
        // Next line: miss.
        assert_eq!(c.access(0, PhysAddr::new(0x4040)), CacheOutcome::Memory);
        assert_eq!(c.stats().l1_hits, 2);
        assert_eq!(c.stats().memory_accesses, 2);
    }

    #[test]
    fn llc_is_shared_between_cores() {
        let mut c = h();
        let a = PhysAddr::new(0x9000);
        c.access(0, a);
        // Core 1 misses its private levels but hits the shared LLC.
        assert_eq!(c.access(1, a), CacheOutcome::Llc);
        // And now has it in L1.
        assert_eq!(c.access(1, a), CacheOutcome::L1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut c = h();
        // Fill one L1 set (4 ways) past capacity with same-set lines.
        let l1_sets = CacheConfig::tiny().l1d.sets();
        let stride = 64 * l1_sets;
        for k in 0..5u64 {
            c.access(0, PhysAddr::new(k * stride));
        }
        // Line 0 fell out of L1 but is still in L2.
        assert_eq!(c.access(0, PhysAddr::new(0)), CacheOutcome::L2);
    }

    #[test]
    fn memory_ratio_of_streaming_vs_looping() {
        let mut c = h();
        // Loop over a 1KB buffer (fits L1): low memory ratio.
        for i in 0..4096u64 {
            c.access(0, PhysAddr::new((i % 1024) & !63));
        }
        assert!(c.stats().memory_ratio() < 0.02);
        // Stream far beyond every level: each new line is a memory access.
        let mut c2 = h();
        for i in 0..4096u64 {
            c2.access(0, PhysAddr::new(i * 64));
        }
        assert!(c2.stats().memory_ratio() > 0.95);
    }

    #[test]
    fn geometry_validation() {
        CacheConfig::typical_per_core().validate().unwrap();
        CacheConfig::tiny().validate().unwrap();
        assert!(CacheLevelConfig::new(0, 1, 64).validate().is_err());
        assert!(CacheLevelConfig::new(1024, 1, 48).validate().is_err());
        assert!(CacheLevelConfig::new(1000, 4, 64).validate().is_err());
        assert_eq!(CacheLevelConfig::new(32 << 10, 8, 64).sets(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = CacheHierarchy::new(CacheConfig::tiny(), 0);
    }

    #[test]
    fn outcome_names() {
        assert_eq!(CacheOutcome::L1.name(), "L1");
        assert_eq!(CacheOutcome::Memory.name(), "memory");
    }
}
