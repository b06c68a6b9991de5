//! Evaluation-system configuration.
//!
//! [`SystemConfig::paper_system`] reproduces the paper's Table 2 (Intel Xeon
//! E5-2667 v3, Linux v5.15): the TLB hierarchy geometry, the PCC geometry,
//! and the promotion cadence. Everything is adjustable so the sensitivity
//! studies (Fig. 6) and scaled-down test configs can be expressed.

use crate::addr::PageSize;
use crate::error::ConfigError;

/// Geometry of one TLB level for one page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbLevelConfig {
    /// Total number of entries.
    pub entries: u32,
    /// Associativity (`entries` for fully associative).
    pub ways: u32,
}

impl TlbLevelConfig {
    /// Creates a geometry; `ways == 0` or non-dividing geometry is rejected
    /// at [`validate`](Self::validate) time.
    pub const fn new(entries: u32, ways: u32) -> Self {
        TlbLevelConfig { entries, ways }
    }

    /// Number of sets (`entries / ways`).
    pub const fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries` or `ways` is zero, `ways`
    /// does not divide `entries`, or `ways` exceeds 64.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 || self.ways == 0 {
            return Err(ConfigError::new("TLB entries and ways must be nonzero"));
        }
        if !self.entries.is_multiple_of(self.ways) {
            return Err(ConfigError::new("TLB ways must divide entries"));
        }
        // A set search matches all ways into one 64-bit mask.
        if self.ways > 64 {
            return Err(ConfigError::new("TLB ways must be at most 64"));
        }
        Ok(())
    }
}

/// Configuration of a core's data-TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// L1 D-TLB for 4 KiB pages.
    pub l1_4k: TlbLevelConfig,
    /// L1 D-TLB for 2 MiB pages.
    pub l1_2m: TlbLevelConfig,
    /// L1 D-TLB for 1 GiB pages.
    pub l1_1g: TlbLevelConfig,
    /// Unified L2 TLB (4 KiB and 2 MiB entries share it, as on Haswell,
    /// whose STLB does not cache 1 GiB entries).
    pub l2: TlbLevelConfig,
}

impl TlbConfig {
    /// The paper's Table 2 TLB hierarchy (Haswell Xeon E5-2667 v3).
    pub const fn paper() -> Self {
        TlbConfig {
            l1_4k: TlbLevelConfig::new(64, 4),
            l1_2m: TlbLevelConfig::new(32, 4),
            l1_1g: TlbLevelConfig::new(4, 4),
            l2: TlbLevelConfig::new(1024, 8),
        }
    }

    /// A scaled-down hierarchy for fast unit tests (ratios preserved).
    pub const fn tiny() -> Self {
        TlbConfig {
            l1_4k: TlbLevelConfig::new(8, 4),
            l1_2m: TlbLevelConfig::new(4, 4),
            l1_1g: TlbLevelConfig::new(2, 2),
            l2: TlbLevelConfig::new(64, 8),
        }
    }

    /// The L1 geometry used for `size` pages.
    pub const fn l1_for(&self, size: PageSize) -> TlbLevelConfig {
        match size {
            PageSize::Base4K => self.l1_4k,
            PageSize::Huge2M => self.l1_2m,
            PageSize::Huge1G => self.l1_1g,
        }
    }

    /// Checks internal consistency of all levels.
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`TlbLevelConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1_4k.validate()?;
        self.l1_2m.validate()?;
        self.l1_1g.validate()?;
        self.l2.validate()
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::paper()
    }
}

/// Configuration of one promotion candidate cache (§3.2.1 and Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PccConfig {
    /// Number of entries (fully associative). Paper default: 128 for the
    /// 2 MiB PCC, 8 for the 1 GiB PCC.
    pub entries: u32,
    /// Width in bits of the saturating frequency counter (paper: 8).
    pub counter_bits: u32,
    /// Width in bits of the virtual-address-prefix tag (paper: 40 bits for
    /// the 2 MiB PCC on a 61-bit VA space, 31 bits for the 1 GiB PCC).
    pub tag_bits: u32,
    /// Insert only when the page-table accessed bit at the region's level
    /// was already set (the paper's cold-miss filter). Ablation switch.
    pub access_bit_filter: bool,
    /// Halve all counters whenever one saturates (the paper's decay
    /// function). Ablation switch.
    pub decay_on_saturation: bool,
}

impl PccConfig {
    /// The paper's 128-entry 2 MiB PCC.
    pub const fn paper_2m() -> Self {
        PccConfig {
            entries: 128,
            counter_bits: 8,
            tag_bits: 40,
            access_bit_filter: true,
            decay_on_saturation: true,
        }
    }

    /// The paper's 8-entry 1 GiB PCC.
    pub const fn paper_1g() -> Self {
        PccConfig {
            entries: 8,
            counter_bits: 8,
            tag_bits: 31,
            access_bit_filter: true,
            decay_on_saturation: true,
        }
    }

    /// Same geometry with a different entry count (Fig. 6 sweep).
    #[must_use]
    pub const fn with_entries(mut self, entries: u32) -> Self {
        self.entries = entries;
        self
    }

    /// Maximum counter value (`2^counter_bits - 1`).
    pub const fn counter_max(&self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }

    /// Storage for one entry in bits (tag + counter).
    pub const fn entry_bits(&self) -> u64 {
        self.tag_bits as u64 + self.counter_bits as u64
    }

    /// Total storage in bytes, rounding each entry up to whole bytes the
    /// way the paper does (40-bit tag + 8-bit counter = "6B").
    pub const fn storage_bytes(&self) -> u64 {
        let entry_bytes = self.entry_bits().div_ceil(8);
        entry_bytes * self.entries as u64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any field is zero or the counter is wider
    /// than 63 bits.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::new("PCC must have at least one entry"));
        }
        if self.counter_bits == 0 || self.counter_bits > 63 {
            return Err(ConfigError::new("PCC counter bits must be in 1..=63"));
        }
        if self.tag_bits == 0 || self.tag_bits > 64 {
            return Err(ConfigError::new("PCC tag bits must be in 1..=64"));
        }
        Ok(())
    }
}

impl Default for PccConfig {
    fn default() -> Self {
        PccConfig::paper_2m()
    }
}

/// Geometry of a split page-walk (paging-structure) cache. Modelled in
/// `hpage-tlb`; optional in the simulation because the paper treats PWCs
/// as a design *alternative* (§5.4.1): they shorten walks but cannot
/// identify promotion candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PwcConfig {
    /// PML4E-cache entries (512 GiB-region tags).
    pub pml4e_entries: u32,
    /// PDPTE-cache entries (1 GiB-region tags).
    pub pdpte_entries: u32,
    /// PDE-cache entries (2 MiB-region tags).
    pub pde_entries: u32,
}

impl PwcConfig {
    /// A typical modern-CPU geometry (4/32/64).
    pub const fn typical() -> Self {
        PwcConfig {
            pml4e_entries: 4,
            pdpte_entries: 32,
            pde_entries: 64,
        }
    }

    /// Geometry scaled in proportion to a shrunken L2 TLB, each array
    /// floored at one entry.
    ///
    /// [`typical`](Self::typical) pairs with the paper's 1024-entry L2
    /// (Table 2). Scaled-down experiment profiles shrink the TLB so
    /// coverage ratios hold at small footprints; a full-size PWC against
    /// such a footprint never misses (mean references pins at 1.0
    /// instead of the paper's 1.1–1.4 band). Scaling each array by the
    /// same factor as the L2 keeps the PWC-reach-to-TLB-reach ratio.
    ///
    /// The floor keeps the result valid at any L2 size: a one-entry
    /// upper-level array is a legitimate (if tiny) structure cache, and
    /// the scaled-down profiles need *some* PWC to show realistic
    /// walk-cost pressure. Nested (2D) geometry does not come from here:
    /// it is [`NestedConfig`]'s own, checked by
    /// [`NestedConfig::validate`].
    #[must_use]
    pub fn scaled_to_tlb(l2_entries: u32) -> Self {
        const PAPER_L2_ENTRIES: u32 = 1024;
        let t = PwcConfig::typical();
        let scale = |entries: u32| (entries * l2_entries / PAPER_L2_ENTRIES).max(1);
        PwcConfig {
            pml4e_entries: scale(t.pml4e_entries),
            pdpte_entries: scale(t.pdpte_entries),
            pde_entries: scale(t.pde_entries),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any array is empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pml4e_entries == 0 || self.pdpte_entries == 0 || self.pde_entries == 0 {
            return Err(ConfigError::new("PWC arrays must be nonempty"));
        }
        Ok(())
    }
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig::typical()
    }
}

/// Which translation dimension(s) get a PCC in nested (virtualized) mode —
/// the FHPM guest-only / host-only / both ablation axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PccPlacement {
    /// PCC-guided promotion in the guest only; host stays base pages.
    Guest,
    /// PCC-guided promotion in the host only; guest stays base pages.
    Host,
    /// PCCs on both dimensions (the paper's recommended deployment).
    #[default]
    Both,
    /// No PCC anywhere — the 2D base-pages floor.
    None,
}

impl PccPlacement {
    /// All placements, in the canonical ablation order.
    pub const ALL: [PccPlacement; 4] = [
        PccPlacement::None,
        PccPlacement::Guest,
        PccPlacement::Host,
        PccPlacement::Both,
    ];

    /// Whether the guest dimension runs a PCC-guided promotion policy.
    pub const fn guest_enabled(&self) -> bool {
        matches!(self, PccPlacement::Guest | PccPlacement::Both)
    }

    /// Whether the host dimension runs a PCC-guided promotion policy.
    pub const fn host_enabled(&self) -> bool {
        matches!(self, PccPlacement::Host | PccPlacement::Both)
    }

    /// Parses the `hpsim --pcc-placement` spelling.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for anything but `guest|host|both|none`.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        match s {
            "guest" => Ok(PccPlacement::Guest),
            "host" => Ok(PccPlacement::Host),
            "both" => Ok(PccPlacement::Both),
            "none" => Ok(PccPlacement::None),
            _ => Err(ConfigError::new(
                "PCC placement must be one of guest|host|both|none",
            )),
        }
    }
}

impl core::fmt::Display for PccPlacement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PccPlacement::Guest => write!(f, "guest"),
            PccPlacement::Host => write!(f, "host"),
            PccPlacement::Both => write!(f, "both"),
            PccPlacement::None => write!(f, "none"),
        }
    }
}

/// Configuration of nested (two-dimensional) translation: each guest-walk
/// step is itself translated through the host page table, so structure
/// caches exist on both dimensions and promotion policy can be placed on
/// either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NestedConfig {
    /// Which dimension(s) run a PCC-guided promotion policy.
    pub placement: PccPlacement,
    /// Guest-side paging-structure cache (VA-tagged).
    pub guest_pwc: PwcConfig,
    /// Host-side paging-structure cache (guest-physical-tagged).
    pub host_pwc: PwcConfig,
    /// Entries in the fully associative nested TLB caching gPA→hPA
    /// translations at the host mapping's size — one entry covers a
    /// 4 KiB page or a whole 2 MiB host region (a hit skips
    /// the host walk entirely).
    pub ntlb_entries: u32,
}

impl NestedConfig {
    /// A typical geometry: `typical` PWCs on both dimensions plus a
    /// 64-entry nested TLB (comparable to documented nTLB capacities on
    /// EPT-era parts).
    pub const fn typical() -> Self {
        NestedConfig {
            placement: PccPlacement::Both,
            guest_pwc: PwcConfig::typical(),
            host_pwc: PwcConfig::typical(),
            ntlb_entries: 64,
        }
    }

    /// Same geometry with a different PCC placement.
    #[must_use]
    pub const fn with_placement(mut self, placement: PccPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either PWC is invalid or the nested TLB
    /// is empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.guest_pwc.validate()?;
        self.host_pwc.validate()?;
        if self.ntlb_entries == 0 {
            return Err(ConfigError::new("nested TLB must have at least one entry"));
        }
        Ok(())
    }
}

impl Default for NestedConfig {
    fn default() -> Self {
        NestedConfig::typical()
    }
}

/// How the OS selects promotion candidates across multiple per-core PCCs
/// (§3.3.2, evaluated in Figs. 8–9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PromotionPolicyKind {
    /// Pick the candidates with the globally highest PCC frequencies.
    #[default]
    HighestFrequency,
    /// Distribute promotions evenly across PCCs.
    RoundRobin,
}

impl core::fmt::Display for PromotionPolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PromotionPolicyKind::HighestFrequency => write!(f, "highest-pcc-frequency"),
            PromotionPolicyKind::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// Constants of the analytic timing model in `hpage-perf`.
///
/// The model is
///
/// ```text
/// cycles = accesses * base_cpi_millis/1000
///        + l1_tlb_misses * l2_tlb_lat + walks * walk_lat
/// ```
///
/// i.e. address translation overhead is added on top of a per-access
/// base cost that stands in for compute + cache behaviour. See
/// DESIGN.md for the calibration rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingConfig {
    /// Base cost per memory access in milli-cycles (covers issue +
    /// cache hierarchy on a TLB hit). Stored ×1000 to stay integral.
    pub base_cost_millicycles: u64,
    /// Added latency of an L2 TLB lookup after an L1 miss, in cycles.
    pub l2_tlb_latency: u64,
    /// Average latency of a hardware page-table walk, in cycles
    /// (after page-walk-cache effects; Haswell-era measurements put this
    /// in the tens-to-low-hundreds of cycles).
    pub walk_latency: u64,
    /// Cycles charged per page promoted (512 PTE updates, copy, TLB
    /// shootdown) — the promotion overhead the paper observes on the real
    /// system.
    pub promotion_cost: u64,
    /// Cycles charged per base page migrated (compaction) or collapsed
    /// (copied into a huge frame during promotion).
    pub migrate_cost_per_page: u64,
    /// Added latency of a data-cache L2 hit (only charged when the
    /// optional cache model is enabled and `RunCounters` carries cache
    /// events).
    pub cache_l2_latency: u64,
    /// Added latency of an LLC hit.
    pub cache_llc_latency: u64,
    /// Added latency of a memory access.
    pub cache_memory_latency: u64,
}

impl TimingConfig {
    /// Defaults calibrated so the 8 evaluation workloads land in the
    /// paper's reported speedup bands (see EXPERIMENTS.md).
    pub const fn paper() -> Self {
        TimingConfig {
            base_cost_millicycles: 25_000, // 25 cycles/access average
            l2_tlb_latency: 7,
            walk_latency: 120,
            promotion_cost: 80_000,
            migrate_cost_per_page: 1_500,
            cache_l2_latency: 10,
            cache_llc_latency: 35,
            cache_memory_latency: 200,
        }
    }

    /// Adapts the constants for use with the optional cache model: the
    /// per-access base cost drops to issue cost only (~2 cycles), since
    /// memory time is then charged per cache event instead of being
    /// folded into the average.
    #[must_use]
    pub const fn with_cache_model(mut self) -> Self {
        self.base_cost_millicycles = 2_000;
        self
    }

    /// The paper constants with promotion/compaction overheads divided by
    /// `factor`. Simulation windows are orders of magnitude shorter than
    /// the paper's multi-minute real runs, so absolute overhead costs
    /// must shrink with the window to preserve the paper's
    /// overhead-to-runtime ratio (see DESIGN.md).
    #[must_use]
    pub const fn with_window_scale(mut self, factor: u64) -> Self {
        let f = if factor == 0 { 1 } else { factor };
        self.promotion_cost /= f;
        self.migrate_cost_per_page /= f;
        self
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::paper()
    }
}

/// Full evaluation-system configuration (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (each with its own TLB hierarchy and PCC).
    pub cores: u32,
    /// Per-core TLB hierarchy.
    pub tlb: TlbConfig,
    /// Per-core 2 MiB PCC.
    pub pcc_2m: PccConfig,
    /// Optional per-core 1 GiB PCC (§3.2.3). `None` disables 1 GiB
    /// tracking.
    pub pcc_1g: Option<PccConfig>,
    /// Optional per-core page-walk cache (§5.4.1 ablation). `None`
    /// charges every walk its full level count.
    pub pwc: Option<PwcConfig>,
    /// Physical memory size in bytes.
    pub phys_mem_bytes: u64,
    /// Promotion interval measured in memory accesses (stands in for the
    /// paper's 30-second wall-clock interval; see DESIGN.md).
    pub promotion_interval_accesses: u64,
    /// Maximum promotions per interval — the paper's
    /// `regions_to_promote` kernel parameter, default = PCC capacity.
    pub regions_to_promote: u32,
    /// Base pages khugepaged/HawkEye may scan per interval (the paper:
    /// 4096 = 8 huge regions). Scaled profiles shrink this with the rest
    /// of the hardware so scan-rate starvation matches the paper's
    /// footprint-to-scan-budget ratio.
    pub scanner_pages_per_interval: u64,
    /// OS candidate-selection policy across PCCs.
    pub promotion_policy: PromotionPolicyKind,
    /// Timing-model constants.
    pub timing: TimingConfig,
}

impl SystemConfig {
    /// The paper's Table 2 system: 128-entry per-core 2 MiB PCC, up to 128
    /// promotions per interval, Haswell TLB hierarchy.
    pub fn paper_system() -> Self {
        SystemConfig {
            cores: 1,
            tlb: TlbConfig::paper(),
            pcc_2m: PccConfig::paper_2m(),
            pcc_1g: None,
            pwc: None,
            phys_mem_bytes: 64 << 30,
            promotion_interval_accesses: 20_000_000,
            regions_to_promote: 128,
            scanner_pages_per_interval: 4096,
            promotion_policy: PromotionPolicyKind::HighestFrequency,
            timing: TimingConfig::paper(),
        }
    }

    /// A small configuration for fast unit/integration tests. Promotion
    /// overheads are window-scaled (tests simulate ~10^6 accesses versus
    /// the paper's ~10^11).
    pub fn tiny() -> Self {
        SystemConfig {
            cores: 1,
            tlb: TlbConfig::tiny(),
            pcc_2m: PccConfig::paper_2m().with_entries(16),
            pcc_1g: None,
            pwc: None,
            phys_mem_bytes: 256 << 20,
            promotion_interval_accesses: 50_000,
            regions_to_promote: 16,
            scanner_pages_per_interval: 512,
            promotion_policy: PromotionPolicyKind::HighestFrequency,
            timing: TimingConfig::paper().with_window_scale(40),
        }
    }

    /// Checks internal consistency of all components.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any sub-config is invalid, there are no
    /// cores, physical memory is not 2 MiB-aligned, or the promotion
    /// interval is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("system must have at least one core"));
        }
        self.tlb.validate()?;
        self.pcc_2m.validate()?;
        if let Some(p) = &self.pcc_1g {
            p.validate()?;
        }
        if let Some(p) = &self.pwc {
            p.validate()?;
        }
        if self.phys_mem_bytes == 0 || !self.phys_mem_bytes.is_multiple_of(PageSize::Huge2M.bytes())
        {
            return Err(ConfigError::new(
                "physical memory must be a nonzero multiple of 2MiB",
            ));
        }
        if self.promotion_interval_accesses == 0 {
            return Err(ConfigError::new("promotion interval must be nonzero"));
        }
        if self.regions_to_promote == 0 {
            return Err(ConfigError::new("regions_to_promote must be nonzero"));
        }
        if self.scanner_pages_per_interval == 0 {
            return Err(ConfigError::new(
                "scanner_pages_per_interval must be nonzero",
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_values() {
        let c = SystemConfig::paper_system();
        assert_eq!(c.tlb.l1_4k.entries, 64);
        assert_eq!(c.tlb.l1_4k.ways, 4);
        assert_eq!(c.tlb.l1_2m.entries, 32);
        assert_eq!(c.tlb.l1_1g.entries, 4);
        assert_eq!(c.tlb.l2.entries, 1024);
        assert_eq!(c.tlb.l2.ways, 8);
        assert_eq!(c.pcc_2m.entries, 128);
        assert_eq!(c.pcc_2m.tag_bits, 40);
        assert_eq!(c.pcc_2m.counter_bits, 8);
        assert_eq!(c.regions_to_promote, 128);
        c.validate().unwrap();
    }

    #[test]
    fn paper_storage_arithmetic() {
        // §3.2.1: 40-bit tag + 8-bit counter = 6B; 128 entries = 768B.
        let p2m = PccConfig::paper_2m();
        assert_eq!(p2m.entry_bits(), 48);
        assert_eq!(p2m.storage_bytes(), 768);
        // 1GB PCC: 31-bit tag + 8-bit counter, 8 entries = 40B.
        let p1g = PccConfig::paper_1g();
        assert_eq!(p1g.storage_bytes(), 40);
        // Combined 808B ≈ 50 TLB entries at 16B each (paper's value
        // proposition argument).
        let total = p2m.storage_bytes() + p1g.storage_bytes();
        assert_eq!(total, 808);
        assert_eq!(total / 16, 50);
    }

    #[test]
    fn counter_max() {
        assert_eq!(PccConfig::paper_2m().counter_max(), 255);
        let c = PccConfig {
            counter_bits: 4,
            ..PccConfig::paper_2m()
        };
        assert_eq!(c.counter_max(), 15);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TlbLevelConfig::new(0, 1).validate().is_err());
        assert!(TlbLevelConfig::new(8, 3).validate().is_err());
        assert!(TlbLevelConfig::new(8, 0).validate().is_err());
        assert!(TlbLevelConfig::new(64, 64).validate().is_ok());
        assert!(TlbLevelConfig::new(128, 128).validate().is_err());
        assert!(PccConfig::paper_2m().with_entries(0).validate().is_err());
        let mut sys = SystemConfig::paper_system();
        sys.cores = 0;
        assert!(sys.validate().is_err());
        let mut sys = SystemConfig::paper_system();
        sys.phys_mem_bytes = 4096;
        assert!(sys.validate().is_err());
        let mut sys = SystemConfig::paper_system();
        sys.promotion_interval_accesses = 0;
        assert!(sys.validate().is_err());
    }

    #[test]
    fn tiny_config_is_valid() {
        SystemConfig::tiny().validate().unwrap();
        TlbConfig::tiny().validate().unwrap();
    }

    #[test]
    fn pwc_config_validation() {
        PwcConfig::typical().validate().unwrap();
        let bad = PwcConfig {
            pde_entries: 0,
            ..PwcConfig::typical()
        };
        assert!(bad.validate().is_err());
        let mut sys = SystemConfig::paper_system();
        sys.pwc = Some(bad);
        assert!(sys.validate().is_err());
        sys.pwc = Some(PwcConfig::typical());
        sys.validate().unwrap();
    }

    #[test]
    fn scaled_to_tlb_floors_each_array_at_one_entry() {
        let geometry = |l2| {
            let c = PwcConfig::scaled_to_tlb(l2);
            c.validate().unwrap();
            (c.pml4e_entries, c.pdpte_entries, c.pde_entries)
        };
        // A 16-entry L2 scales the 4/32/64 geometry to 0/0/1; the empty
        // arrays floor at one entry.
        assert_eq!(geometry(16), (1, 1, 1));
        assert_eq!(geometry(128), (1, 4, 8));
        // The smallest L2 at which no array needs the floor.
        assert_eq!(geometry(256), (1, 8, 16));
        // At the paper's L2 size scaling is the identity.
        assert_eq!(PwcConfig::scaled_to_tlb(1024), PwcConfig::typical());
    }

    #[test]
    fn pcc_placement_parse_and_flags() {
        for p in PccPlacement::ALL {
            assert_eq!(PccPlacement::parse(&p.to_string()).unwrap(), p);
        }
        assert!(PccPlacement::parse("everywhere").is_err());
        assert!(PccPlacement::Both.guest_enabled() && PccPlacement::Both.host_enabled());
        assert!(PccPlacement::Guest.guest_enabled() && !PccPlacement::Guest.host_enabled());
        assert!(!PccPlacement::Host.guest_enabled() && PccPlacement::Host.host_enabled());
        assert!(!PccPlacement::None.guest_enabled() && !PccPlacement::None.host_enabled());
    }

    #[test]
    fn nested_config_validation() {
        NestedConfig::typical().validate().unwrap();
        let bad = NestedConfig {
            ntlb_entries: 0,
            ..NestedConfig::typical()
        };
        assert!(bad.validate().is_err());
        let bad = NestedConfig {
            host_pwc: PwcConfig {
                pde_entries: 0,
                ..PwcConfig::typical()
            },
            ..NestedConfig::typical()
        };
        assert!(bad.validate().is_err());
        assert_eq!(
            NestedConfig::typical()
                .with_placement(PccPlacement::Host)
                .placement,
            PccPlacement::Host
        );
    }

    #[test]
    fn l1_for_selects_by_size() {
        let t = TlbConfig::paper();
        assert_eq!(t.l1_for(PageSize::Base4K).entries, 64);
        assert_eq!(t.l1_for(PageSize::Huge2M).entries, 32);
        assert_eq!(t.l1_for(PageSize::Huge1G).entries, 4);
    }

    #[test]
    fn policy_display() {
        assert_eq!(
            PromotionPolicyKind::HighestFrequency.to_string(),
            "highest-pcc-frequency"
        );
        assert_eq!(PromotionPolicyKind::RoundRobin.to_string(), "round-robin");
    }
}
