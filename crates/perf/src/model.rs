//! Event counters and the cycle model.

use hpage_types::TimingConfig;

/// Event counts accumulated over one simulated run (one thread/core or a
/// whole-run aggregate — the arithmetic is the same).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Memory accesses issued.
    pub accesses: u64,
    /// Accesses that hit any L1 TLB.
    pub l1_hits: u64,
    /// Accesses that hit the L2 TLB.
    pub l2_hits: u64,
    /// Accesses that missed the whole hierarchy (page-table walks).
    pub walks: u64,
    /// Sum of page-table levels referenced over all walks (4 per walk for
    /// base-page leaves, 3 for 2 MiB).
    pub walk_levels: u64,
    /// Page faults served with base pages.
    pub faults_base: u64,
    /// Page faults served with huge pages.
    pub faults_huge: u64,
    /// Huge-page promotions performed.
    pub promotions: u64,
    /// Huge-page demotions performed.
    pub demotions: u64,
    /// Base pages migrated by compaction.
    pub pages_migrated: u64,
    /// Base pages collapsed (copied) into huge pages by promotions.
    pub pages_collapsed: u64,
    /// TLB shootdowns broadcast.
    pub shootdowns: u64,
    /// Nested mode: host-dimension huge-page promotions (guest
    /// promotions are counted in `promotions`). Zero in native runs.
    pub host_promotions: u64,
    /// Nested mode: host-side shootdowns (nested-TLB / host
    /// structure-cache invalidations after a host remap). Zero in
    /// native runs.
    pub host_shootdowns: u64,
    /// Data-cache L2 hits (zero unless the cache model is enabled).
    pub cache_l2_hits: u64,
    /// Data-cache LLC hits.
    pub cache_llc_hits: u64,
    /// Data accesses served from memory.
    pub cache_memory: u64,
}

impl RunCounters {
    /// Component-wise sum (aggregate across threads/processes).
    #[must_use]
    pub fn merged(&self, other: &RunCounters) -> RunCounters {
        RunCounters {
            accesses: self.accesses + other.accesses,
            l1_hits: self.l1_hits + other.l1_hits,
            l2_hits: self.l2_hits + other.l2_hits,
            walks: self.walks + other.walks,
            walk_levels: self.walk_levels + other.walk_levels,
            faults_base: self.faults_base + other.faults_base,
            faults_huge: self.faults_huge + other.faults_huge,
            promotions: self.promotions + other.promotions,
            demotions: self.demotions + other.demotions,
            pages_migrated: self.pages_migrated + other.pages_migrated,
            pages_collapsed: self.pages_collapsed + other.pages_collapsed,
            shootdowns: self.shootdowns + other.shootdowns,
            host_promotions: self.host_promotions + other.host_promotions,
            host_shootdowns: self.host_shootdowns + other.host_shootdowns,
            cache_l2_hits: self.cache_l2_hits + other.cache_l2_hits,
            cache_llc_hits: self.cache_llc_hits + other.cache_llc_hits,
            cache_memory: self.cache_memory + other.cache_memory,
        }
    }

    /// Fraction of accesses causing page-table walks (the paper's
    /// "PTW %" / last-level TLB miss rate), in `[0, 1]`.
    pub fn walk_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.walks as f64 / self.accesses as f64
        }
    }

    /// Modelled execution time in cycles under `timing`.
    pub fn cycles(&self, timing: &TimingConfig) -> f64 {
        let base = self.accesses as f64 * timing.base_cost_millicycles as f64 / 1000.0;
        let l2 = (self.l2_hits + self.walks) as f64 * timing.l2_tlb_latency as f64;
        // A full 4-level walk costs walk_latency; shorter walks (huge
        // leaves) cost proportionally less.
        let walk = self.walk_levels as f64 * timing.walk_latency as f64 / 4.0;
        // Host promotions remap host frames and shoot down nested
        // translations, the same class of work as a guest promotion.
        let promo = (self.promotions + self.demotions + self.host_promotions) as f64
            * timing.promotion_cost as f64;
        let migrate = (self.pages_migrated + self.pages_collapsed) as f64
            * timing.migrate_cost_per_page as f64;
        // Cache-model terms are zero unless the optional cache hierarchy
        // ran (pair with `TimingConfig::with_cache_model`).
        let cache = self.cache_l2_hits as f64 * timing.cache_l2_latency as f64
            + self.cache_llc_hits as f64 * timing.cache_llc_latency as f64
            + self.cache_memory as f64 * timing.cache_memory_latency as f64;
        base + l2 + walk + promo + migrate + cache
    }

    /// Speedup of `self` relative to `baseline` under `timing`
    /// (`>1` means `self` is faster).
    pub fn speedup_over(&self, baseline: &RunCounters, timing: &TimingConfig) -> f64 {
        baseline.cycles(timing) / self.cycles(timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingConfig {
        TimingConfig::paper()
    }

    #[test]
    fn cycles_additive_components() {
        let t = timing();
        let mut c = RunCounters {
            accesses: 1000,
            ..RunCounters::default()
        };
        let base_only = c.cycles(&t);
        assert!((base_only - 1000.0 * t.base_cost_millicycles as f64 / 1000.0).abs() < 1e-9);
        c.walks = 10;
        c.walk_levels = 40;
        let with_walks = c.cycles(&t);
        assert!(
            (with_walks
                - base_only
                - 10.0 * t.l2_tlb_latency as f64
                - 10.0 * t.walk_latency as f64)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn shorter_walks_cost_less() {
        let t = timing();
        let full = RunCounters {
            accesses: 100,
            walks: 10,
            walk_levels: 40, // 4-level walks
            ..RunCounters::default()
        };
        let huge = RunCounters {
            accesses: 100,
            walks: 10,
            walk_levels: 30, // 3-level walks (2MB leaves)
            ..RunCounters::default()
        };
        assert!(huge.cycles(&t) < full.cycles(&t));
    }

    #[test]
    fn speedup_of_fewer_walks() {
        let t = timing();
        let slow = RunCounters {
            accesses: 1_000_000,
            walks: 300_000,
            walk_levels: 1_200_000,
            l2_hits: 100_000,
            ..RunCounters::default()
        };
        let fast = RunCounters {
            accesses: 1_000_000,
            walks: 30_000,
            walk_levels: 90_000,
            l2_hits: 100_000,
            ..RunCounters::default()
        };
        let s = fast.speedup_over(&slow, &t);
        assert!(s > 1.5, "expected large speedup, got {s}");
        assert!(slow.speedup_over(&slow, &t) == 1.0);
    }

    #[test]
    fn promotion_overheads_charged() {
        let t = timing();
        let without = RunCounters {
            accesses: 1000,
            ..RunCounters::default()
        };
        let with = RunCounters {
            promotions: 2,
            pages_migrated: 10,
            pages_collapsed: 100,
            ..without
        };
        let delta = with.cycles(&t) - without.cycles(&t);
        let expected = 2.0 * t.promotion_cost as f64 + 110.0 * t.migrate_cost_per_page as f64;
        assert!((delta - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let a = RunCounters {
            accesses: 1,
            l1_hits: 2,
            l2_hits: 3,
            walks: 4,
            walk_levels: 5,
            faults_base: 6,
            faults_huge: 7,
            promotions: 8,
            demotions: 9,
            pages_migrated: 10,
            pages_collapsed: 11,
            shootdowns: 12,
            host_promotions: 13,
            host_shootdowns: 14,
            cache_l2_hits: 15,
            cache_llc_hits: 16,
            cache_memory: 17,
        };
        let m = a.merged(&a);
        assert_eq!(m.accesses, 2);
        assert_eq!(m.shootdowns, 24);
        assert_eq!(m.walk_levels, 10);
        assert_eq!(m.host_promotions, 26);
        assert_eq!(m.host_shootdowns, 28);
        assert_eq!(m.cache_memory, 34);
    }

    #[test]
    fn host_promotions_charged_like_promotions() {
        let t = timing();
        let without = RunCounters {
            accesses: 1000,
            ..RunCounters::default()
        };
        let with = RunCounters {
            host_promotions: 3,
            ..without
        };
        let delta = with.cycles(&t) - without.cycles(&t);
        assert!((delta - 3.0 * t.promotion_cost as f64).abs() < 1e-9);
    }

    #[test]
    fn cache_terms_charged_when_present() {
        let t = TimingConfig::paper().with_cache_model();
        let without = RunCounters {
            accesses: 1000,
            ..RunCounters::default()
        };
        let with = RunCounters {
            cache_l2_hits: 5,
            cache_llc_hits: 3,
            cache_memory: 2,
            ..without
        };
        let delta = with.cycles(&t) - without.cycles(&t);
        let expected = 5.0 * t.cache_l2_latency as f64
            + 3.0 * t.cache_llc_latency as f64
            + 2.0 * t.cache_memory_latency as f64;
        assert!((delta - expected).abs() < 1e-9);
        // with_cache_model lowers the base cost.
        assert!(t.base_cost_millicycles < TimingConfig::paper().base_cost_millicycles);
    }

    #[test]
    fn walk_ratio_bounds() {
        assert_eq!(RunCounters::default().walk_ratio(), 0.0);
        let c = RunCounters {
            accesses: 100,
            walks: 25,
            ..RunCounters::default()
        };
        assert!((c.walk_ratio() - 0.25).abs() < 1e-12);
    }
}
