//! Page-reuse-distance characterisation (§3.1, Fig. 2 of the paper).
//!
//! Reuse distance of a page is "the number of accesses to other pages
//! between two accesses to a given page". Measuring it at both 4 KiB and
//! 2 MiB granularity partitions pages into the paper's three classes:
//!
//! * **TLB-friendly** — low 4 KiB reuse distance: the base-page TLB
//!   already works; promotion buys little.
//! * **HUB** (High-reUse TLB-sensitive) — high 4 KiB but low 2 MiB reuse
//!   distance: the best promotion candidates.
//! * **Low-reuse** — high at both granularities: promotion cannot help.
//!
//! The classification threshold defaults to 1024, the entry count of the
//! paper's L2 TLB.

use hpage_types::{MemoryAccess, PageSize, VirtAddr, Vpn};
use std::collections::HashMap;

/// Per-page reuse statistics at one granularity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PageReuse {
    last_access: u64,
    reuses: u64,
    distance_sum: u64,
    accesses: u64,
}

/// The paper's three access classes (Fig. 2's colours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseClass {
    /// Low 4 KiB reuse distance (green in Fig. 2).
    TlbFriendly,
    /// High 4 KiB, low 2 MiB reuse distance (blue): promotion candidates.
    Hub,
    /// High reuse distance at both sizes (red).
    LowReuse,
}

impl core::fmt::Display for ReuseClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReuseClass::TlbFriendly => write!(f, "TLB-friendly"),
            ReuseClass::Hub => write!(f, "HUB"),
            ReuseClass::LowReuse => write!(f, "low-reuse"),
        }
    }
}

/// One 4 KiB page's measured profile: the (x, y) point of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageProfile {
    /// The 4 KiB page.
    pub page: Vpn,
    /// Mean reuse distance at 4 KiB granularity (x-axis), `None` when the
    /// page was touched once (no reuse observed).
    pub reuse_4k: Option<f64>,
    /// Mean reuse distance of the containing 2 MiB region (y-axis).
    pub reuse_2m: Option<f64>,
    /// Total accesses to the page.
    pub accesses: u64,
    /// The paper's classification of the page.
    pub class: ReuseClass,
}

/// Streaming reuse-distance analyzer over 4 KiB pages and their 2 MiB
/// regions.
#[derive(Debug, Clone)]
pub struct ReuseAnalyzer {
    threshold: f64,
    time: u64,
    pages_4k: HashMap<u64, PageReuse>,
    regions_2m: HashMap<u64, PageReuse>,
}

impl ReuseAnalyzer {
    /// Creates an analyzer with the paper's default threshold of 1024
    /// (a common L2 TLB entry count).
    pub fn new() -> Self {
        Self::with_threshold(1024.0)
    }

    /// Creates an analyzer with a custom low/high reuse threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        ReuseAnalyzer {
            threshold,
            time: 0,
            pages_4k: HashMap::new(),
            regions_2m: HashMap::new(),
        }
    }

    /// The classification threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Observes one access.
    pub fn observe(&mut self, access: &MemoryAccess) {
        self.observe_addr(access.addr);
    }

    /// Observes one address.
    pub fn observe_addr(&mut self, addr: VirtAddr) {
        self.time += 1;
        let t = self.time;
        for (map, key) in [
            (&mut self.pages_4k, addr.vpn(PageSize::Base4K).index()),
            (&mut self.regions_2m, addr.vpn(PageSize::Huge2M).index()),
        ] {
            let entry = map.entry(key).or_default();
            if entry.accesses > 0 {
                entry.reuses += 1;
                entry.distance_sum += t - entry.last_access - 1;
            }
            entry.accesses += 1;
            entry.last_access = t;
        }
    }

    /// Consumes an entire trace.
    pub fn observe_all<I: IntoIterator<Item = MemoryAccess>>(&mut self, trace: I) {
        for a in trace {
            self.observe(&a);
        }
    }

    fn mean(r: &PageReuse) -> Option<f64> {
        (r.reuses > 0).then(|| r.distance_sum as f64 / r.reuses as f64)
    }

    fn classify(&self, reuse_4k: Option<f64>, reuse_2m: Option<f64>) -> ReuseClass {
        let low_4k = reuse_4k.map(|d| d < self.threshold).unwrap_or(false);
        let low_2m = reuse_2m.map(|d| d < self.threshold).unwrap_or(false);
        if low_4k {
            ReuseClass::TlbFriendly
        } else if low_2m {
            ReuseClass::Hub
        } else {
            ReuseClass::LowReuse
        }
    }

    /// Produces the per-4 KiB-page profiles (Fig. 2's scatter points).
    pub fn profiles(&self) -> Vec<PageProfile> {
        let mut out: Vec<PageProfile> = self
            .pages_4k
            .iter()
            .map(|(&idx, r4)| {
                let page = Vpn::new(idx, PageSize::Base4K);
                let region = page.containing(PageSize::Huge2M);
                let r2 = self.regions_2m.get(&region.index());
                let reuse_4k = Self::mean(r4);
                let reuse_2m = r2.and_then(Self::mean);
                PageProfile {
                    page,
                    reuse_4k,
                    reuse_2m,
                    accesses: r4.accesses,
                    class: self.classify(reuse_4k, reuse_2m),
                }
            })
            .collect();
        out.sort_by_key(|p| p.page.index());
        out
    }

    /// 2 MiB regions ranked by how many of their constituent pages are
    /// HUBs, weighted by access count — the "ideal" promotion-candidate
    /// ranking that the PCC approximates in hardware. Returns
    /// `(region, hub_accesses)` pairs, hottest first.
    pub fn hub_regions(&self) -> Vec<(Vpn, u64)> {
        let mut per_region: HashMap<u64, u64> = HashMap::new();
        for p in self.profiles() {
            if p.class == ReuseClass::Hub {
                *per_region
                    .entry(p.page.containing(PageSize::Huge2M).index())
                    .or_default() += p.accesses;
            }
        }
        let mut out: Vec<(Vpn, u64)> = per_region
            .into_iter()
            .map(|(idx, w)| (Vpn::new(idx, PageSize::Huge2M), w))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.index().cmp(&b.0.index())));
        out
    }

    /// Counts pages per class: `(tlb_friendly, hub, low_reuse)`.
    pub fn class_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0u64, 0u64, 0u64);
        for p in self.profiles() {
            match p.class {
                ReuseClass::TlbFriendly => counts.0 += 1,
                ReuseClass::Hub => counts.1 += 1,
                ReuseClass::LowReuse => counts.2 += 1,
            }
        }
        counts
    }
}

impl Default for ReuseAnalyzer {
    fn default() -> Self {
        ReuseAnalyzer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(a: &mut ReuseAnalyzer, addr: u64) {
        a.observe_addr(VirtAddr::new(addr));
    }

    #[test]
    fn reuse_distance_definition() {
        // Access page A, then 3 other pages, then A again:
        // reuse distance of A's second access is 3.
        let mut a = ReuseAnalyzer::new();
        touch(&mut a, 0x0000); // A
        touch(&mut a, 0x1000);
        touch(&mut a, 0x2000);
        touch(&mut a, 0x3000);
        touch(&mut a, 0x0000); // A again
        let profiles = a.profiles();
        let pa = profiles.iter().find(|p| p.page.index() == 0).unwrap();
        assert_eq!(pa.reuse_4k, Some(3.0));
        assert_eq!(pa.accesses, 2);
    }

    #[test]
    fn single_touch_has_no_reuse() {
        let mut a = ReuseAnalyzer::new();
        touch(&mut a, 0x1000);
        let p = &a.profiles()[0];
        assert_eq!(p.reuse_4k, None);
        assert_eq!(p.class, ReuseClass::LowReuse);
    }

    #[test]
    fn back_to_back_accesses_distance_zero() {
        let mut a = ReuseAnalyzer::new();
        touch(&mut a, 0x1000);
        touch(&mut a, 0x1008); // same page
        let p = &a.profiles()[0];
        assert_eq!(p.reuse_4k, Some(0.0));
        assert_eq!(p.class, ReuseClass::TlbFriendly);
    }

    #[test]
    fn hub_detection() {
        // Cycle over 2000 distinct 4K pages inside the SAME 2MB... no:
        // a 2MB region has 512 pages. Build a HUB: pages in one 2MB region
        // are revisited with 4K distance > threshold but 2M distance <
        // threshold. Interleave: for each round, touch each of 1500 pages
        // spread over 3 regions; 4K reuse distance = 1499 (> 1024), while
        // each 2M region is touched every 3rd access (distance 2).
        let mut a = ReuseAnalyzer::with_threshold(1024.0);
        let region_base = |r: u64| 0x4000_0000u64 + r * 0x20_0000;
        for _round in 0..4 {
            for p in 0..500u64 {
                for r in 0..3u64 {
                    touch(&mut a, region_base(r) + p * 0x1000);
                }
            }
        }
        let (friendly, hub, low) = a.class_counts();
        assert_eq!(friendly, 0);
        assert_eq!(low, 0);
        assert_eq!(hub, 1500);
        // All three regions rank as HUB regions.
        assert_eq!(a.hub_regions().len(), 3);
    }

    #[test]
    fn low_reuse_detection() {
        // Touch 3000 pages spread over 3000 distinct 2MB regions twice:
        // both 4K and 2M distances are 2999 > 1024.
        let mut a = ReuseAnalyzer::new();
        for _ in 0..2 {
            for r in 0..3000u64 {
                touch(&mut a, r * 0x20_0000);
            }
        }
        let (friendly, hub, low) = a.class_counts();
        assert_eq!((friendly, hub), (0, 0));
        assert_eq!(low, 3000);
        assert!(a.hub_regions().is_empty());
    }

    #[test]
    fn tlb_friendly_detection() {
        // Sequential sweep with immediate re-touches: 1000 accesses of
        // 8 bytes span two pages, each touched hundreds of times at
        // distance 0.
        let mut a = ReuseAnalyzer::new();
        for i in 0..1000u64 {
            touch(&mut a, i * 8);
        }
        let (friendly, hub, low) = a.class_counts();
        assert_eq!(friendly, 2);
        assert_eq!(hub + low, 0);
    }

    #[test]
    fn hub_regions_ranked_by_weight() {
        let mut a = ReuseAnalyzer::with_threshold(10.0);
        // Two HUB regions; region 1 accessed twice as much.
        // Pattern: interleave 40 distinct pages (>10 distance at 4K),
        // while each region repeats within distance 10? Simpler: craft
        // distances directly.
        // Region A pages: 0x20_0000 + p*0x1000 (p in 0..20)
        // Region B pages: 0x40_0000 + p*0x1000 (p in 0..20)
        for _round in 0..6 {
            for p in 0..20u64 {
                touch(&mut a, 0x2000_0000 + p * 0x1000);
                touch(&mut a, 0x4000_0000 + p * 0x1000);
            }
        }
        // 4K distance = 39 (>10); 2M distance = 1 (<10): both HUB regions.
        let hubs = a.hub_regions();
        assert_eq!(hubs.len(), 2);
        // Now heat region A with extra accesses.
        for _ in 0..3 {
            for p in 0..20u64 {
                touch(&mut a, 0x2000_0000 + p * 0x1000);
                touch(&mut a, 0x4000_0000 + (p % 2) * 0x1000); // keep B warm-ish
            }
        }
        let hubs = a.hub_regions();
        assert_eq!(hubs[0].0.base().raw(), 0x2000_0000);
        assert!(hubs[0].1 > hubs[1].1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_threshold_panics() {
        let _ = ReuseAnalyzer::with_threshold(0.0);
    }

    #[test]
    fn observe_all_consumes_iterator() {
        let mut a = ReuseAnalyzer::new();
        a.observe_all((0..10u64).map(|i| MemoryAccess::read(VirtAddr::new(i * 0x1000))));
        assert_eq!(a.profiles().len(), 10);
    }
}
