//! The per-core two-level TLB hierarchy of the paper's Table 2.

use crate::table::Translation;
use crate::tlb::{four_way_pow2, l1_hit_run, SetAssocTlb};
use hpage_types::{MemoryAccess, PageSize, TlbConfig, VirtAddr, Vpn};

/// Where a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the L1 D-TLB; carries the cached translation.
    L1Hit(Translation),
    /// Missed L1, hit the unified L2 TLB (entry is promoted into the
    /// matching L1 on the way back); carries the cached translation.
    L2Hit(Translation),
    /// Missed the whole hierarchy: the hardware must walk the page table.
    Miss,
}

impl TlbOutcome {
    /// The translation, when the lookup hit.
    pub fn translation(&self) -> Option<Translation> {
        match self {
            TlbOutcome::L1Hit(t) | TlbOutcome::L2Hit(t) => Some(*t),
            TlbOutcome::Miss => None,
        }
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbHierarchyStats {
    /// Total address lookups.
    pub accesses: u64,
    /// Lookups satisfied by any L1 structure.
    pub l1_hits: u64,
    /// Lookups satisfied by the L2 TLB.
    pub l2_hits: u64,
    /// Lookups that missed everywhere (page-table walks).
    pub walks: u64,
    /// L1 hits broken down by page size, indexed as [`PageSize::ALL`]
    /// (4 KiB, 2 MiB, 1 GiB).
    pub l1_hits_by_size: [u64; 3],
    /// L2 hits broken down by page size, same indexing.
    pub l2_hits_by_size: [u64; 3],
}

impl TlbHierarchyStats {
    /// Fraction of accesses missing the whole hierarchy, in `[0, 1]`.
    /// This is the paper's "TLB miss %" / "PTW %" metric.
    pub fn walk_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.walks as f64 / self.accesses as f64
        }
    }
}

/// A core's data-TLB hierarchy: split-size L1 (4 KiB / 2 MiB / 1 GiB) in
/// front of a unified L2 that holds 4 KiB and 2 MiB entries (Haswell's STLB
/// does not cache 1 GiB translations).
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    config: TlbConfig,
    /// The split L1s, indexed by [`PageSize`].
    l1: [SetAssocTlb; 3],
    l2: SetAssocTlb,
    /// Full-hierarchy misses. Hits are *not* counted here — each level
    /// already counts its own, and [`stats`](Self::stats) assembles the
    /// aggregate view on demand, keeping the L1-hit fast path free of
    /// redundant counter traffic.
    walks: u64,
    /// L2 hits by page size (the unified L2's own counter cannot
    /// attribute sizes).
    l2_hits_by_size: [u64; 3],
}

impl TlbHierarchy {
    /// Builds the hierarchy from a [`TlbConfig`].
    ///
    /// # Panics
    ///
    /// Panics if any level's geometry is invalid.
    pub fn new(config: TlbConfig) -> Self {
        TlbHierarchy {
            l1: PageSize::ALL.map(|size| SetAssocTlb::new(config.l1_for(size))),
            l2: SetAssocTlb::new(config.l2),
            config,
            walks: 0,
            l2_hits_by_size: [0; 3],
        }
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Aggregate statistics, assembled from the per-level counters (the
    /// levels count their own hits; only walks and the L2 size breakdown
    /// live here).
    pub fn stats(&self) -> TlbHierarchyStats {
        let l1_hits_by_size = self.l1.each_ref().map(|l1| l1.stats().hits);
        let l1_hits = l1_hits_by_size.iter().sum::<u64>();
        let l2_hits = self.l2.stats().hits;
        TlbHierarchyStats {
            accesses: l1_hits + l2_hits + self.walks,
            l1_hits,
            l2_hits,
            walks: self.walks,
            l1_hits_by_size,
            l2_hits_by_size: self.l2_hits_by_size,
        }
    }

    /// Consumes the leading `accesses` that hit the 4 KiB or 2 MiB L1,
    /// calling `on_hit` with each one's index in `accesses` and its
    /// translation, in order, and returns how many it consumed. Each
    /// hit is counted exactly as [`lookup`](Self::lookup) counts it:
    /// its level's clock tick, LRU stamp and hit count, 4 KiB winning
    /// a tie. The access that ends the run is left untouched, so
    /// passing it to `lookup` next (for the 1 GiB L1, the L2 or a walk)
    /// equals looking up every access one at a time.
    #[inline]
    pub fn l1_hits(
        &mut self,
        accesses: &[MemoryAccess],
        on_hit: impl FnMut(usize, Translation),
    ) -> usize {
        let [small, huge, _] = &mut self.l1;
        if four_way_pow2([small, huge]) {
            l1_hit_run::<4>([small, huge], accesses, on_hit)
        } else {
            l1_hit_run::<0>([small, huge], accesses, on_hit)
        }
    }

    /// Looks up `va`. On an L2 hit the entry is promoted into the L1 of
    /// its size. On [`TlbOutcome::Miss`] the caller must walk the page
    /// table and call [`fill`](Self::fill) with the result.
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr) -> TlbOutcome {
        // The 4 KiB and 2 MiB L1s through the one L1 probe. An address
        // is resident at only the size it is mapped with (shootdowns
        // precede every mapping change), and a search that misses
        // changes no clock or stat, so the order the levels are
        // searched in decides nothing.
        let mut l1 = None;
        self.l1_hits(&[MemoryAccess::read(va)], |_, t| l1 = Some(t));
        if let Some(t) = l1 {
            return TlbOutcome::L1Hit(t);
        }
        let giant = va.vpn(PageSize::Huge1G);
        if let Some(pos) = self.l1[2].find(giant) {
            return TlbOutcome::L1Hit(self.l1[2].hit(pos, giant));
        }
        // L2: unified over 4K + 2M, both sizes searched together, the
        // hit counted in whichever matched. The 4 KiB search is skipped
        // when the L2's region counts prove it would miss.
        let vpns = [va.vpn(PageSize::Base4K), va.vpn(PageSize::Huge2M)];
        let l2 = [self.l2.find_small(vpns[0]), self.l2.find(vpns[1])];
        if let Some(pos) = l2[0].or(l2[1]) {
            let size = usize::from(l2[0].is_none());
            self.l2_hits_by_size[size] += 1;
            let t = self.l2.hit(pos, vpns[size]);
            // Promote into the L1 for this size.
            self.l1[size].insert(t);
            return TlbOutcome::L2Hit(t);
        }
        self.walks += 1;
        TlbOutcome::Miss
    }

    /// Installs a translation returned by a page-table walk into the L1 of
    /// its size and (when the size is cached there) the L2. Returns the
    /// translation evicted from the L2, if any — the signal a §5.4.1
    /// victim cache would capture.
    pub fn fill(&mut self, translation: Translation) -> Option<Translation> {
        let size = translation.size();
        self.l1[size as usize].insert(translation);
        if size != PageSize::Huge1G {
            self.l2.insert(translation)
        } else {
            None
        }
    }

    /// Every level, the L1s first.
    fn levels(&mut self) -> impl Iterator<Item = &mut SetAssocTlb> {
        self.l1.iter_mut().chain([&mut self.l2])
    }

    /// TLB shootdown for a huge region: removes every overlapping entry
    /// from all levels (stale base-page translations after promotion, or a
    /// stale huge translation after demotion). Returns total removed.
    pub fn shootdown(&mut self, region: Vpn) -> usize {
        self.levels().map(|l| l.invalidate_region(region)).sum()
    }

    /// Flushes every level (e.g. on context switch).
    pub fn flush(&mut self) {
        self.levels().for_each(SetAssocTlb::flush);
    }

    /// Total resident entries across all levels.
    pub fn resident_entries(&self) -> usize {
        self.l1.iter().chain([&self.l2]).map(SetAssocTlb::len).sum()
    }

    /// Every translation resident anywhere in the hierarchy, in no
    /// particular order. A translation cached in both an L1 and the L2
    /// appears twice — the invariant auditor checks each copy against the
    /// live page table, so duplicates are intentional.
    pub fn resident_translations(&self) -> Vec<Translation> {
        self.l1
            .iter()
            .chain([&self.l2])
            .flat_map(SetAssocTlb::entries)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::region_bucket;
    use hpage_types::Pfn;

    fn t4k(i: u64) -> Translation {
        Translation {
            vpn: Vpn::new(i, PageSize::Base4K),
            pfn: Pfn::new(i, PageSize::Base4K),
        }
    }

    fn t2m(i: u64) -> Translation {
        Translation {
            vpn: Vpn::new(i, PageSize::Huge2M),
            pfn: Pfn::new(i, PageSize::Huge2M),
        }
    }

    fn hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(TlbConfig::tiny())
    }

    #[test]
    fn miss_then_fill_then_l1_hit() {
        let mut h = hierarchy();
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(h.lookup(va), TlbOutcome::Miss);
        let t = Translation {
            vpn: va.vpn(PageSize::Base4K),
            pfn: Pfn::new(1, PageSize::Base4K),
        };
        h.fill(t);
        let hit = h.lookup(va);
        assert_eq!(hit, TlbOutcome::L1Hit(t));
        assert_eq!(hit.translation(), Some(t));
        assert_eq!(TlbOutcome::Miss.translation(), None);
        assert_eq!(h.stats().accesses, 2);
        assert_eq!(h.stats().walks, 1);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = hierarchy();
        // Fill enough 4K entries mapping to the same L1 set to evict the
        // first from L1 while it survives in the larger L2.
        let l1_sets = TlbConfig::tiny().l1_4k.sets() as u64;
        let target = t4k(0);
        h.fill(target);
        for k in 1..=4 {
            h.fill(t4k(k * l1_sets)); // same L1 set as index 0
        }
        // Index 0 must be gone from L1 (4 ways) but present in L2.
        let outcome = h.lookup(target.vpn.base());
        assert_eq!(outcome, TlbOutcome::L2Hit(target));
        // Promotion: next access is an L1 hit.
        assert_eq!(h.lookup(target.vpn.base()), TlbOutcome::L1Hit(target));
    }

    #[test]
    fn huge_entry_hits_at_2m_l1() {
        let mut h = hierarchy();
        h.fill(t2m(3));
        let inside = Vpn::new(3, PageSize::Huge2M).base().offset(0x10_0000);
        assert_eq!(h.lookup(inside), TlbOutcome::L1Hit(t2m(3)));
    }

    #[test]
    fn one_gb_entries_skip_l2_by_default() {
        let mut h = hierarchy();
        let g = Translation {
            vpn: Vpn::new(2, PageSize::Huge1G),
            pfn: Pfn::new(2, PageSize::Huge1G),
        };
        h.fill(g);
        // Present in the 1G L1 only.
        assert_eq!(h.resident_entries(), 1);
        assert_eq!(h.lookup(VirtAddr::new(2 << 30)), TlbOutcome::L1Hit(g));
    }

    #[test]
    fn shootdown_clears_all_levels() {
        let mut h = hierarchy();
        let region = Vpn::new(1, PageSize::Huge2M);
        // A base page inside the region, in both L1 and L2.
        h.fill(t4k(512));
        assert!(h.shootdown(region) >= 2);
        assert_eq!(h.lookup(t4k(512).vpn.base()), TlbOutcome::Miss);
    }

    #[test]
    fn shootdown_removes_huge_translation_on_demotion() {
        let mut h = hierarchy();
        h.fill(t2m(1));
        let removed = h.shootdown(Vpn::new(1, PageSize::Huge2M));
        assert_eq!(removed, 2); // L1-2M + L2 copies
        assert_eq!(h.lookup(t2m(1).vpn.base()), TlbOutcome::Miss);
    }

    #[test]
    fn flush_resets_contents_not_stats() {
        let mut h = hierarchy();
        h.fill(t4k(1));
        h.lookup(t4k(1).vpn.base());
        h.flush();
        assert_eq!(h.resident_entries(), 0);
        assert_eq!(h.stats().accesses, 1);
    }

    #[test]
    fn walk_ratio_math() {
        let mut h = hierarchy();
        let va = VirtAddr::new(0x8000);
        h.lookup(va); // miss
        h.fill(Translation {
            vpn: va.vpn(PageSize::Base4K),
            pfn: Pfn::new(8, PageSize::Base4K),
        });
        h.lookup(va); // hit
        assert!((h.stats().walk_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_size_hit_breakdown() {
        let mut h = hierarchy();
        h.fill(t4k(1));
        h.fill(t2m(9));
        h.lookup(t4k(1).vpn.base()); // L1 hit at 4K
        h.lookup(t2m(9).vpn.base()); // L1 hit at 2M
        assert_eq!(h.stats().l1_hits_by_size, [1, 1, 0]);
        assert_eq!(
            h.stats().l1_hits_by_size.iter().sum::<u64>(),
            h.stats().l1_hits
        );
        // Evict index 1 from its L1 set so the next lookup hits L2.
        let l1_sets = TlbConfig::tiny().l1_4k.sets() as u64;
        for k in 1..=4 {
            h.fill(t4k(1 + k * l1_sets));
        }
        assert!(matches!(h.lookup(t4k(1).vpn.base()), TlbOutcome::L2Hit(_)));
        assert_eq!(h.stats().l2_hits_by_size, [1, 0, 0]);
    }

    #[test]
    fn alternating_sizes_hit_at_their_own_size() {
        // Every lookup alternates between the 4 KiB and the 2 MiB L1;
        // each must resolve at its true size with exact counts.
        let mut h = hierarchy();
        h.fill(t4k(1));
        h.fill(t2m(9));
        for _ in 0..4 {
            assert_eq!(h.lookup(t4k(1).vpn.base()), TlbOutcome::L1Hit(t4k(1)));
            assert_eq!(h.lookup(t2m(9).vpn.base()), TlbOutcome::L1Hit(t2m(9)));
        }
        let s = h.stats();
        assert_eq!(s.l1_hits_by_size, [4, 4, 0]);
        assert_eq!(s.accesses, 8);
        assert_eq!(s.walks, 0);
        // A miss searches every level and leaves no trace in their
        // stats beyond the one walk.
        assert_eq!(h.lookup(VirtAddr::new(0xdead_beef_f000)), TlbOutcome::Miss);
        assert_eq!(h.stats().l1_hits, 8);
        assert_eq!(h.stats().walks, 1);
        assert!(h.l1.iter().all(|l1| l1.stats().misses == 0));
        assert_eq!(h.l2.stats().misses, 0);
    }

    #[test]
    fn l1_hits_consume_the_leading_hits() {
        let mut h = hierarchy();
        h.fill(t4k(1));
        h.fill(t2m(9));
        let access = |t: Translation| MemoryAccess::read(t.vpn.base());
        let run = [
            access(t4k(1)),
            access(t2m(9)),
            access(t4k(1)),
            access(t4k(2)), // misses every L1: ends the run
            access(t4k(1)),
        ];
        let mut hits = Vec::new();
        assert_eq!(h.l1_hits(&run, |i, t| hits.push((i, t))), 3);
        assert_eq!(hits, [(0, t4k(1)), (1, t2m(9)), (2, t4k(1))]);
        // The access that ended the run is left for `lookup`: nothing
        // counted it yet.
        assert_eq!(h.stats().l1_hits_by_size, [2, 1, 0]);
        assert_eq!(h.stats().accesses, 3);
        assert_eq!(h.l1_hits(&run[3..], |_, _| unreachable!()), 0);
        assert_eq!(h.l1_hits(&[], |_, _| unreachable!()), 0);
        assert_eq!(h.lookup(run[3].addr), TlbOutcome::Miss);
        assert_eq!(h.stats().accesses, 4);
    }

    #[test]
    fn shootdown_keeps_a_bucket_sharing_region_hitting() {
        // Two 2 MiB regions whose 4 KiB entries count in one bucket.
        let a = 1;
        let b = (a + 1..)
            .find(|&r| region_bucket(r) == region_bucket(a))
            .expect("some region shares the bucket");
        let pages = |r: u64| (0..3).map(move |i| t4k(r * 512 + i));
        let mut h = TlbHierarchy::new(TlbConfig::paper());
        for t in pages(a).chain(pages(b)) {
            h.fill(t);
        }
        // Three entries of each region in the 4 KiB L1 and in the L2.
        assert_eq!(h.shootdown(Vpn::new(a, PageSize::Huge2M)), 6);
        // The bucket still counts b's entries: they hit in the L1 ...
        let accesses: Vec<_> = pages(b).map(|t| MemoryAccess::read(t.vpn.base())).collect();
        let mut hits = Vec::new();
        assert_eq!(h.l1_hits(&accesses, |_, t| hits.push(t)), 3);
        assert!(hits.into_iter().eq(pages(b)));
        // ... and, once the L1 is emptied, in the L2.
        h.l1[0].flush();
        assert_eq!(
            h.lookup(t4k(b * 512).vpn.base()),
            TlbOutcome::L2Hit(t4k(b * 512))
        );
        assert_eq!(h.lookup(t4k(a * 512).vpn.base()), TlbOutcome::Miss);
    }

    #[test]
    fn paper_config_constructs() {
        let h = TlbHierarchy::new(TlbConfig::paper());
        assert_eq!(h.config().l2.entries, 1024);
    }

    #[test]
    fn fill_reports_l2_victims() {
        let mut h = hierarchy();
        let l2_sets = TlbConfig::tiny().l2.sets() as u64;
        // Fill one L2 set past its 8 ways: the 9th fill evicts the LRU.
        let mut victim = None;
        for k in 0..9u64 {
            victim = h.fill(t4k(k * l2_sets));
        }
        assert_eq!(victim, Some(t4k(0)));
        // 1GB fills (never cached in L2) never report victims.
        let g = Translation {
            vpn: Vpn::new(5, PageSize::Huge1G),
            pfn: Pfn::new(5, PageSize::Huge1G),
        };
        assert_eq!(h.fill(g), None);
    }
}
