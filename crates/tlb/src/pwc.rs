//! Page Walk Cache (PWC): caches upper-level page-table entries so a
//! walk can skip levels it has recently resolved.
//!
//! The paper's §5.4.1 discusses PWCs as a design alternative to the PCC:
//! they shorten walks to ~1.1–1.4 memory references but cannot identify
//! promotion candidates (they are size-blind). This model lets the walk
//! cost in `hpage-perf` reflect PWC hits: the effective number of levels a
//! walk references is `4 - skipped`.
//!
//! Intel-style split paging-structure caches are modelled: arrays for
//! PML4E (512 GiB tags), PDPTE (1 GiB tags) and PDE (2 MiB tags) entries.
//! A hit at a level lets the walk resume below it, down to a single leaf
//! reference on a PDE hit. [`PageWalkCache`] is the only such cache: the
//! nested walker ([`NestedPwc`](crate::NestedPwc)) runs one per
//! translation dimension.

use hpage_types::{PageSize, PwcConfig, VirtAddr, Vpn};

/// Statistics for one PWC instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PwcStats {
    /// Walks that consulted the PWC.
    pub walks: u64,
    /// Walks that skipped straight to the leaf PTE (PDE-cache hit).
    pub pde_hits: u64,
    /// Walks that skipped down to the PD level (PDPTE-cache hit).
    pub pdpte_hits: u64,
    /// Walks that skipped only the top level (PML4E-cache hit).
    pub pml4e_hits: u64,
    /// Walks with no PWC hit (full walk).
    pub misses: u64,
    /// Total page-table levels actually referenced.
    pub levels_referenced: u64,
}

impl PwcStats {
    /// Mean page-table references per walk (the paper quotes 1.1–1.4 for
    /// real PWCs; a leaf PTE reference is always needed).
    pub fn mean_references(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.levels_referenced as f64 / self.walks as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    stamp: u64,
}

/// Fully associative true-LRU array keyed by a region tag. Its own
/// stamp counter is bumped on *every* touch, so stamps within the array
/// are unique and the LRU victim is always unique. Victims are chosen
/// by comparing stamps inside one array only, so any counter that
/// increases with time orders the entries the same way.
#[derive(Debug, Clone)]
pub(crate) struct LruArray {
    entries: Vec<Entry>,
    capacity: usize,
    stamp: u64,
}

impl LruArray {
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "PWC arrays need at least one entry");
        LruArray {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            stamp: 0,
        }
    }

    /// Probes for `tag`, refreshing recency on a hit.
    pub(crate) fn probe(&mut self, tag: u64) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            self.stamp += 1;
            e.stamp = self.stamp;
            true
        } else {
            false
        }
    }

    /// Inserts `tag`, evicting the LRU entry when full.
    pub(crate) fn install(&mut self, tag: u64) {
        if self.probe(tag) {
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.entries.swap_remove(lru);
        }
        self.stamp += 1;
        self.entries.push(Entry {
            tag,
            stamp: self.stamp,
        });
    }

    /// Drops every entry whose tag fails `keep`; returns entries dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| keep(e.tag));
        before - self.entries.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A fully-software model of a split paging-structure cache (Intel
/// terminology): separate arrays for PML4E, PDPTE, and PDE entries.
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    /// Indexed by structure level − 1: the PML4E cache (tags are
    /// 512 GiB-region indices, `addr >> 39`), the PDPTE cache (1 GiB,
    /// `addr >> 30`) and the PDE cache (2 MiB, `addr >> 21`; only
    /// meaningful for 4 KiB-leaf walks, since a 2 MiB leaf *is* the PDE).
    arrays: [LruArray; 3],
    stats: PwcStats,
}

impl PageWalkCache {
    /// Creates a PWC with the given geometry (fully associative, LRU).
    /// Skylake-era parts have roughly 4×PML4E, 16–32×PDPTE and
    /// 32–64×PDE entries ([`PwcConfig::typical`]).
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero (callers should
    /// [`PwcConfig::validate`] first).
    pub fn new(config: PwcConfig) -> Self {
        PageWalkCache {
            arrays: [
                LruArray::new(config.pml4e_entries),
                LruArray::new(config.pdpte_entries),
                LruArray::new(config.pde_entries),
            ],
            stats: PwcStats::default(),
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &PwcStats {
        &self.stats
    }

    /// Accounts one hardware walk for `addr` whose leaf sits at
    /// `leaf_levels` radix levels from the root (4 for a 4 KiB PTE, 3
    /// for a 2 MiB PMD leaf, 2 for a 1 GiB PUD leaf). Returns the number
    /// of page-table levels actually referenced after PWC skipping, and
    /// installs the walked prefix entries. The address is whatever the
    /// walked table is indexed by: a virtual address natively, a
    /// guest-physical one in the host dimension of a nested walk.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_levels` is outside `2..=4`.
    pub fn walk(&mut self, addr: VirtAddr, leaf_levels: u8) -> u8 {
        assert!((2..=4).contains(&leaf_levels), "leaf level out of range");
        self.stats.walks += 1;
        let tag = |level: u8| addr.raw() >> (48 - 9 * u32::from(level));

        // Deepest hit wins; structure levels above the hit are not
        // referenced, so their cache arrays are left untouched. The walk
        // installs every non-leaf entry it actually traverses: a PDE is
        // only a non-leaf on 4 KiB-leaf walks, and a PDPTE is only a
        // non-leaf when the leaf sits below it (3+ levels) — a 1 GiB-leaf
        // walk's PDPTE is the translation itself and paging-structure
        // caches never hold leaves.
        let hit = (1..leaf_levels)
            .rev()
            .find(|&level| self.arrays[usize::from(level) - 1].probe(tag(level)))
            .unwrap_or(0);
        for level in hit + 1..leaf_levels {
            self.arrays[usize::from(level) - 1].install(tag(level));
        }
        match hit {
            0 => self.stats.misses += 1,
            1 => self.stats.pml4e_hits += 1,
            2 => self.stats.pdpte_hits += 1,
            _ => self.stats.pde_hits += 1,
        }
        let referenced = leaf_levels - hit;
        self.stats.levels_referenced += u64::from(referenced);
        referenced
    }

    /// Invalidates cached structure entries overlapping a huge region. A
    /// promotion/demotion rewrites the region's PDE, so the PDE-cache
    /// copy must go (and, conservatively, the covering PDPTE entry).
    pub fn invalidate_region(&mut self, region: Vpn) -> usize {
        let g = region.containing(PageSize::Huge1G).index();
        let m = region.index();
        self.arrays[1].retain(|tag| tag != g) + self.arrays[2].retain(|tag| tag != m)
    }

    /// Empties all arrays.
    pub fn flush(&mut self) {
        for array in &mut self.arrays {
            array.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_walk_references_all_levels() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        assert_eq!(pwc.walk(VirtAddr::new(0x1234_5000), 4), 4);
        assert_eq!(pwc.stats().misses, 1);
    }

    #[test]
    fn repeat_walk_same_2m_region_hits_pde() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        pwc.walk(VirtAddr::new(0x1234_5000), 4);
        // Same 2MB region: PDE hit, only the leaf PTE referenced.
        assert_eq!(pwc.walk(VirtAddr::new(0x1234_6000), 4), 1);
        assert_eq!(pwc.stats().pde_hits, 1);
        // Same 1GB region, different 2MB region: PDPTE hit (2 refs).
        assert_eq!(pwc.walk(VirtAddr::new(0x1255_0000), 4), 2);
        assert_eq!(pwc.stats().pdpte_hits, 1);
        assert!(pwc.stats().mean_references() < 4.0);
    }

    #[test]
    fn cross_1g_same_512g_skips_top_only() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        pwc.walk(VirtAddr::new(0), 4);
        // Different 1GB region, same 512GB region: PML4E hit.
        assert_eq!(pwc.walk(VirtAddr::new(1 << 30), 4), 3);
        assert_eq!(pwc.stats().pml4e_hits, 1);
    }

    #[test]
    fn huge_leaf_walks_are_shorter() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 3), 3); // cold 2MB leaf
        assert_eq!(pwc.walk(VirtAddr::new(0x4020_0000), 3), 1); // PDPTE hit
                                                                // A 1GB leaf with a PDPTE hit still needs the leaf reference.
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 2), 1);
    }

    #[test]
    fn lru_eviction_in_pdpte_array() {
        let mut pwc = PageWalkCache::new(PwcConfig {
            pml4e_entries: 4,
            pdpte_entries: 2,
            pde_entries: 64,
        });
        pwc.walk(VirtAddr::new(0), 4);
        pwc.walk(VirtAddr::new(1 << 30), 4);
        pwc.walk(VirtAddr::new(2 << 30), 4); // evicts 1GB region 0
                                             // Region 0 misses the PDPTE array (but hits the PDE cache from
                                             // its own earlier walk — same 2MB region).
        assert_eq!(pwc.walk(VirtAddr::new(0), 4), 1);
        // A *different* 2MB page in region 0 must pay the PML4E-only
        // path (PDE and PDPTE both miss).
        assert_eq!(pwc.walk(VirtAddr::new(0x40_0000), 4), 3);
    }

    #[test]
    fn huge_1g_leaf_does_not_seed_structure_cache() {
        // A 1 GiB-leaf walk's PDPTE *is* the translation, not a pointer
        // to a lower table; paging-structure caches never hold leaves.
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 2), 2);
        // A later 4 KiB-leaf walk in the same 1 GiB region must pay the
        // PML4E-hit path (3 references), not a bogus PDPTE hit seeded by
        // the huge leaf above it.
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_1000), 4), 3);
        assert_eq!(pwc.stats().pml4e_hits, 1);
        assert_eq!(pwc.stats().pdpte_hits, 0);
    }

    #[test]
    fn steady_state_approaches_paper_reference_rate() {
        // Hammer a handful of 1GB regions: mean references/walk should
        // approach the 1.1–1.4 the paper quotes for effective PWCs.
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        for i in 0..10_000u64 {
            pwc.walk(VirtAddr::new((i % 8) << 30 | (i * 0x1000) & 0x3FFF_F000), 4);
        }
        let mean = pwc.stats().mean_references();
        assert!((1.0..1.5).contains(&mean), "mean refs {mean}");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        pwc.walk(VirtAddr::new(0x4000_0000), 4);
        let region = VirtAddr::new(0x4000_0000).vpn(PageSize::Huge2M);
        // Both the PDE entry and the covering PDPTE entry are dropped.
        assert_eq!(pwc.invalidate_region(region), 2);
        pwc.walk(VirtAddr::new(0x4000_0000), 4);
        pwc.flush();
        assert_eq!(pwc.walk(VirtAddr::new(0x4000_0000), 4), 4);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = PageWalkCache::new(PwcConfig {
            pml4e_entries: 0,
            pdpte_entries: 4,
            pde_entries: 4,
        });
    }

    #[test]
    #[should_panic(expected = "leaf level")]
    fn bad_leaf_level_panics() {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        pwc.walk(VirtAddr::new(0), 5);
    }
}
