//! A set-associative TLB with LRU replacement.

use crate::table::Translation;
use hpage_types::{PageSize, Pfn, TlbLevelConfig, VirtAddr, Vpn};

/// Hit/miss counters for one TLB structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Lookups that found no matching entry.
    pub misses: u64,
    /// Entries displaced by fills into full sets.
    pub evictions: u64,
    /// Entries removed by invalidations (shootdowns).
    pub invalidations: u64,
}

impl TlbStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when there were no lookups.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }
}

/// One resident entry, packed to 16 bytes so an LRU scan over a
/// 12-way set reads three cache lines instead of the nine a struct
/// with unpacked [`Translation`]s would span. The entry's VPN lives in
/// the parallel `keys` slab ([`vpn_key`]); the slot keeps only the
/// packed PFN ([`pfn_key`]) and its recency stamp.
///
/// LRU ties on `last_used` resolve to the lowest slot position, and
/// removal compacts order-preservingly ([`SetAssocTlb::remove_at`]),
/// so position order *is* insertion order: ties evict the
/// earliest-inserted entry without needing a separate sequence number.
/// (Ties cannot arise through the public API — every stamp comes from
/// a fresh clock increment — but the invariant is kept anyway.)
#[derive(Debug, Clone, Copy)]
struct Slot {
    pfn: u64,
    last_used: u64,
}

/// One set-associative translation lookaside buffer.
///
/// A TLB may hold entries of several page sizes (the unified L2 on Intel
/// parts holds 4 KiB and 2 MiB translations); the set index is derived
/// from the VPN at each entry's own page size and the match requires both
/// index and size to agree.
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    /// All slots in one contiguous slab, `ways` per set: set `s`
    /// occupies `slots[s * ways .. s * ways + lens[s]]`, live entries
    /// first, in insertion order. One allocation instead of a `Vec`
    /// per set keeps the per-access probe from chasing a pointer per
    /// set (the unified L2 has 128 of them).
    slots: Vec<Slot>,
    /// Packed match keys ([`vpn_key`]) parallel to `slots`. The probe
    /// scan compares 8-byte keys — a 12-way set fits in two cache
    /// lines instead of the nine its 48-byte slots span; the payload
    /// is only dereferenced on a hit.
    keys: Vec<u64>,
    /// Live-entry count per set.
    lens: Vec<u32>,
    /// Total live entries (sum of `lens`), kept incrementally so the
    /// hit path can skip scanning an empty structure in O(1) — the 1G
    /// L1 (and the 2M L1 before any promotion) is probed on every
    /// access but holds nothing.
    live: usize,
    ways: u32,
    clock: u64,
    /// `set_count - 1` when the set count is a power of two (the
    /// common geometries), letting [`Self::set_index`] mask instead of
    /// divide on the per-access path; `usize::MAX` otherwise.
    set_mask: usize,
    stats: TlbStats,
}

/// Packs a [`Vpn`] into the 8-byte match key the probe scan compares:
/// page index in the high bits, page size in the low two. Bijective,
/// so key equality is exactly `Vpn` equality.
#[inline(always)]
fn vpn_key(vpn: Vpn) -> u64 {
    (vpn.index() << 2) | vpn.size() as u64
}

/// Packs a [`Pfn`] the same way [`vpn_key`] packs a VPN.
#[inline(always)]
fn pfn_key(pfn: Pfn) -> u64 {
    (pfn.index() << 2) | pfn.size() as u64
}

/// Inverse of [`vpn_key`].
#[inline(always)]
fn key_vpn(key: u64) -> Vpn {
    Vpn::new(key >> 2, PageSize::ALL[(key & 3) as usize])
}

/// Inverse of [`pfn_key`].
#[inline(always)]
fn key_pfn(key: u64) -> Pfn {
    Pfn::new(key >> 2, PageSize::ALL[(key & 3) as usize])
}

/// Placeholder occupying slab slots beyond a set's live length; never
/// observable (every read is bounded by `lens`).
const EMPTY_SLOT: Slot = Slot {
    pfn: 0,
    last_used: 0,
};

impl SetAssocTlb {
    /// Creates a TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see
    /// [`TlbLevelConfig::validate`]).
    pub fn new(config: TlbLevelConfig) -> Self {
        config.validate().expect("invalid TLB geometry");
        let sets = config.sets() as usize;
        SetAssocTlb {
            slots: vec![EMPTY_SLOT; sets * config.ways as usize],
            keys: vec![0; sets * config.ways as usize],
            lens: vec![0; sets],
            live: 0,
            ways: config.ways,
            clock: 0,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                usize::MAX
            },
            stats: TlbStats::default(),
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.lens.len()
    }

    /// The live slots of set `idx`.
    fn set(&self, idx: usize) -> &[Slot] {
        let base = idx * self.ways as usize;
        &self.slots[base..base + self.lens[idx] as usize]
    }

    /// The live slots of set `idx`, mutably.
    fn set_mut(&mut self, idx: usize) -> &mut [Slot] {
        let base = idx * self.ways as usize;
        &mut self.slots[base..base + self.lens[idx] as usize]
    }

    /// Position of `vpn` among set `idx`'s live slots, via the packed
    /// key slab.
    #[inline(always)]
    fn find(&self, idx: usize, vpn: Vpn) -> Option<usize> {
        let base = idx * self.ways as usize;
        let key = vpn_key(vpn);
        self.keys[base..base + self.lens[idx] as usize]
            .iter()
            .position(|&k| k == key)
    }

    /// Order-preserving removal of live slot `pos` from set `idx`,
    /// returning the translation it held.
    fn remove_at(&mut self, idx: usize, pos: usize) -> Translation {
        let base = idx * self.ways as usize;
        let len = self.lens[idx] as usize;
        debug_assert!(pos < len);
        let victim = Translation {
            vpn: key_vpn(self.keys[base + pos]),
            pfn: key_pfn(self.slots[base + pos].pfn),
        };
        self.slots
            .copy_within(base + pos + 1..base + len, base + pos);
        self.keys
            .copy_within(base + pos + 1..base + len, base + pos);
        self.lens[idx] -= 1;
        self.live -= 1;
        victim
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Iterates over every resident translation, in no particular order.
    /// Read-only: recency and statistics are untouched — this is the
    /// auditor's view, not an architectural lookup.
    pub fn entries(&self) -> impl Iterator<Item = Translation> + '_ {
        (0..self.set_count()).flat_map(move |idx| {
            let base = idx * self.ways as usize;
            let len = self.lens[idx] as usize;
            self.keys[base..base + len]
                .iter()
                .zip(&self.slots[base..base + len])
                .map(|(&k, s)| Translation {
                    vpn: key_vpn(k),
                    pfn: key_pfn(s.pfn),
                })
        })
    }

    #[inline(always)]
    fn set_index(&self, vpn: Vpn) -> usize {
        if self.set_mask != usize::MAX {
            vpn.index() as usize & self.set_mask
        } else {
            (vpn.index() % self.lens.len() as u64) as usize
        }
    }

    /// Looks up the translation for `vpn` (VPN at a specific page size).
    /// Updates recency on a hit and the hit/miss statistics always.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Translation> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(vpn);
        if let Some(pos) = self.find(idx, vpn) {
            self.stats.hits += 1;
            let slot = &mut self.set_mut(idx)[pos];
            slot.last_used = clock;
            Some(Translation {
                vpn,
                pfn: key_pfn(slot.pfn),
            })
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Checks whether `vpn` is resident without updating recency or
    /// statistics.
    pub fn probe(&self, vpn: Vpn) -> Option<Translation> {
        if self.live == 0 {
            return None;
        }
        let idx = self.set_index(vpn);
        self.find(idx, vpn).map(|pos| Translation {
            vpn,
            pfn: key_pfn(self.set(idx)[pos].pfn),
        })
    }

    /// Hit-path combination of [`probe`](Self::probe) +
    /// [`lookup`](Self::lookup): a single set scan that, on a hit,
    /// refreshes recency and counts the hit exactly like `lookup` — and
    /// on a miss changes *nothing* (no clock tick, no miss counted),
    /// exactly like `probe`. The hierarchy's lookup uses this so a hit
    /// costs one scan instead of two.
    #[inline]
    pub fn touch(&mut self, vpn: Vpn) -> Option<Translation> {
        if self.live == 0 {
            return None;
        }
        let idx = self.set_index(vpn);
        let pos = self.find(idx, vpn)?;
        self.clock += 1;
        let clock = self.clock;
        self.stats.hits += 1;
        let slot = &mut self.set_mut(idx)[pos];
        slot.last_used = clock;
        Some(Translation {
            vpn,
            pfn: key_pfn(slot.pfn),
        })
    }

    /// Inserts a translation, evicting the LRU slot of its set when full.
    /// Returns the evicted translation, if any. Re-inserting a resident
    /// VPN refreshes its payload and recency without eviction.
    ///
    /// Recency ties are broken by slot position, which order-preserving
    /// removal keeps equal to insertion order (earliest-inserted evicted
    /// first): `Vec::swap_remove` used to perturb slot order on every
    /// invalidation, making tied evictions depend on incidental layout.
    pub fn insert(&mut self, translation: Translation) -> Option<Translation> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways as usize;
        let idx = self.set_index(translation.vpn);
        if let Some(pos) = self.find(idx, translation.vpn) {
            let slot = &mut self.set_mut(idx)[pos];
            slot.pfn = pfn_key(translation.pfn);
            slot.last_used = clock;
            return None;
        }
        let evicted = if self.lens[idx] as usize == ways {
            // First minimum wins (`min_by_key` would take the last):
            // lowest position is earliest-inserted on a recency tie.
            let set = self.set(idx);
            let mut lru = 0;
            for (i, s) in set.iter().enumerate().skip(1) {
                if s.last_used < set[lru].last_used {
                    lru = i;
                }
            }
            let victim = self.remove_at(idx, lru);
            self.stats.evictions += 1;
            Some(victim)
        } else {
            None
        };
        let base = idx * ways;
        let len = self.lens[idx] as usize;
        self.slots[base + len] = Slot {
            pfn: pfn_key(translation.pfn),
            last_used: clock,
        };
        self.keys[base + len] = vpn_key(translation.vpn);
        self.lens[idx] += 1;
        self.live += 1;
        evicted
    }

    /// Removes the entry for exactly `vpn`, returning whether it existed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let idx = self.set_index(vpn);
        if let Some(pos) = self.find(idx, vpn) {
            self.remove_at(idx, pos);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Removes every entry whose page overlaps the huge region `region`
    /// (a TLB shootdown for a promotion/demotion invalidates stale
    /// translations of all sizes within the region). Returns the number
    /// removed.
    pub fn invalidate_region(&mut self, region: Vpn) -> usize {
        let start = region.base().raw();
        let end = start + region.size().bytes();
        let mut removed = 0;
        let ways = self.ways as usize;
        for idx in 0..self.lens.len() {
            let base_off = idx * ways;
            let len = self.lens[idx] as usize;
            // Order-preserving in-place compaction (retain).
            let mut keep = 0;
            for pos in 0..len {
                let vpn = key_vpn(self.keys[base_off + pos]);
                let base = vpn.base().raw();
                let span = vpn.size().bytes();
                // Keep entries that do not overlap [start, end).
                if base + span <= start || base >= end {
                    if keep != pos {
                        self.slots[base_off + keep] = self.slots[base_off + pos];
                        self.keys[base_off + keep] = self.keys[base_off + pos];
                    }
                    keep += 1;
                }
            }
            removed += len - keep;
            self.live -= len - keep;
            self.lens[idx] = keep as u32;
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Empties the TLB (full flush).
    pub fn flush(&mut self) {
        self.lens.fill(0);
        self.live = 0;
    }

    /// Resolves a raw virtual address by probing at each page size this
    /// TLB could hold, smallest first. Convenience for unified TLBs.
    pub fn lookup_addr(&mut self, va: VirtAddr, sizes: &[PageSize]) -> Option<Translation> {
        for &size in sizes {
            if self.probe(va.vpn(size)).is_some() {
                return self.lookup(va.vpn(size));
            }
        }
        // Count a single miss for the failed lookup.
        self.clock += 1;
        self.stats.misses += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_types::Pfn;

    fn tr(i: u64) -> Translation {
        Translation {
            vpn: Vpn::new(i, PageSize::Base4K),
            pfn: Pfn::new(i + 1000, PageSize::Base4K),
        }
    }

    fn tlb(entries: u32, ways: u32) -> SetAssocTlb {
        SetAssocTlb::new(TlbLevelConfig::new(entries, ways))
    }

    #[test]
    fn hit_after_insert() {
        let mut t = tlb(8, 4);
        t.insert(tr(3));
        assert_eq!(t.lookup(tr(3).vpn), Some(tr(3)));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn miss_counts() {
        let mut t = tlb(8, 4);
        assert!(t.lookup(Vpn::new(1, PageSize::Base4K)).is_none());
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().miss_ratio(), 1.0);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets, 2 ways: indices 0,2,4 map to set 0.
        let mut t = tlb(4, 2);
        t.insert(tr(0));
        t.insert(tr(2));
        t.lookup(tr(0).vpn); // make 0 the MRU
        let evicted = t.insert(tr(4));
        assert_eq!(evicted, Some(tr(2)));
        assert!(t.probe(tr(0).vpn).is_some());
        assert!(t.probe(tr(4).vpn).is_some());
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn lru_ties_resolve_by_insertion_order_not_slot_position() {
        // Regression: eviction used `swap_remove`, so an invalidation
        // reordered the surviving slots and a later recency tie was
        // broken by whichever entry happened to sit first (here the
        // *newest* one), not by insertion order.
        let mut t = tlb(4, 4); // one fully-associative set
        for i in 0..4 {
            t.insert(tr(i)); // set 0 = [0, 1, 2, 3]
        }
        t.invalidate(tr(0).vpn); // swap_remove used to leave [3, 1, 2]
        t.insert(tr(4));
        // Force a recency tie across the whole set (unreachable through
        // the public API, whose clock stamps are unique — but exactly
        // the state an architectural LRU approximation with coarse
        // recency bits lives in).
        for slot in t.set_mut(0) {
            slot.last_used = 99;
        }
        // The earliest-inserted survivor must lose the tie.
        assert_eq!(t.insert(tr(5)), Some(tr(1)));
    }

    #[test]
    fn invalidate_preserves_slot_order() {
        let mut t = tlb(4, 4);
        for i in 0..4 {
            t.insert(tr(i));
        }
        t.invalidate(tr(1).vpn);
        let resident: Vec<u64> = t.entries().map(|e| e.vpn.index()).collect();
        assert_eq!(resident, vec![0, 2, 3]);
    }

    #[test]
    fn non_power_of_two_set_count_still_indexes_correctly() {
        // 12 entries / 4 ways = 3 sets: the mask fast path must not
        // apply; page 5 maps to set 5 % 3 = 2.
        let mut t = tlb(12, 4);
        assert_eq!(t.set_count(), 3);
        t.insert(tr(5));
        assert_eq!(t.lookup(tr(5).vpn), Some(tr(5)));
        assert_eq!(t.set(2).len(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut t = tlb(4, 2);
        t.insert(tr(0));
        assert_eq!(t.insert(tr(0)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let mut t = tlb(8, 8);
        let a = Translation {
            vpn: Vpn::new(1, PageSize::Base4K),
            pfn: Pfn::new(1, PageSize::Base4K),
        };
        let b = Translation {
            vpn: Vpn::new(1, PageSize::Huge2M),
            pfn: Pfn::new(1, PageSize::Huge2M),
        };
        t.insert(a);
        t.insert(b);
        assert_eq!(t.lookup(a.vpn), Some(a));
        assert_eq!(t.lookup(b.vpn), Some(b));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn invalidate_exact() {
        let mut t = tlb(8, 4);
        t.insert(tr(3));
        assert!(t.invalidate(tr(3).vpn));
        assert!(!t.invalidate(tr(3).vpn));
        assert!(t.probe(tr(3).vpn).is_none());
    }

    #[test]
    fn invalidate_region_removes_contained_base_pages() {
        let mut t = tlb(1024, 8);
        let region = Vpn::new(1, PageSize::Huge2M); // covers 4K pages 512..1024
        t.insert(tr(512));
        t.insert(tr(1023));
        t.insert(tr(1024)); // outside
        let removed = t.invalidate_region(region);
        assert_eq!(removed, 2);
        assert!(t.probe(tr(1024).vpn).is_some());
    }

    #[test]
    fn invalidate_region_removes_huge_entry_itself() {
        let mut t = tlb(8, 8);
        let huge = Translation {
            vpn: Vpn::new(1, PageSize::Huge2M),
            pfn: Pfn::new(1, PageSize::Huge2M),
        };
        t.insert(huge);
        assert_eq!(t.invalidate_region(huge.vpn), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_region_removes_overlapping_1g_entry() {
        let mut t = tlb(8, 8);
        let giant = Translation {
            vpn: Vpn::new(0, PageSize::Huge1G),
            pfn: Pfn::new(0, PageSize::Huge1G),
        };
        t.insert(giant);
        // Shooting down a 2MB region inside the 1GB page must remove it.
        assert_eq!(t.invalidate_region(Vpn::new(5, PageSize::Huge2M)), 1);
    }

    #[test]
    fn flush_empties() {
        let mut t = tlb(8, 4);
        t.insert(tr(1));
        t.insert(tr(2));
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn lookup_addr_probes_sizes() {
        let mut t = tlb(8, 8);
        let huge = Translation {
            vpn: Vpn::new(3, PageSize::Huge2M),
            pfn: Pfn::new(3, PageSize::Huge2M),
        };
        t.insert(huge);
        let va = huge.vpn.base().offset(0x1234);
        let sizes = [PageSize::Base4K, PageSize::Huge2M];
        assert_eq!(t.lookup_addr(va, &sizes), Some(huge));
        // A miss at all sizes counts one miss.
        let misses_before = t.stats().misses;
        assert!(t
            .lookup_addr(VirtAddr::new(0x0dea_dbee_f000), &sizes)
            .is_none());
        assert_eq!(t.stats().misses, misses_before + 1);
    }

    #[test]
    fn capacity_respected() {
        let mut t = tlb(16, 4);
        for i in 0..1000 {
            t.insert(tr(i));
            assert!(t.len() <= 16);
        }
    }

    #[test]
    #[should_panic(expected = "invalid TLB geometry")]
    fn invalid_geometry_panics() {
        let _ = tlb(7, 2);
    }
}
