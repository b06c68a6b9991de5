//! A set-associative TLB with LRU replacement.

use crate::table::Translation;
use hpage_types::{MemoryAccess, PageSize, Pfn, TlbLevelConfig, Vpn};

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
    /// occupies `slots[s * ways .. (s + 1) * ways]`, live entries
    /// first, in insertion order. One allocation instead of a `Vec`
    /// per set keeps the per-access probe from chasing a pointer per
    /// set (the unified L2 has 128 of them).
    slots: Vec<Slot>,
    /// Packed match keys ([`vpn_key`]) parallel to `slots`; a way past
    /// its set's live entries holds [`EMPTY_KEY`]. A set search
    /// compares all `ways` 8-byte keys at once ([`search`]) — a 12-way
    /// set fits in two cache lines instead of the three its slots span
    /// — and dereferences the payload only on a hit.
    keys: Vec<u64>,
    /// Resident 4 KiB entries per 2 MiB-region bucket ([`small_bucket`]),
    /// exact at all times: a zero bucket proves that no 4 KiB entry of
    /// a region in it is resident, so a 4 KiB search for an address in
    /// such a region would miss and is skipped
    /// ([`find_small`](Self::find_small)). Kept by the only writers of
    /// `keys`: [`insert`](Self::insert) (a new key),
    /// [`remove_at`](Self::remove_at) (evictions and
    /// [`invalidate`](Self::invalidate)),
    /// [`invalidate_region`](Self::invalidate_region) and
    /// [`flush`](Self::flush). `u32` cannot saturate: a level holds at
    /// most `TlbLevelConfig::entries`, a `u32`, entries.
    small_counts: Box<[u32; REGION_BUCKETS]>,
    geometry: Geometry,
    clock: u64,
    stats: TlbStats,
}

/// Buckets in a level's [`SetAssocTlb::small_counts`]: 4 KiB of counts,
/// beside the 512 B of keys of Table 2's 4 KiB L1.
const REGION_BUCKETS: usize = 1 << 10;

/// The bucket of the 2 MiB region with index `region`: its low bits.
/// A workload's arrays are laid out one after another
/// (`hpage_trace::AddressSpaceBuilder`), so regions less than 2 GiB apart
/// never share a bucket, and the index costs one `and` on the
/// per-access path (a multiplicative hash measured slower there).
#[inline(always)]
pub(crate) fn region_bucket(region: u64) -> usize {
    region as usize & (REGION_BUCKETS - 1)
}

/// The bucket of the 4 KiB page `vpn`: its 2 MiB region's, whose index
/// drops the 9 bits of a page's place in the region. A zero count there
/// proves that `vpn` is not resident, so a search for it would miss.
#[inline(always)]
fn page_bucket(vpn: Vpn) -> usize {
    debug_assert_eq!(vpn.size(), PageSize::Base4K);
    region_bucket(vpn.index() >> 9)
}

/// The bucket a packed key ([`vpn_key`]) counts in: [`page_bucket`],
/// for a 4 KiB key; `None` for any other size and for [`EMPTY_KEY`].
#[inline(always)]
fn small_bucket(key: u64) -> Option<usize> {
    (key & 3 == 0).then(|| page_bucket(key_vpn(key)))
}

/// The shape of a level's slab, as the set search reads it.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometries), letting [`Self::set_base`] mask instead of divide
    /// on the per-access path; `usize::MAX` otherwise.
    set_mask: usize,
}

impl Geometry {
    /// Slab offset of the set `vpn` indexes. A non-zero `W` asserts
    /// that the level has `W` ways and a power-of-two set count, so the
    /// offset is a mask and a constant multiply; `W == 0` reads both
    /// from the geometry.
    #[inline(always)]
    fn set_base<const W: usize>(self, vpn: Vpn) -> usize {
        if W != 0 {
            return (vpn.index() as usize & self.set_mask) * W;
        }
        let set = if self.set_mask != usize::MAX {
            vpn.index() as usize & self.set_mask
        } else {
            (vpn.index() % self.sets as u64) as usize
        };
        set * self.ways
    }
}

/// Packs a [`Vpn`] into the 8-byte match key the set search compares:
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

/// The page size a packed key's low two bits name. Total (3, which
/// no live key holds, reads as 1 GiB), so decoding a key cannot panic
/// and costs nothing when the caller drops the result.
#[inline(always)]
fn key_size(key: u64) -> PageSize {
    match key & 3 {
        0 => PageSize::Base4K,
        1 => PageSize::Huge2M,
        _ => PageSize::Huge1G,
    }
}

/// Inverse of [`vpn_key`].
#[inline(always)]
fn key_vpn(key: u64) -> Vpn {
    Vpn::new(key >> 2, key_size(key))
}

/// Inverse of [`pfn_key`].
#[inline(always)]
fn key_pfn(key: u64) -> Pfn {
    Pfn::new(key >> 2, key_size(key))
}

/// The key of an empty way. Its low two bits, 3, name no [`PageSize`],
/// so no [`vpn_key`] equals it — not even VPN 0's, which is 0.
const EMPTY_KEY: u64 = u64::MAX;

/// Bitmask of the `keys` equal to `key`, bit `i` for way `i`.
#[inline(always)]
fn mask_of(keys: &[u64], key: u64) -> u64 {
    keys.iter()
        .enumerate()
        .fold(0, |mask, (i, &k)| mask | u64::from(k == key) << i)
}

/// Bitmask of the ways of the `ways`-way set at slab offset `base`
/// whose key is `key`. Searching all ways, empty ones included, needs
/// no live-length bound and no early exit, so the compare has no
/// branch to mispredict; the 4- and 8-way arms give the compiler a
/// constant trip count to unroll.
#[inline(always)]
fn match_mask(keys: &[u64], ways: usize, base: usize, key: u64) -> u64 {
    match ways {
        4 => mask_of(&keys[base..base + 4], key),
        8 => mask_of(&keys[base..base + 8], key),
        ways => mask_of(&keys[base..base + ways], key),
    }
}

/// The one set search: slab position of `vpn`'s entry, if resident.
/// `W` is as in [`Geometry::set_base`]: non-zero only for a level with
/// `W` ways and a power-of-two set count, which then searches a
/// fixed-size set. Keys are unique within a set, so the match mask has
/// at most one bit.
#[inline(always)]
fn search<const W: usize>(keys: &[u64], geometry: Geometry, vpn: Vpn) -> Option<usize> {
    let base = geometry.set_base::<W>(vpn);
    let key = vpn_key(vpn);
    let mask = if W != 0 {
        mask_of(&keys[base..base + W], key)
    } else {
        match_mask(keys, geometry.ways, base, key)
    };
    (mask != 0).then_some(base + mask.trailing_zeros() as usize)
}

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
            slots: vec![
                Slot {
                    pfn: 0,
                    last_used: 0
                };
                sets * config.ways as usize
            ],
            keys: vec![EMPTY_KEY; sets * config.ways as usize],
            small_counts: Box::new([0; REGION_BUCKETS]),
            geometry: Geometry {
                sets,
                ways: config.ways as usize,
                set_mask: if sets.is_power_of_two() {
                    sets - 1
                } else {
                    usize::MAX
                },
            },
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Slab position of `vpn`'s entry, if resident ([`search`]'s
    /// generic arm).
    #[inline(always)]
    pub(crate) fn find(&self, vpn: Vpn) -> Option<usize> {
        search::<0>(&self.keys, self.geometry, vpn)
    }

    /// Slab offset of the set `vpn` indexes.
    #[inline(always)]
    fn set_base(&self, vpn: Vpn) -> usize {
        self.geometry.set_base::<0>(vpn)
    }

    /// [`find`](Self::find) for a 4 KiB `vpn`, without the set search
    /// when its region's bucket is zero ([`page_bucket`]).
    #[inline(always)]
    pub(crate) fn find_small(&self, vpn: Vpn) -> Option<usize> {
        if self.small_counts[page_bucket(vpn)] == 0 {
            return None;
        }
        self.find(vpn)
    }

    /// Drops a key leaving the slab from its bucket's count.
    #[inline(always)]
    fn uncount(&mut self, key: u64) {
        if let Some(bucket) = small_bucket(key) {
            self.small_counts[bucket] -= 1;
        }
    }

    /// Order-preserving removal of the entry at slab position `pos`
    /// from the set at `base`, returning the translation it held.
    fn remove_at(&mut self, base: usize, pos: usize) -> Translation {
        let end = base + self.geometry.ways;
        let key = self.keys[pos];
        self.uncount(key);
        let victim = Translation {
            vpn: key_vpn(key),
            pfn: key_pfn(self.slots[pos].pfn),
        };
        self.slots.copy_within(pos + 1..end, pos);
        self.keys.copy_within(pos + 1..end, pos);
        self.keys[end - 1] = EMPTY_KEY;
        victim
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.geometry.ways as u32
    }

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY_KEY).count()
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
        self.keys
            .iter()
            .zip(&self.slots)
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, s)| Translation {
                vpn: key_vpn(k),
                pfn: key_pfn(s.pfn),
            })
    }

    /// Counts a hit on the entry at slab position `pos` (from
    /// [`find`](Self::find)) and refreshes its recency. A probe that
    /// misses leaves clock and stats untouched, so the hierarchy can
    /// search every level it might hit and count only the one that did.
    #[inline(always)]
    pub(crate) fn hit(&mut self, pos: usize, vpn: Vpn) -> Translation {
        self.clock += 1;
        self.stats.hits += 1;
        let slot = &mut self.slots[pos];
        slot.last_used = self.clock;
        Translation {
            vpn,
            pfn: key_pfn(slot.pfn),
        }
    }

    /// Looks up the translation for `vpn` (VPN at a specific page size).
    /// Updates recency on a hit and the hit/miss statistics always.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Translation> {
        match self.find(vpn) {
            Some(pos) => Some(self.hit(pos, vpn)),
            None => {
                self.clock += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks whether `vpn` is resident without updating recency or
    /// statistics.
    pub fn probe(&self, vpn: Vpn) -> Option<Translation> {
        self.find(vpn).map(|pos| Translation {
            vpn,
            pfn: key_pfn(self.slots[pos].pfn),
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
        let slot = Slot {
            pfn: pfn_key(translation.pfn),
            last_used: self.clock,
        };
        let base = self.set_base(translation.vpn);
        let key = vpn_key(translation.vpn);
        let ways = self.geometry.ways;
        let resident = match_mask(&self.keys, ways, base, key);
        if resident != 0 {
            self.slots[base + resident.trailing_zeros() as usize] = slot;
            return None;
        }
        // Live entries come first, so the first empty way is the end.
        let free = match_mask(&self.keys, ways, base, EMPTY_KEY);
        let (pos, evicted) = if free != 0 {
            (base + free.trailing_zeros() as usize, None)
        } else {
            // First minimum wins (`min_by_key` would take the last):
            // lowest position is earliest-inserted on a recency tie.
            let set = &self.slots[base..base + ways];
            let mut lru = 0;
            for (i, s) in set.iter().enumerate().skip(1) {
                if s.last_used < set[lru].last_used {
                    lru = i;
                }
            }
            let victim = self.remove_at(base, base + lru);
            self.stats.evictions += 1;
            (base + ways - 1, Some(victim))
        };
        self.slots[pos] = slot;
        self.keys[pos] = key;
        if let Some(bucket) = small_bucket(key) {
            self.small_counts[bucket] += 1;
        }
        evicted
    }

    /// Removes the entry for exactly `vpn`, returning whether it existed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let Some(pos) = self.find(vpn) else {
            return false;
        };
        self.remove_at(self.set_base(vpn), pos);
        self.stats.invalidations += 1;
        true
    }

    /// Removes every entry whose page overlaps the huge region `region`
    /// (a TLB shootdown for a promotion/demotion invalidates stale
    /// translations of all sizes within the region). Returns the number
    /// removed.
    pub fn invalidate_region(&mut self, region: Vpn) -> usize {
        let start = region.base().raw();
        let end = start + region.size().bytes();
        let mut removed = 0;
        let ways = self.geometry.ways;
        for base in (0..self.keys.len()).step_by(ways) {
            // Order-preserving in-place compaction (retain); the ways
            // it vacates become empty.
            let mut keep = base;
            for pos in base..base + ways {
                let key = self.keys[pos];
                if key == EMPTY_KEY {
                    break;
                }
                let vpn = key_vpn(key);
                let page = vpn.base().raw();
                // Keep entries that do not overlap [start, end).
                if page + vpn.size().bytes() <= start || page >= end {
                    self.slots[keep] = self.slots[pos];
                    self.keys[keep] = key;
                    keep += 1;
                } else {
                    // Entry by entry, so a 1 GiB shootdown that spans
                    // many regions keeps every bucket exact.
                    self.uncount(key);
                    removed += 1;
                }
            }
            self.keys[keep..base + ways].fill(EMPTY_KEY);
        }
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Empties the TLB (full flush).
    pub fn flush(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.small_counts.fill(0);
    }
}

/// One L1 opened for a run of hits ([`l1_hit_run`]): its slab
/// split-borrowed, its clock held in a local for the run and written
/// back, with the hits it counted, once by [`close`](Self::close).
struct HitRun<'a, const W: usize> {
    keys: &'a [u64],
    small_counts: &'a [u32; REGION_BUCKETS],
    slots: &'a mut [Slot],
    geometry: Geometry,
    clock: &'a mut u64,
    hits: &'a mut u64,
    /// The clock when the run opened.
    start: u64,
    /// The clock now: one tick per hit counted in the run.
    now: u64,
}

impl<'a, const W: usize> HitRun<'a, W> {
    #[inline(always)]
    fn open(tlb: &'a mut SetAssocTlb) -> Self {
        let SetAssocTlb {
            slots,
            keys,
            small_counts,
            geometry,
            clock,
            stats,
        } = tlb;
        HitRun {
            keys,
            small_counts,
            slots,
            geometry: *geometry,
            start: *clock,
            now: *clock,
            clock,
            hits: &mut stats.hits,
        }
    }

    #[inline(always)]
    fn find(&self, vpn: Vpn) -> Option<usize> {
        search::<W>(self.keys, self.geometry, vpn)
    }

    /// [`SetAssocTlb::find_small`] over the run's slab.
    #[inline(always)]
    fn find_small(&self, vpn: Vpn) -> Option<usize> {
        if self.small_counts[page_bucket(vpn)] == 0 {
            return None;
        }
        self.find(vpn)
    }

    /// [`SetAssocTlb::hit`]'s bookkeeping: one clock tick (which is
    /// also one hit) and the entry stamped with the new clock.
    #[inline(always)]
    fn hit(&mut self, pos: usize, vpn: Vpn) -> Translation {
        self.now += 1;
        let slot = &mut self.slots[pos];
        slot.last_used = self.now;
        Translation {
            vpn,
            pfn: key_pfn(slot.pfn),
        }
    }

    #[inline(always)]
    fn close(self) {
        *self.hits += self.now - self.start;
        *self.clock = self.now;
    }
}

/// Whether both levels fit the 4-way arm of [`l1_hit_run`].
#[inline]
pub(crate) fn four_way_pow2(levels: [&SetAssocTlb; 2]) -> bool {
    levels
        .iter()
        .all(|l| l.geometry.ways == 4 && l.geometry.set_mask != usize::MAX)
}

/// The arms of [`TlbHierarchy::l1_hits`](crate::TlbHierarchy::l1_hits):
/// consumes the leading `accesses` that hit `levels` (the 4 KiB and
/// 2 MiB L1s), calls `on_hit` with each one's index and translation,
/// and returns how many it consumed. Each hit is counted exactly as
/// [`SetAssocTlb::hit`] counts it, 4 KiB first on a tie. The 4 KiB set
/// is searched only when the access's 2 MiB region may hold a 4 KiB
/// entry ([`SetAssocTlb::find_small`]); a skipped search could only
/// have missed, and a miss changes nothing. `W == 4` is the
/// arm for two 4-way levels with power-of-two set counts
/// ([`four_way_pow2`]); `W == 0` fits any geometry.
#[inline(always)]
pub(crate) fn l1_hit_run<const W: usize>(
    levels: [&mut SetAssocTlb; 2],
    accesses: &[MemoryAccess],
    mut on_hit: impl FnMut(usize, Translation),
) -> usize {
    let [mut small, mut huge] = levels.map(HitRun::<W>::open);
    let mut consumed = accesses.len();
    for (i, access) in accesses.iter().enumerate() {
        // Search both sets, then count the hit in whichever matched: a
        // search that misses changes nothing, and an address is
        // resident at only the size it is mapped with.
        let vpns = [
            access.addr.vpn(PageSize::Base4K),
            access.addr.vpn(PageSize::Huge2M),
        ];
        let t = match [small.find_small(vpns[0]), huge.find(vpns[1])] {
            [Some(pos), _] => small.hit(pos, vpns[0]),
            [None, Some(pos)] => huge.hit(pos, vpns[1]),
            [None, None] => {
                consumed = i;
                break;
            }
        };
        on_hit(i, t);
    }
    small.close();
    huge.close();
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_types::Pfn;
    use proptest::prelude::*;

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
        for slot in &mut t.slots[..4] {
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
        t.insert(tr(5));
        assert_eq!(t.lookup(tr(5).vpn), Some(tr(5)));
        assert_eq!(t.find(tr(5).vpn), Some(2 * 4)); // set 2's first way
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
    fn vpn_zero_misses_in_empty_ways() {
        // VPN 0's key is 0, the value a zeroed key slab would hold: an
        // empty way must never match it — fresh, flushed, shot down or
        // vacated by an invalidation.
        let mut t = tlb(8, 4);
        let zero = tr(0).vpn;
        assert_eq!(t.lookup(zero), None);
        t.insert(tr(0));
        t.flush();
        assert_eq!(t.lookup(zero), None);
        t.insert(tr(0));
        assert_eq!(t.invalidate_region(Vpn::new(0, PageSize::Huge2M)), 1);
        assert_eq!(t.lookup(zero), None);
        t.insert(tr(0));
        assert!(t.invalidate(zero));
        assert_eq!(t.lookup(zero), None);
        assert_eq!(t.stats().hits, 0);
        assert_eq!(t.stats().misses, 4);
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

    /// Every bucket's count, recounted from the keys.
    fn recount(t: &SetAssocTlb) -> Vec<u32> {
        let mut counts = vec![0; REGION_BUCKETS];
        for bucket in t.keys.iter().filter_map(|&key| small_bucket(key)) {
            counts[bucket] += 1;
        }
        counts
    }

    proptest! {
        /// The region counts equal a recount from the keys after every
        /// write to them: fills of every size (new keys, refreshes and
        /// LRU evictions), exact invalidations, 2 MiB and 1 GiB
        /// shootdowns, and flushes. The six regions lie in three GiBs,
        /// two in each, so a 1 GiB shootdown removes 4 KiB entries of two
        /// regions at once and keeps the rest; regions 0 and 1024, and
        /// 256 and 1280, share a bucket.
        #[test]
        fn region_counts_match_a_recount(
            ops in prop::collection::vec((0u8..16, 0u64..4096), 1..300),
            geometry in (0usize..4, 1u32..5),
        ) {
            let ways = [1, 2, 4, 8][geometry.0];
            let mut t = tlb(ways * geometry.1, ways);
            for (i, &(kind, a)) in ops.iter().enumerate() {
                let region = (a % 6) * 256;
                let page = Vpn::new(region * 512 + (a / 6) % 16, PageSize::Base4K);
                let huge = Vpn::new(region, PageSize::Huge2M);
                let giant = Vpn::new(region / 512, PageSize::Huge1G);
                let map = |vpn: Vpn| Translation { vpn, pfn: Pfn::new(vpn.index() + 7, vpn.size()) };
                match kind {
                    0..=6 => {
                        t.insert(map(page));
                    }
                    7 | 8 => {
                        t.insert(map(huge));
                    }
                    9 => {
                        t.insert(map(giant));
                    }
                    10 | 11 => {
                        t.invalidate(page);
                    }
                    12 => {
                        t.invalidate(huge);
                    }
                    13 => {
                        t.invalidate_region(huge);
                    }
                    14 => {
                        t.invalidate_region(giant);
                    }
                    _ => t.flush(),
                }
                prop_assert_eq!(&recount(&t)[..], &t.small_counts[..], "op {}", i);
            }
        }
    }
}
