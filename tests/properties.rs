//! Property-based tests (proptest) over the core data structures'
//! invariants: the PCC, the TLBs, the page table, and the physical
//! memory accounting.

use hpage::os::PhysicalMemory;
use hpage::pcc::{Pcc, PccEvent, ReplacementPolicy};
use hpage::tlb::{PageTable, PageWalkCache, SetAssocTlb, Translation};
use hpage::types::{
    derive_seed, PageSize, PccConfig, Pfn, PwcConfig, TlbLevelConfig, VirtAddr, Vpn,
};
use proptest::prelude::*;

fn region(i: u64) -> Vpn {
    Vpn::new(i, PageSize::Huge2M)
}

proptest! {
    /// The PCC never exceeds capacity, never double-tracks a region, and
    /// its dump is always sorted by descending frequency — under any
    /// interleaving of walks (hot/cold) and invalidations.
    #[test]
    fn pcc_capacity_and_ranking_invariants(
        ops in prop::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..600),
        entries in 1u32..32,
    ) {
        let cfg = PccConfig::paper_2m().with_entries(entries);
        let mut pcc = Pcc::new(cfg, PageSize::Huge2M);
        for (r, warm, invalidate) in ops {
            if invalidate {
                pcc.invalidate(region(r));
            } else {
                pcc.record_walk(region(r), warm);
            }
            prop_assert!(pcc.len() <= entries as usize);
            let dump = pcc.dump();
            // No duplicate regions.
            let mut seen = std::collections::HashSet::new();
            for c in &dump {
                prop_assert!(seen.insert(c.region.index()));
                prop_assert!(c.frequency <= cfg.counter_max());
            }
            // Sorted by descending frequency.
            prop_assert!(dump.windows(2).all(|w| w[0].frequency >= w[1].frequency));
        }
    }

    /// With the cold-miss filter on, a region is only ever admitted via a
    /// warm walk.
    #[test]
    fn pcc_filter_blocks_cold_admissions(rs in prop::collection::vec(0u64..32, 1..200)) {
        let mut pcc = Pcc::new(PccConfig::paper_2m().with_entries(8), PageSize::Huge2M);
        for r in rs {
            let ev = pcc.record_walk(region(r), false);
            prop_assert_eq!(ev, PccEvent::FilteredColdMiss);
        }
        prop_assert!(pcc.is_empty());
    }

    /// LFU+LRU and pure LRU agree when all frequencies are zero (the
    /// paper's observation for why the simple policy suffices).
    #[test]
    fn replacement_policies_agree_at_zero_frequency(
        rs in prop::collection::vec(0u64..1000, 1..300),
    ) {
        let cfg = PccConfig::paper_2m().with_entries(8);
        let mut lfu = Pcc::with_replacement(cfg, PageSize::Huge2M, ReplacementPolicy::LfuWithLruTiebreak);
        let mut lru = Pcc::with_replacement(cfg, PageSize::Huge2M, ReplacementPolicy::Lru);
        // Feed each region exactly once (all frequencies stay 0).
        let mut seen = std::collections::HashSet::new();
        for r in rs {
            if seen.insert(r) {
                let e1 = lfu.record_walk(region(r), true);
                let e2 = lru.record_walk(region(r), true);
                prop_assert_eq!(e1, e2);
            }
        }
        let d1: Vec<_> = lfu.dump();
        let d2: Vec<_> = lru.dump();
        prop_assert_eq!(d1, d2);
    }

    /// TLB: contents after any op sequence never exceed capacity; a
    /// lookup immediately after an insert hits; invalidation removes.
    #[test]
    fn tlb_invariants(
        ops in prop::collection::vec((0u64..128, 0u8..3), 1..400),
        entries_pow in 2u32..6,
        ways_pow in 0u32..3,
    ) {
        let entries = 1u32 << entries_pow;
        let ways = (1u32 << ways_pow).min(entries);
        let mut tlb = SetAssocTlb::new(TlbLevelConfig::new(entries, ways));
        for (page, op) in ops {
            let t = Translation {
                vpn: Vpn::new(page, PageSize::Base4K),
                pfn: Pfn::new(page, PageSize::Base4K),
            };
            match op {
                0 => {
                    tlb.insert(t);
                    prop_assert_eq!(tlb.probe(t.vpn), Some(t));
                }
                1 => {
                    tlb.invalidate(t.vpn);
                    prop_assert_eq!(tlb.probe(t.vpn), None);
                }
                _ => {
                    let _ = tlb.lookup(t.vpn);
                }
            }
            prop_assert!(tlb.len() <= entries as usize);
        }
    }

    /// The flat-slab set-associative TLB is observationally equivalent
    /// to a straightforward per-set LRU-list model — same hit results,
    /// same eviction victims, same residency — under any interleaving of
    /// inserts, lookups, touches, and invalidations. This pins the
    /// eviction order the seq tie-break fix made deterministic: the
    /// model's list order *is* insertion-then-recency order, so any
    /// position-dependent tie-break (the old `swap_remove` perturbation)
    /// shows up as a victim mismatch.
    #[test]
    fn tlb_matches_reference_lru_model(
        ops in prop::collection::vec((0u64..96, 0u8..4), 1..500),
        entries_pow in 2u32..6,
        ways_pow in 0u32..3,
    ) {
        let entries = 1u32 << entries_pow;
        let ways = (1u32 << ways_pow).min(entries);
        let sets = (entries / ways) as usize;
        let mut tlb = SetAssocTlb::new(TlbLevelConfig::new(entries, ways));
        // One LRU-to-MRU ordered list per set.
        let mut model: Vec<Vec<Translation>> = vec![Vec::new(); sets];
        for (page, op) in ops {
            let vpn = Vpn::new(page, PageSize::Base4K);
            let t = Translation { vpn, pfn: Pfn::new(page + 7, PageSize::Base4K) };
            let set = &mut model[(page % sets as u64) as usize];
            match op {
                0 => {
                    let expected = if let Some(pos) = set.iter().position(|e| e.vpn == vpn) {
                        set.remove(pos);
                        set.push(t);
                        None
                    } else if set.len() == ways as usize {
                        let victim = set.remove(0);
                        set.push(t);
                        Some(victim)
                    } else {
                        set.push(t);
                        None
                    };
                    prop_assert_eq!(tlb.insert(t), expected);
                }
                1 => {
                    let expected = set.iter().position(|e| e.vpn == vpn).map(|pos| {
                        let e = set.remove(pos);
                        set.push(e);
                        e
                    });
                    prop_assert_eq!(tlb.lookup(vpn), expected);
                }
                2 => {
                    // `touch` hits exactly like `lookup`, misses like
                    // `probe` (no state change) — same model either way.
                    let expected = set.iter().position(|e| e.vpn == vpn).map(|pos| {
                        let e = set.remove(pos);
                        set.push(e);
                        e
                    });
                    prop_assert_eq!(tlb.touch(vpn), expected);
                }
                _ => {
                    let existed = match set.iter().position(|e| e.vpn == vpn) {
                        Some(pos) => {
                            set.remove(pos);
                            true
                        }
                        None => false,
                    };
                    prop_assert_eq!(tlb.invalidate(vpn), existed);
                }
            }
            prop_assert_eq!(tlb.len(), model.iter().map(Vec::len).sum::<usize>());
        }
        for set in &model {
            for e in set {
                prop_assert_eq!(tlb.probe(e.vpn), Some(*e));
            }
        }
    }

    /// Page table: map/walk/unmap round-trips preserve translations, and
    /// a promotion makes every constituent base page translate to the
    /// same huge frame.
    #[test]
    fn page_table_roundtrip(pages in prop::collection::hash_set(0u64..512, 1..64)) {
        let mut pt = PageTable::new();
        let region = Vpn::new(3, PageSize::Huge2M);
        let bases: Vec<Vpn> = region.split(PageSize::Base4K).collect();
        for &p in &pages {
            pt.map(bases[p as usize], Pfn::new(p, PageSize::Base4K)).unwrap();
        }
        prop_assert_eq!(pt.mapped_base_pages_in(region), pages.len() as u64);
        for &p in &pages {
            let t = pt.translate(bases[p as usize].base()).unwrap();
            prop_assert_eq!(t.pfn.index(), p);
        }
        // Promote and verify.
        let huge = Pfn::new(9, PageSize::Huge2M);
        let old = pt.promote_2m(region, huge).unwrap();
        prop_assert_eq!(old.len(), pages.len());
        for &p in &pages {
            let t = pt.translate(bases[p as usize].base()).unwrap();
            prop_assert_eq!(t.pfn, huge);
            prop_assert_eq!(t.size(), PageSize::Huge2M);
        }
    }

    /// Hasher-independence diff test: the page table (whose radix levels
    /// key on the vendored Fx hash) holds exactly the contents of a
    /// SipHash-keyed mirror map under any interleaving of map, unmap,
    /// promote, and demote — hashing affects bucket placement only,
    /// never which translations exist or what they resolve to.
    #[test]
    fn page_table_contents_match_siphash_mirror(
        ops in prop::collection::vec((0u64..4, 0u64..512, 0u8..4), 1..250),
    ) {
        // std::collections::HashMap with RandomState = SipHash.
        let mut mirror: std::collections::HashMap<Vpn, Pfn> = std::collections::HashMap::new();
        let mut pt = PageTable::new();
        let mut next_frame = 0u64;
        for (r, page, op) in ops {
            let region = Vpn::new(r, PageSize::Huge2M);
            let base = Vpn::new(r * 512 + page, PageSize::Base4K);
            match op {
                0 => {
                    // Map a base page (no-op when the page, or a huge
                    // mapping covering it, already exists).
                    if pt.translate(base.base()).is_none() {
                        let pfn = Pfn::new(next_frame, PageSize::Base4K);
                        next_frame += 1;
                        pt.map(base, pfn).unwrap();
                        mirror.insert(base, pfn);
                    }
                }
                1 => {
                    let in_mirror = mirror.remove(&base).is_some();
                    prop_assert_eq!(pt.unmap(base).is_ok(), in_mirror);
                }
                2 => {
                    let huge = Pfn::new(next_frame, PageSize::Huge2M);
                    next_frame += 1;
                    if pt.promote_2m(region, huge).is_ok() {
                        mirror.retain(|vpn, _| vpn.containing(PageSize::Huge2M) != region
                            || vpn.size() != PageSize::Base4K);
                        mirror.insert(region, huge);
                    }
                }
                _ => {
                    // Demote back to base pages at fresh frames.
                    let pfns: Vec<Pfn> = (0..512)
                        .map(|i| Pfn::new(next_frame + i, PageSize::Base4K))
                        .collect();
                    if pt.demote_2m(region, &pfns).is_ok() {
                        next_frame += 512;
                        mirror.remove(&region);
                        for (i, vpn) in region.split(PageSize::Base4K).enumerate() {
                            mirror.insert(vpn, pfns[i]);
                        }
                    }
                }
            }
            // Every mirror entry translates identically through the
            // radix table, and nothing else is mapped.
            let mut count = 0u64;
            for r in 0..4u64 {
                let region = Vpn::new(r, PageSize::Huge2M);
                if pt.is_huge_mapped(region) {
                    // A huge leaf reports all 512 constituent base
                    // pages as mapped; the mirror holds one entry.
                    count += 1;
                } else {
                    count += pt.mapped_base_pages_in(region);
                }
            }
            prop_assert_eq!(count as usize, mirror.len());
            for (vpn, pfn) in &mirror {
                let t = pt.translate(vpn.base());
                prop_assert_eq!(t.map(|t| t.pfn), Some(*pfn));
            }
        }
    }

    /// Physical memory conservation: free frames + used frames is
    /// constant under any alloc/free sequence, and huge allocation
    /// consumes exactly 512 frames of capacity.
    #[test]
    fn physmem_conservation(ops in prop::collection::vec(0u8..3, 1..200)) {
        let mut pm = PhysicalMemory::new(16 << 21);
        let total = pm.total_frames();
        let mut base_pfns = Vec::new();
        let mut huge_pfns = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Ok(p) = pm.alloc_base() {
                        base_pfns.push(p);
                    }
                }
                1 => {
                    if let Ok(h) = pm.alloc_huge(true) {
                        huge_pfns.push(h.pfn);
                    }
                }
                _ => {
                    if let Some(p) = base_pfns.pop() {
                        pm.free_base(p).unwrap();
                    } else if let Some(h) = huge_pfns.pop() {
                        pm.free_huge(h).unwrap();
                    }
                }
            }
            let used = base_pfns.len() as u64 + 512 * huge_pfns.len() as u64;
            prop_assert_eq!(pm.free_frames() + used, total);
        }
    }

    /// OS-level interleavings: any mix of faults, promotions, demotions,
    /// reclaiming demotions, and the huge splits they trigger keeps the
    /// global frame balance (`total == free + used`) and the per-block
    /// huge/base exclusivity invariants intact.
    #[test]
    fn os_interleavings_preserve_frame_invariants(
        ops in prop::collection::vec((0u64..4, 0u8..4, 0u64..512), 1..120),
    ) {
        use hpage::os::AddressSpace;
        use hpage::types::ProcessId;
        let mut pm = PhysicalMemory::new(32 << 21);
        let mut space = AddressSpace::new(ProcessId(0));
        let total = pm.total_frames();
        for (r, op, page) in ops {
            let region = Vpn::new(r, PageSize::Huge2M);
            match op {
                0 => {
                    let va = region.base().offset(page * 4096);
                    if space.page_table().translate(va).is_none() {
                        space.fault(va, false, &mut pm).unwrap();
                    }
                }
                1 => {
                    // Fails when the region is empty or already huge.
                    let _ = space.promote(region, true, 0, &mut pm);
                }
                2 => {
                    let _ = space.demote(region, &mut pm);
                }
                _ => {
                    let _ = space.demote_and_reclaim(region, &mut pm);
                }
            }
            prop_assert_eq!(pm.free_frames() + pm.used_frames(), total);
            let broken = pm.check_block_invariants();
            prop_assert!(broken.is_empty(), "block invariants broken: {:?}", broken);
        }
    }

    /// Frees reject bad arguments instead of corrupting accounting: a
    /// double free or a free of a never-allocated huge frame is a typed
    /// error and leaves the frame counts unchanged.
    #[test]
    fn physmem_rejects_invalid_frees(blocks in 2u64..16) {
        let mut pm = PhysicalMemory::new(blocks << 21);
        let h = pm.alloc_huge(true).unwrap();
        pm.free_huge(h.pfn).unwrap();
        let free_before = pm.free_frames();
        prop_assert!(pm.free_huge(h.pfn).is_err());
        let p = pm.alloc_base().unwrap();
        pm.free_base(p).unwrap();
        prop_assert!(pm.free_base(p).is_err());
        prop_assert_eq!(pm.free_frames(), free_before);
    }

    /// Address arithmetic: splitting any huge VPN into base pages and
    /// taking each one's containing region is the identity.
    #[test]
    fn vpn_split_containing_roundtrip(idx in 0u64..(1 << 30)) {
        let huge = Vpn::new(idx, PageSize::Huge2M);
        for (i, base) in huge.split(PageSize::Base4K).enumerate().step_by(97) {
            prop_assert_eq!(base.containing(PageSize::Huge2M), huge);
            prop_assert_eq!(base.index(), idx * 512 + i as u64);
        }
        // Base address of the region is 2MiB-aligned.
        prop_assert!(huge.base().is_aligned(PageSize::Huge2M));
    }

    /// The 2MB VPN of any address equals the 2MB VPN of its 4K page's
    /// base — tag extraction is consistent at every granularity.
    #[test]
    fn prefix_consistency(raw in 0u64..(1 << 48)) {
        let va = VirtAddr::new(raw);
        let via_page = va.vpn(PageSize::Base4K).base().vpn(PageSize::Huge2M);
        prop_assert_eq!(va.vpn(PageSize::Huge2M), via_page);
        prop_assert_eq!(
            va.vpn(PageSize::Base4K).containing(PageSize::Huge1G),
            va.vpn(PageSize::Huge1G)
        );
    }

    /// The native paging-structure cache is exactly a deepest-hit-wins
    /// walker over three true-LRU arrays: a BTreeMap reference model
    /// driven by a per-walk clock (the cache stamps every touch; a walk
    /// writes each array at most once, so both orders agree) predicts
    /// every reference count under arbitrary interleavings of walks at
    /// both leaf depths (4 KiB and 2 MiB), region invalidations, and full
    /// flushes —
    /// the same technique that pins the nested (2D) walker in
    /// `hpage::tlb::nested`.
    #[test]
    fn pwc_matches_reference_lru_model(
        ops in prop::collection::vec((0u64..2048, 0u8..2, 0u8..10), 1..500),
    ) {
        // Tiny geometry so evictions actually happen.
        let mut pwc = PageWalkCache::new(PwcConfig {
            pml4e_entries: 1,
            pdpte_entries: 2,
            pde_entries: 4,
        });
        let mut arrays = [RefLruArray::new(1), RefLruArray::new(2), RefLruArray::new(4)];
        let mut clock = 0u64;
        for (i, &(page, leaf_sel, op)) in ops.iter().enumerate() {
            // Spread pages over several 512G/1G regions so every array
            // sees distinct tags.
            let va = VirtAddr::new((page << 12) | ((page & 7) << 30) | ((page & 1) << 39));
            match op {
                8 => {
                    let region = va.vpn(PageSize::Huge2M);
                    pwc.invalidate_region(region);
                    let g = region.containing(PageSize::Huge1G).index();
                    arrays[1].map.remove(&g);
                    arrays[2].map.remove(&region.index());
                }
                9 => {
                    pwc.flush();
                    for a in &mut arrays {
                        a.map.clear();
                    }
                }
                _ => {
                    let leaf = 3 + (leaf_sel % 2);
                    let got = pwc.walk(va, leaf);
                    let want = ref_pwc_walk(&mut arrays, &mut clock, va, leaf);
                    prop_assert_eq!(got, want, "divergence at op {}", i);
                    prop_assert!((1..=4).contains(&got));
                }
            }
        }
    }

    /// `derive_seed` keeps every purpose stream independent: the seeds
    /// the simulator derives for fragmentation, per-VM host layouts
    /// (`host-frag-<pid>`), virtualization workloads (`virt/<i>`), and
    /// consolidation tenants never collide with each other or the root
    /// seed, and each responds to the root seed changing.
    #[test]
    fn derive_seed_purpose_streams_are_independent(seed in any::<u64>()) {
        let purposes = [
            "frag",
            "host-frag-0",
            "host-frag-1",
            "host-frag-10",
            "virt/0",
            "virt/1",
            "virt/3",
            "consolidation/0",
            "consolidation/1",
        ];
        let derived: Vec<u64> = purposes.iter().map(|p| derive_seed(seed, p)).collect();
        for (i, &a) in derived.iter().enumerate() {
            prop_assert_ne!(a, seed, "purpose {} must not alias the root", purposes[i]);
            for (j, &b) in derived.iter().enumerate().skip(i + 1) {
                prop_assert_ne!(
                    a, b,
                    "purposes {} and {} collided", purposes[i], purposes[j]
                );
            }
            // The stream tracks the root seed, not just the purpose.
            prop_assert_ne!(a, derive_seed(seed ^ 1, purposes[i]));
        }
    }
}

/// One fully associative true-LRU array of the reference PWC model.
struct RefLruArray {
    cap: usize,
    map: std::collections::BTreeMap<u64, u64>,
}

impl RefLruArray {
    fn new(cap: usize) -> Self {
        RefLruArray {
            cap,
            map: std::collections::BTreeMap::new(),
        }
    }

    /// Refreshes recency on a hit.
    fn touch(&mut self, tag: u64, clock: u64) -> bool {
        if let Some(t) = self.map.get_mut(&tag) {
            *t = clock;
            true
        } else {
            false
        }
    }

    /// Inserts, evicting the least recently used entry when full.
    fn insert(&mut self, tag: u64, clock: u64) {
        if self.touch(tag, clock) {
            return;
        }
        if self.map.len() == self.cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|&(_, &t)| t)
                .map(|(&k, _)| k)
                .expect("cap > 0");
            self.map.remove(&lru);
        }
        self.map.insert(tag, clock);
    }
}

/// Reference deepest-hit-wins walk mirroring
/// [`hpage::tlb::PageWalkCache::walk`]: one clock tick per walk, hit
/// stops the upward probe, every traversed non-leaf prefix installs
/// (leaves are never cached). `leaf` is 3 (a 2 MiB leaf) or 4 (4 KiB).
fn ref_pwc_walk(arrays: &mut [RefLruArray; 3], clock: &mut u64, va: VirtAddr, leaf: u8) -> u8 {
    *clock += 1;
    let t512 = va.raw() >> 39;
    let t1g = va.vpn(PageSize::Huge1G).index();
    let t2m = va.vpn(PageSize::Huge2M).index();
    if leaf == 4 && arrays[2].touch(t2m, *clock) {
        return 1;
    }
    if arrays[1].touch(t1g, *clock) {
        if leaf == 4 {
            arrays[2].insert(t2m, *clock);
        }
        return leaf - 2;
    }
    if arrays[0].touch(t512, *clock) {
        arrays[1].insert(t1g, *clock);
        if leaf == 4 {
            arrays[2].insert(t2m, *clock);
        }
        return leaf - 1;
    }
    arrays[0].insert(t512, *clock);
    arrays[1].insert(t1g, *clock);
    if leaf == 4 {
        arrays[2].insert(t2m, *clock);
    }
    leaf
}
