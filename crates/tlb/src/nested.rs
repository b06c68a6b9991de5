//! Nested (two-dimensional) page walks: virtualized translation where
//! every guest page-table access is itself translated by the host.
//!
//! Under virtualization a guest-virtual address resolves in two
//! dimensions: the guest page table maps gVA→gPA, but the guest's
//! table pages live in guest-physical memory, so *reading each guest
//! entry* first requires a host walk gPA→hPA. A cold 2D walk on
//! 4-level tables costs 4×(4+1)+4 = 24 memory references; huge pages
//! on either dimension shorten it (a 2 MiB guest leaf removes one
//! 5-reference step, a 2 MiB host page removes one reference from
//! every inner walk it covers):
//!
//! ```text
//! refs = Σ over referenced guest levels (host_refs(table gPA) + 1)
//!      + host_refs(data gPA)
//! ```
//!
//! [`NestedPwc`] models the translation caches that make real nested
//! paging viable: a guest [`PageWalkCache`] (VA-tagged), a host
//! [`PageWalkCache`] (gPA-tagged), and a fully associative nested TLB
//! caching gPA→hPA page translations (an nTLB hit skips the host walk
//! entirely). Both dimensions step through the one deepest-hit walk,
//! [`PageWalkCache::walk`]. Every LRU array stamps its own touches, and
//! a victim is chosen by comparing stamps inside one array only, so
//! each array's recency order is the order of its touches in time —
//! which is what lets [`ReferenceNestedWalker`], a naive
//! `BTreeMap`-based model with one shared clock, predict the fast
//! walker's per-access reference count exactly.
//!
//! Guest table pages are given deterministic guest-physical addresses
//! by [`table_page_gpa`]: a pure function of (level, gVA) placing each
//! level's table pages in its own 2^39-byte segment above
//! [`TABLE_GPA_BASE`], far above any guest data frame, so table and
//! data gPAs never collide and the scheme needs no allocator state.

use crate::pwc::{LruArray, PageWalkCache};
use crate::table::WalkResult;
use hpage_types::{HpageError, NestedConfig, PageSize, VirtAddr, Vpn};
use std::collections::BTreeMap;

/// Base guest-physical address of the synthetic guest-table-page
/// region: above any modelled guest RAM (≪ 2^46 bytes) and low enough
/// that every table gPA stays below 2^47.
pub const TABLE_GPA_BASE: u64 = 1 << 46;

/// Hard upper bound on memory references for one 2D walk: 4 guest
/// levels × (4-level host walk + entry read) + 4-level host walk for
/// the data page.
pub const MAX_NESTED_REFS: u8 = 24;

/// Guest-physical address of the guest table page the walker reads at
/// `level` (1 = PML4 root page, 2 = PDPT page, 3 = PD page, 4 = PT
/// page) while resolving `va`.
///
/// Each level gets a disjoint 2^39-byte segment above
/// [`TABLE_GPA_BASE`]; within a segment, pages are indexed by the VA
/// prefix that selects the table (the root is one page per guest). For
/// 48-bit guest VAs the deepest level's index (`va >> 21`) stays below
/// 2^27, so `index * 4096 < 2^39` and segments never overlap.
///
/// # Panics
///
/// Panics if `level` is outside `1..=4`.
pub fn table_page_gpa(level: u8, va: VirtAddr) -> VirtAddr {
    let prefix = match level {
        1 => 0,
        2 => va.raw() >> 39,
        3 => va.raw() >> 30,
        4 => va.raw() >> 21,
        _ => panic!("guest walk level out of range: {level}"),
    };
    VirtAddr::new(TABLE_GPA_BASE + ((u64::from(level) - 1) << 39) + prefix * 4096)
}

/// Nested-TLB tag for a guest-physical address translated through a
/// host mapping of the given size. Entries are tagged at the *host
/// mapping's* granularity — a 2 MiB host page yields one entry whose
/// tag is `gpa >> 21`, covering all 512 base pages of the region. The
/// size class lives in the tag's top bit so same-index entries of
/// different sizes never alias (gPAs fit in well under 60 bits).
///
/// # Panics
///
/// Panics for [`PageSize::Huge1G`]: host pages are at most 2 MiB (a
/// [`PageTable`](crate::PageTable) maps no 1 GiB page).
pub fn ntlb_tag(size: PageSize, gpa: VirtAddr) -> u64 {
    match size {
        PageSize::Base4K => gpa.raw() >> 12,
        PageSize::Huge2M => (1 << 60) | (gpa.raw() >> 21),
        PageSize::Huge1G => unreachable!("1 GiB host pages are not modelled"),
    }
}

/// Whether a nested-TLB tag overlaps the guest-physical 2 MiB region
/// with index `m` (`gpa >> 21`): the region's own 4 KiB and 2 MiB
/// entries. Used by host-remap invalidation, which must drop every
/// translation the remap could have changed.
fn ntlb_tag_covers_2m_region(tag: u64, m: u64) -> bool {
    let index = tag & ((1 << 60) - 1);
    if tag >> 60 == 0 {
        index >> 9 == m
    } else {
        index == m
    }
}

/// Guest-physical address of the data byte a completed guest walk
/// points at: the guest frame's base plus the VA's offset within the
/// guest page. Always below guest RAM size, hence disjoint from every
/// [`table_page_gpa`].
pub fn data_gpa(guest_walk: &WalkResult, va: VirtAddr) -> VirtAddr {
    let size = guest_walk.translation.size();
    VirtAddr::new(guest_walk.translation.pfn.base().raw() + va.page_offset(size))
}

/// The host dimension of nested translation: resolves a guest-physical
/// page, faulting it into host memory on demand. The simulator
/// implements this over a per-VM host address space; tests use
/// [`SimpleHost`].
pub trait HostSpace {
    /// Hardware-walks the host page table for `gpa` (setting accessed
    /// bits), establishing a mapping first if the page is not yet host-
    /// resident.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError`] when the host cannot back the page
    /// (e.g. host memory exhausted).
    fn walk_gpa(&mut self, gpa: VirtAddr) -> Result<WalkResult, HpageError>;
}

/// Statistics for one [`NestedPwc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestedPwcStats {
    /// 2D walks performed.
    pub walks: u64,
    /// Total memory references across all walks.
    pub levels_referenced: u64,
    /// Host walks skipped by a nested-TLB hit.
    pub ntlb_hits: u64,
    /// Host walks actually performed (nested-TLB misses).
    pub ntlb_misses: u64,
}

impl NestedPwcStats {
    /// Mean memory references per 2D walk (native PWCs land at 1.1–1.4;
    /// nested walks sit well above until both dimensions warm up).
    pub fn mean_references(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.levels_referenced as f64 / self.walks as f64
        }
    }
}

/// Two-dimensional paging-structure caches plus nested TLB for one
/// core. See the module docs for the cost model.
#[derive(Debug, Clone)]
pub struct NestedPwc {
    /// Guest dimension, tagged by guest-virtual prefixes.
    guest: PageWalkCache,
    /// Host dimension, tagged by guest-physical prefixes.
    host: PageWalkCache,
    /// gPA→hPA translations tagged at the *host mapping's* size (see
    /// [`ntlb_tag`]): one entry covers a 4 KiB page or a whole 2 MiB
    /// region. This reach multiplication is the architectural payoff of
    /// host-dimension huge pages.
    ntlb: LruArray,
    stats: NestedPwcStats,
}

impl NestedPwc {
    /// Builds the cache complex from a validated [`NestedConfig`].
    ///
    /// # Panics
    ///
    /// Panics if any array capacity is zero (callers should
    /// [`NestedConfig::validate`] first).
    pub fn new(config: &NestedConfig) -> Self {
        NestedPwc {
            guest: PageWalkCache::new(config.guest_pwc),
            host: PageWalkCache::new(config.host_pwc),
            ntlb: LruArray::new(config.ntlb_entries),
            stats: NestedPwcStats::default(),
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &NestedPwcStats {
        &self.stats
    }

    /// Performs one 2D walk for `va`, whose guest leaf sits at
    /// `guest_leaf_levels` (4 = 4 KiB PTE, 3 = 2 MiB PMD leaf) and whose
    /// resolved data byte lives at guest-physical `data_gpa`. Each
    /// referenced guest level's table page and the data page are
    /// translated through the nested TLB / host structure caches,
    /// calling `host` only on nTLB misses. Host walks actually performed
    /// are appended to `host_walks` (cleared first) so the caller can
    /// feed a host-side PCC and ledger.
    ///
    /// Returns the total memory references, guaranteed to lie in
    /// `1..=`[`MAX_NESTED_REFS`].
    ///
    /// # Errors
    ///
    /// Propagates [`HostSpace::walk_gpa`] failures (the caches are left
    /// consistent; the partially accounted walk is still counted).
    ///
    /// # Panics
    ///
    /// Panics if `guest_leaf_levels` is outside `3..=4`.
    pub fn walk<H: HostSpace>(
        &mut self,
        va: VirtAddr,
        guest_leaf_levels: u8,
        data_gpa: VirtAddr,
        host: &mut H,
        host_walks: &mut Vec<WalkResult>,
    ) -> Result<u8, HpageError> {
        let leaf = guest_leaf_levels;
        assert!((3..=4).contains(&leaf), "guest leaf level out of range");
        debug_assert!(
            data_gpa.raw() < TABLE_GPA_BASE,
            "data gPA collides with table segment"
        );
        host_walks.clear();
        self.stats.walks += 1;

        // Guest dimension: the native deepest-hit walk over VA tags.
        let referenced = self.guest.walk(va, leaf);

        // Host dimension: one entry read per referenced guest level,
        // each preceded by a gPA→hPA translation, plus the data page.
        let mut refs: u8 = 0;
        for level in (leaf - referenced + 1)..=leaf {
            refs += self.host_refs(table_page_gpa(level, va), host, host_walks)? + 1;
        }
        refs += self.host_refs(data_gpa, host, host_walks)?;
        self.stats.levels_referenced += u64::from(refs);
        Ok(refs)
    }

    /// Translates one guest-physical page, returning the host-walk
    /// reference count (0 on a nested-TLB hit).
    fn host_refs<H: HostSpace>(
        &mut self,
        gpa: VirtAddr,
        host: &mut H,
        host_walks: &mut Vec<WalkResult>,
    ) -> Result<u8, HpageError> {
        // A gPA is host-mapped at exactly one size at a time (remaps
        // invalidate), so at most one of the two probes can hit.
        if self.ntlb.probe(ntlb_tag(PageSize::Base4K, gpa))
            || self.ntlb.probe(ntlb_tag(PageSize::Huge2M, gpa))
        {
            self.stats.ntlb_hits += 1;
            return Ok(0);
        }
        self.stats.ntlb_misses += 1;
        let walk = host.walk_gpa(gpa)?;
        // Host dimension: the same walk over gPA tags.
        let referenced = self.host.walk(gpa, walk.levels_referenced);
        self.ntlb.install(ntlb_tag(walk.translation.size(), gpa));
        host_walks.push(walk);
        Ok(referenced)
    }

    /// Drops guest-side structure entries covering a guest-virtual
    /// 2 MiB region ([`PageWalkCache::invalidate_region`] on the guest
    /// cache), issued on guest promotion/demotion shootdowns. Returns
    /// entries dropped.
    pub fn invalidate_guest_region(&mut self, region: Vpn) -> usize {
        self.guest.invalidate_region(region)
    }

    /// Drops host-side structure entries and nested-TLB translations
    /// covering a guest-physical 2 MiB region, issued when the host
    /// remaps it (host promotion/demotion). Returns entries dropped.
    pub fn invalidate_host_region(&mut self, region: Vpn) -> usize {
        let m = region.index();
        self.host.invalidate_region(region)
            + self.ntlb.retain(|tag| !ntlb_tag_covers_2m_region(tag, m))
    }

    /// Empties every array (shootdown storms flush the whole complex).
    pub fn flush(&mut self) {
        self.guest.flush();
        self.host.flush();
        self.ntlb.clear();
    }
}

/// A minimal in-memory host for tests and property checks: backs every
/// guest-physical page on first touch with a fresh frame, at a page
/// size chosen by pre-registered preferences, and supports promoting
/// already-resident regions (for monotonicity checks).
#[derive(Debug, Default)]
pub struct SimpleHost {
    table: crate::PageTable,
    next_frame: u64,
    huge_2m: std::collections::BTreeSet<u64>,
}

impl SimpleHost {
    /// An empty host mapping everything as 4 KiB pages.
    pub fn new() -> Self {
        SimpleHost::default()
    }

    /// Marks a guest-physical 2 MiB region (`gpa >> 21`) to be backed
    /// by a host huge page on first touch.
    pub fn prefer_2m(&mut self, region_index: u64) {
        self.huge_2m.insert(region_index);
    }

    /// Collapses an already-resident guest-physical 2 MiB region into a
    /// host huge page (host-dimension promotion).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::PageTable::promote_2m`] failures.
    pub fn promote_2m(&mut self, region_index: u64) -> Result<(), HpageError> {
        self.next_frame += 1;
        let pfn = hpage_types::Pfn::new(self.next_frame, PageSize::Huge2M);
        self.table
            .promote_2m(Vpn::new(region_index, PageSize::Huge2M), pfn)?;
        self.huge_2m.insert(region_index);
        Ok(())
    }

    /// The underlying host page table.
    pub fn table(&self) -> &crate::PageTable {
        &self.table
    }

    fn map_for(&mut self, gpa: VirtAddr) -> Result<(), HpageError> {
        self.next_frame += 1;
        let size = if self.huge_2m.contains(&(gpa.raw() >> 21)) {
            PageSize::Huge2M
        } else {
            PageSize::Base4K
        };
        self.table
            .map(gpa.vpn(size), hpage_types::Pfn::new(self.next_frame, size))
    }
}

impl HostSpace for SimpleHost {
    fn walk_gpa(&mut self, gpa: VirtAddr) -> Result<WalkResult, HpageError> {
        match self.table.walk(gpa) {
            Ok(w) => Ok(w),
            Err(HpageError::Unmapped { .. }) => {
                self.map_for(gpa)?;
                self.table.walk(gpa)
            }
            Err(e) => Err(e),
        }
    }
}

/// Naive slow-path 2D walker: the executable specification the fast
/// [`NestedPwc`] is property-tested against. Every cache array is a
/// plain ordered map from tag to last-touch stamp; eviction scans for
/// the minimum stamp. All seven maps draw stamps from one clock bumped
/// on every touch. The fast walker stamps each array from its own
/// counter instead; since a victim is only ever chosen within one
/// array, both orders agree, and so must the LRU decisions — and
/// therefore the per-access reference counts.
#[derive(Debug, Default)]
pub struct ReferenceNestedWalker {
    guest: [ReferenceArray; 3],
    host: [ReferenceArray; 3],
    ntlb: ReferenceArray,
    clock: u64,
}

#[derive(Debug, Default)]
struct ReferenceArray {
    map: BTreeMap<u64, u64>,
    capacity: usize,
}

impl ReferenceArray {
    fn with_capacity(capacity: u32) -> Self {
        ReferenceArray {
            map: BTreeMap::new(),
            capacity: capacity as usize,
        }
    }

    fn touch(&mut self, tag: u64, clock: &mut u64) -> bool {
        match self.map.get_mut(&tag) {
            Some(stamp) => {
                *clock += 1;
                *stamp = *clock;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, tag: u64, clock: &mut u64) {
        if self.touch(tag, clock) {
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&tag, _)| tag)
                .expect("capacity > 0");
            self.map.remove(&victim);
        }
        *clock += 1;
        self.map.insert(tag, *clock);
    }
}

impl ReferenceArray {
    fn remove(&mut self, tag: u64) -> usize {
        usize::from(self.map.remove(&tag).is_some())
    }
}

/// Tag selecting the structure-cache entry produced by referencing
/// table level `level` (1 = PML4E / 512 GiB, 2 = PDPTE / 1 GiB,
/// 3 = PDE / 2 MiB) while resolving `addr`.
fn level_tag(addr: u64, level: u8) -> u64 {
    match level {
        1 => addr >> 39,
        2 => addr >> 30,
        3 => addr >> 21,
        _ => unreachable!("structure levels are 1..=3"),
    }
}

impl ReferenceNestedWalker {
    /// Builds the reference model with the same geometry as
    /// [`NestedPwc::new`].
    pub fn new(config: &NestedConfig) -> Self {
        ReferenceNestedWalker {
            guest: [
                ReferenceArray::with_capacity(config.guest_pwc.pml4e_entries),
                ReferenceArray::with_capacity(config.guest_pwc.pdpte_entries),
                ReferenceArray::with_capacity(config.guest_pwc.pde_entries),
            ],
            host: [
                ReferenceArray::with_capacity(config.host_pwc.pml4e_entries),
                ReferenceArray::with_capacity(config.host_pwc.pdpte_entries),
                ReferenceArray::with_capacity(config.host_pwc.pde_entries),
            ],
            ntlb: ReferenceArray::with_capacity(config.ntlb_entries),
            clock: 0,
        }
    }

    /// One-dimensional structure-cache step: finds the deepest cached
    /// level, installs the walked non-leaf prefix, returns levels
    /// referenced.
    fn dim_walk(arrays: &mut [ReferenceArray; 3], clock: &mut u64, addr: u64, leaf: u8) -> u8 {
        let mut hit_level = 0u8;
        for level in (1..leaf).rev() {
            if arrays[level as usize - 1].touch(level_tag(addr, level), clock) {
                hit_level = level;
                break;
            }
        }
        for level in (hit_level + 1)..leaf {
            arrays[level as usize - 1].insert(level_tag(addr, level), clock);
        }
        leaf - hit_level
    }

    fn host_refs<H: HostSpace>(&mut self, gpa: VirtAddr, host: &mut H) -> Result<u8, HpageError> {
        // Same probe order as the fast path so LRU clocks stay aligned.
        if self
            .ntlb
            .touch(ntlb_tag(PageSize::Base4K, gpa), &mut self.clock)
            || self
                .ntlb
                .touch(ntlb_tag(PageSize::Huge2M, gpa), &mut self.clock)
        {
            return Ok(0);
        }
        let walk = host.walk_gpa(gpa)?;
        let refs = Self::dim_walk(
            &mut self.host,
            &mut self.clock,
            gpa.raw(),
            walk.levels_referenced,
        );
        self.ntlb
            .insert(ntlb_tag(walk.translation.size(), gpa), &mut self.clock);
        Ok(refs)
    }

    /// Slow-path equivalent of [`NestedPwc::walk`] (without the
    /// host-walk out-parameter; the reference model only predicts the
    /// reference count).
    ///
    /// # Errors
    ///
    /// Propagates [`HostSpace::walk_gpa`] failures.
    ///
    /// # Panics
    ///
    /// Panics if `guest_leaf_levels` is outside `3..=4`.
    pub fn walk<H: HostSpace>(
        &mut self,
        va: VirtAddr,
        guest_leaf_levels: u8,
        data_gpa: VirtAddr,
        host: &mut H,
    ) -> Result<u8, HpageError> {
        let leaf = guest_leaf_levels;
        assert!((3..=4).contains(&leaf), "guest leaf level out of range");
        let guest_referenced = Self::dim_walk(&mut self.guest, &mut self.clock, va.raw(), leaf);
        let mut refs = 0u8;
        for level in (leaf - guest_referenced + 1)..=leaf {
            refs += self.host_refs(table_page_gpa(level, va), host)? + 1;
        }
        refs += self.host_refs(data_gpa, host)?;
        Ok(refs)
    }

    /// Slow-path equivalent of [`NestedPwc::invalidate_guest_region`]:
    /// drops the region's guest PDE and its covering guest PDPTE.
    pub fn invalidate_guest_region(&mut self, region: Vpn) -> usize {
        let base = region.base().raw();
        self.guest[1].remove(level_tag(base, 2)) + self.guest[2].remove(level_tag(base, 3))
    }

    /// Slow-path equivalent of [`NestedPwc::invalidate_host_region`]:
    /// drops the region's host PDE, its covering host PDPTE, and every
    /// nested-TLB translation overlapping the region — its 512 base
    /// pages and the region itself.
    pub fn invalidate_host_region(&mut self, region: Vpn) -> usize {
        let base = region.base();
        let first_4k = ntlb_tag(PageSize::Base4K, base);
        let pages: usize = (0..512).map(|i| self.ntlb.remove(first_4k + i)).sum();
        self.host[1].remove(level_tag(base.raw(), 2))
            + self.host[2].remove(level_tag(base.raw(), 3))
            + pages
            + self.ntlb.remove(ntlb_tag(PageSize::Huge2M, base))
    }

    /// Slow-path equivalent of [`NestedPwc::flush`].
    pub fn flush(&mut self) {
        for array in self.guest.iter_mut().chain(self.host.iter_mut()) {
            array.map.clear();
        }
        self.ntlb.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cold 2D walk cost with 4 KiB host pages, or 2 MiB ones when
    /// `host_2m`.
    fn cold_cost(guest_leaf: u8, host_2m: bool) -> u8 {
        let mut host = SimpleHost::new();
        let cfg = NestedConfig::typical();
        let mut npwc = NestedPwc::new(&cfg);
        let va = VirtAddr::new(0x4000_2000);
        // Register every gPA region the walk can touch as a host 2 MiB page.
        if host_2m {
            for level in 1..=guest_leaf {
                host.prefer_2m(table_page_gpa(level, va).raw() >> 21);
            }
            host.prefer_2m(0x4000_2000u64 >> 21);
        }
        let mut scratch = Vec::new();
        npwc.walk(
            va,
            guest_leaf,
            VirtAddr::new(0x4000_2000),
            &mut host,
            &mut scratch,
        )
        .unwrap()
    }

    #[test]
    fn cold_walk_costs_match_the_derivation() {
        // Lg guest levels, each (Lh + 1) references, plus Lh for data.
        assert_eq!(cold_cost(4, false), 24); // 4·5 + 4
        assert_eq!(cold_cost(3, false), 19); // 3·5 + 4
        assert_eq!(cold_cost(4, true), 19); // 4·4 + 3
        assert_eq!(cold_cost(3, true), 15); // 3·4 + 3
    }

    #[test]
    fn cold_cost_is_monotone_under_promotion_on_either_dimension() {
        // Promoting the guest (smaller leaf depth) at fixed host size:
        for host_2m in [false, true] {
            assert!(cold_cost(4, host_2m) >= cold_cost(3, host_2m));
        }
        // Promoting the host at fixed guest depth:
        for leaf in 3..=4u8 {
            assert!(cold_cost(leaf, false) >= cold_cost(leaf, true));
        }
    }

    #[test]
    fn warm_walk_reaches_the_floor() {
        let mut host = SimpleHost::new();
        let cfg = NestedConfig::typical();
        let mut npwc = NestedPwc::new(&cfg);
        let va = VirtAddr::new(0x4000_2000);
        let mut scratch = Vec::new();
        npwc.walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        // Second identical walk: guest PDE hit (1 level), its PT page and
        // the data page both nTLB hits → 1 reference total.
        let refs = npwc
            .walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        assert_eq!(refs, 1);
        assert!(scratch.is_empty(), "no host walks on an all-hit access");
        assert!(npwc.stats().ntlb_hits > 0);
    }

    #[test]
    fn host_walks_are_reported_for_pcc_feeding() {
        let mut host = SimpleHost::new();
        let mut npwc = NestedPwc::new(&NestedConfig::typical());
        let mut scratch = Vec::new();
        npwc.walk(
            VirtAddr::new(0x1000),
            4,
            VirtAddr::new(0x2000),
            &mut host,
            &mut scratch,
        )
        .unwrap();
        // Cold 4K-leaf walk: 4 table pages + 1 data page, all nTLB misses.
        assert_eq!(scratch.len(), 5);
        assert_eq!(npwc.stats().ntlb_misses, 5);
    }

    #[test]
    fn table_gpa_segments_are_disjoint_and_bounded() {
        let max_va = VirtAddr::new((1 << 48) - 1);
        let mut seen = std::collections::BTreeSet::new();
        for level in 1..=4u8 {
            let lo = table_page_gpa(level, VirtAddr::new(0));
            let hi = table_page_gpa(level, max_va);
            assert!(lo.raw() >= TABLE_GPA_BASE);
            assert!(hi.raw() < 1 << 47, "fits host table indexing");
            assert!(seen.insert(lo.raw()), "level segments must not collide");
            // Segment width stays below the 2^39 stride.
            assert!(hi.raw() - lo.raw() < 1 << 39);
        }
        // Distinct VAs in distinct tables get distinct PT-page gPAs.
        assert_ne!(
            table_page_gpa(4, VirtAddr::new(0)),
            table_page_gpa(4, VirtAddr::new(1 << 21))
        );
        // Same PT page for two VAs in one 2 MiB region.
        assert_eq!(
            table_page_gpa(4, VirtAddr::new(0x1000)),
            table_page_gpa(4, VirtAddr::new(0x2000))
        );
    }

    #[test]
    fn guest_invalidation_forces_a_refetch() {
        let mut host = SimpleHost::new();
        let mut npwc = NestedPwc::new(&NestedConfig::typical());
        let va = VirtAddr::new(0x4000_2000);
        let mut scratch = Vec::new();
        npwc.walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        let dropped = npwc.invalidate_guest_region(va.vpn(PageSize::Huge2M));
        // PDE + covering PDPTE dropped. Guest arrays hit only at the
        // PML4E now; nTLB still warm, so 3 guest levels × 1 reference
        // each + 0 for data.
        assert_eq!(dropped, 2);
        let refs = npwc
            .walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        assert_eq!(refs, 3);
    }

    #[test]
    fn host_invalidation_drops_ntlb_translations() {
        let mut host = SimpleHost::new();
        let mut npwc = NestedPwc::new(&NestedConfig::typical());
        let data = VirtAddr::new(0x1000);
        let mut scratch = Vec::new();
        npwc.walk(VirtAddr::new(0x4000_2000), 4, data, &mut host, &mut scratch)
            .unwrap();
        let dropped = npwc.invalidate_host_region(data.vpn(PageSize::Huge2M));
        assert!(dropped >= 1, "at least the data page's nTLB entry");
        let before = npwc.stats().ntlb_misses;
        npwc.walk(VirtAddr::new(0x4000_2000), 4, data, &mut host, &mut scratch)
            .unwrap();
        assert!(npwc.stats().ntlb_misses > before, "data page re-walked");
    }

    #[test]
    fn flush_resets_to_cold() {
        let mut host = SimpleHost::new();
        let mut npwc = NestedPwc::new(&NestedConfig::typical());
        let mut scratch = Vec::new();
        let va = VirtAddr::new(0x8000_0000);
        let cold = npwc
            .walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        npwc.flush();
        let again = npwc
            .walk(va, 4, VirtAddr::new(0x1000), &mut host, &mut scratch)
            .unwrap();
        assert_eq!(cold, again);
        assert_eq!(cold, 24);
    }

    #[test]
    fn host_promotion_never_increases_refs() {
        // Warm up over a working set, promote a hot host region, flush
        // the caches: the cold re-walk must not cost more than the cold
        // walk did before promotion.
        let cfg = NestedConfig::typical();
        let mut host = SimpleHost::new();
        let mut npwc = NestedPwc::new(&cfg);
        let mut scratch = Vec::new();
        let va = VirtAddr::new(0x12_3456_7000);
        let data = VirtAddr::new(0x20_0000);
        let before = npwc.walk(va, 4, data, &mut host, &mut scratch).unwrap();
        host.promote_2m(data.raw() >> 21).unwrap();
        npwc.flush();
        let after = npwc.walk(va, 4, data, &mut host, &mut scratch).unwrap();
        assert!(
            after <= before,
            "promotion increased cost: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "guest leaf level")]
    fn bad_guest_leaf_panics() {
        let mut npwc = NestedPwc::new(&NestedConfig::typical());
        let mut host = SimpleHost::new();
        let mut scratch = Vec::new();
        let _ = npwc.walk(
            VirtAddr::new(0),
            5,
            VirtAddr::new(0),
            &mut host,
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "walk level")]
    fn bad_table_level_panics() {
        let _ = table_page_gpa(0, VirtAddr::new(0));
    }

    proptest! {
        #[test]
        fn fast_walker_matches_reference_model(
            ops in prop::collection::vec((0u64..64, 0u8..8, 0u8..16), 1..400),
            huge2m in prop::collection::hash_set(0u64..16, 0..8),
        ) {
            // Small geometry so evictions actually happen.
            let cfg = NestedConfig {
                placement: hpage_types::PccPlacement::Both,
                guest_pwc: hpage_types::PwcConfig { pml4e_entries: 1, pdpte_entries: 2, pde_entries: 4 },
                host_pwc: hpage_types::PwcConfig { pml4e_entries: 1, pdpte_entries: 2, pde_entries: 4 },
                ntlb_entries: 8,
            };
            let mut fast = NestedPwc::new(&cfg);
            let mut reference = ReferenceNestedWalker::new(&cfg);
            let mut fast_host = SimpleHost::new();
            let mut ref_host = SimpleHost::new();
            for &r in &huge2m {
                fast_host.prefer_2m(r);
                ref_host.prefer_2m(r);
            }
            let mut scratch = Vec::new();
            for (i, &(page, sel, op)) in ops.iter().enumerate() {
                let va = VirtAddr::new(page << 12 | (page & 3) << 30);
                let dgpa = VirtAddr::new((page % 24) << 12);
                match op {
                    // A guest promotion/demotion shootdown.
                    13 => {
                        let region = va.vpn(PageSize::Huge2M);
                        prop_assert_eq!(
                            fast.invalidate_guest_region(region),
                            reference.invalidate_guest_region(region),
                            "guest invalidation diverged at op {}", i
                        );
                        continue;
                    }
                    // A host remap: the data page's region is promoted
                    // on both hosts (when it can be), then shot down.
                    14 => {
                        let region = dgpa.vpn(PageSize::Huge2M);
                        prop_assert_eq!(
                            fast_host.promote_2m(region.index()).is_ok(),
                            ref_host.promote_2m(region.index()).is_ok()
                        );
                        prop_assert_eq!(
                            fast.invalidate_host_region(region),
                            reference.invalidate_host_region(region),
                            "host invalidation diverged at op {}", i
                        );
                        continue;
                    }
                    // A shootdown storm.
                    15 => {
                        fast.flush();
                        reference.flush();
                        continue;
                    }
                    _ => {}
                }
                // Guest leaf level fixed per 1 GiB VA region: a mix of
                // 4 KiB / 2 MiB guest mappings.
                let leaf = match va.raw() >> 30 {
                    0 => 4,
                    1 => 3,
                    _ => 3 + (sel % 2),
                };
                let f = fast.walk(va, leaf, dgpa, &mut fast_host, &mut scratch).unwrap();
                let m = reference.walk(va, leaf, dgpa, &mut ref_host).unwrap();
                prop_assert_eq!(f, m, "divergence at op {}", i);
                prop_assert!((1..=MAX_NESTED_REFS).contains(&f), "refs {} out of bounds", f);
            }
        }

        #[test]
        fn nested_refs_stay_in_hard_bounds(
            ops in prop::collection::vec((0u64..4096, 0u8..2), 1..300),
        ) {
            let cfg = NestedConfig::typical();
            let mut npwc = NestedPwc::new(&cfg);
            let mut host = SimpleHost::new();
            let mut scratch = Vec::new();
            for &(page, leaf_sel) in &ops {
                let va = VirtAddr::new(page << 12);
                let refs = npwc
                    .walk(va, 3 + leaf_sel, VirtAddr::new((page % 512) << 12), &mut host, &mut scratch)
                    .unwrap();
                prop_assert!((1..=MAX_NESTED_REFS).contains(&refs));
            }
            prop_assert!(npwc.stats().mean_references() >= 1.0);
            prop_assert!(npwc.stats().mean_references() <= f64::from(MAX_NESTED_REFS));
        }
    }
}
