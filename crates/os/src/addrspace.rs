//! A process address space: the page table plus the promotion/demotion
//! mechanics the OS performs on it.

use crate::physmem::PhysicalMemory;
use hpage_tlb::{PageTable, Translation};
use hpage_types::{FxHashMap, HpageError, PageSize, ProcessId, VirtAddr, Vpn};

/// How a page fault was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Backed with a 4 KiB base page.
    Base(Translation),
    /// Backed synchronously with a 2 MiB huge page (Linux's THP
    /// fault-time allocation).
    Huge(Translation),
}

impl FaultOutcome {
    /// The installed translation.
    pub fn translation(&self) -> Translation {
        match self {
            FaultOutcome::Base(t) | FaultOutcome::Huge(t) => *t,
        }
    }
}

/// A physical frame granted to satisfy a page fault, decided by
/// [`AddressSpace::allocate_grant`] and installed by
/// [`AddressSpace::install_grant`].
///
/// The split exists for the sharded simulation loop: worker threads own
/// the page tables (they evaluate [`AddressSpace::fault_wants_huge`] and
/// install mappings locally) while a single coordinator owns
/// [`PhysicalMemory`] and serves allocation in global core order, so
/// frame assignment is identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultGrant {
    /// A 4 KiB base frame.
    Base(hpage_types::Pfn),
    /// A 2 MiB huge frame.
    Huge(hpage_types::Pfn),
}

/// Result of a successful promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionOutcome {
    /// The region that became a huge page.
    pub region: Vpn,
    /// Base pages migrated by compaction to free the huge frame.
    pub pages_migrated: u64,
    /// Base pages that were mapped in the region before promotion (data
    /// copy volume).
    pub pages_collapsed: u64,
}

/// Per-address-space OS statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddressSpaceStats {
    /// Page faults served with base pages.
    pub base_faults: u64,
    /// Page faults served with huge pages.
    pub huge_faults: u64,
    /// Huge-page promotions performed.
    pub promotions: u64,
    /// Huge-page demotions performed.
    pub demotions: u64,
    /// Distinct 4 KiB pages actually touched (faulted on). The gap
    /// between resident and touched bytes is the paper's memory *bloat*:
    /// greedy huge-page faulting maps 2 MiB for a single touched page.
    pub pages_touched: u64,
}

/// What the OS remembers about a promotion it performed, to drive later
/// demotion and bloat-reclaim decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PromotionRecord {
    /// Simulation timestamp of the promotion.
    at: u64,
    /// Base pages that were mapped before the collapse — the rest of the
    /// region's 512 pages are residency the application never asked for.
    pages_before: u64,
}

/// A simulated process address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    pid: ProcessId,
    page_table: PageTable,
    /// 2 MiB regions promoted by the OS (vs. faulted-in huge), with the
    /// record the OS keeps to drive demotion decisions.
    promoted: FxHashMap<u64, PromotionRecord>,
    stats: AddressSpaceStats,
}

impl AddressSpace {
    /// Creates an empty address space for `pid`.
    pub fn new(pid: ProcessId) -> Self {
        AddressSpace {
            pid,
            page_table: PageTable::new(),
            promoted: FxHashMap::default(),
            stats: AddressSpaceStats::default(),
        }
    }

    /// The owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The page table (hardware walks go through this).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page table access (the walker needs it to set A-bits).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Per-space statistics.
    pub fn stats(&self) -> &AddressSpaceStats {
        &self.stats
    }

    /// 2 MiB regions currently mapped huge (in ascending order).
    pub fn huge_regions(&self) -> Vec<Vpn> {
        let mut v: Vec<Vpn> = self
            .page_table
            .mapped_2m_regions()
            .into_iter()
            .filter(|r| self.page_table.is_huge_mapped(*r))
            .collect();
        v.sort_by_key(|r| r.index());
        v
    }

    /// Regions promoted by the OS (subset of [`huge_regions`]) with their
    /// promotion timestamps.
    pub fn promoted_regions(&self) -> Vec<(Vpn, u64)> {
        let mut v: Vec<(Vpn, u64)> = self
            .promoted
            .iter()
            .map(|(&i, rec)| (Vpn::new(i, PageSize::Huge2M), rec.at))
            .collect();
        v.sort_by_key(|(r, _)| r.index());
        v
    }

    /// Handles a page fault at `va`. When `prefer_huge` (Linux THP's
    /// synchronous policy), a 2 MiB frame is attempted first (without
    /// compaction — fault latency matters) and the fault falls back to a
    /// base page when none is available. As in Linux, the huge path only
    /// applies when the whole PMD range is still empty; a region that
    /// already holds base pages keeps faulting base pages (khugepaged
    /// collapses it later).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::OutOfMemory`] when no base frame is free
    /// either.
    pub fn fault(
        &mut self,
        va: VirtAddr,
        prefer_huge: bool,
        phys: &mut PhysicalMemory,
    ) -> Result<FaultOutcome, HpageError> {
        let wants_huge = self.fault_wants_huge(va, prefer_huge);
        let grant = Self::allocate_grant(phys, wants_huge)?;
        self.install_grant(va, grant)
    }

    /// Whether a fault at `va` would take the huge-allocation path: the
    /// policy prefers huge pages *and* the PMD range is still empty (a
    /// region already holding base pages keeps faulting base pages, as
    /// in Linux). This is the page-table half of the fault decision; it
    /// needs no [`PhysicalMemory`] access, so a sharded worker can
    /// evaluate it locally and ship only the allocation request.
    pub fn fault_wants_huge(&self, va: VirtAddr, prefer_huge: bool) -> bool {
        prefer_huge
            && self
                .page_table
                .mapped_base_pages_in(va.vpn(PageSize::Huge2M))
                == 0
    }

    /// Allocates the frame for a fault whose page-table half decided
    /// `wants_huge` (see [`fault_wants_huge`](Self::fault_wants_huge)).
    /// A failed huge allocation degrades to a base frame, exactly as the
    /// inline fault path does.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::OutOfMemory`] when no base frame is free
    /// either.
    pub fn allocate_grant(
        phys: &mut PhysicalMemory,
        wants_huge: bool,
    ) -> Result<FaultGrant, HpageError> {
        if wants_huge {
            if let Ok(huge) = phys.alloc_huge(false) {
                return Ok(FaultGrant::Huge(huge.pfn));
            }
        }
        Ok(FaultGrant::Base(phys.alloc_base()?))
    }

    /// Installs a [`FaultGrant`] for the fault at `va`: maps the page (or
    /// the whole PMD region for a huge grant) and updates fault stats.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvalidRemap`] if the grant conflicts with
    /// an existing mapping (cannot happen when the grant was allocated
    /// for this fault under the documented protocol).
    pub fn install_grant(
        &mut self,
        va: VirtAddr,
        grant: FaultGrant,
    ) -> Result<FaultOutcome, HpageError> {
        debug_assert!(
            self.page_table.translate(va).is_none(),
            "fault on mapped va"
        );
        self.stats.pages_touched += 1;
        match grant {
            FaultGrant::Huge(pfn) => {
                let region = va.vpn(PageSize::Huge2M);
                self.page_table.map(region, pfn)?;
                self.stats.huge_faults += 1;
                Ok(FaultOutcome::Huge(Translation { vpn: region, pfn }))
            }
            FaultGrant::Base(pfn) => {
                let vpn = va.vpn(PageSize::Base4K);
                self.page_table.map(vpn, pfn)?;
                self.stats.base_faults += 1;
                Ok(FaultOutcome::Base(Translation { vpn, pfn }))
            }
        }
    }

    /// Promotes `region` to a huge page: allocates a 2 MiB frame
    /// (compacting if allowed), collapses the region's base mappings into
    /// one PMD leaf, and frees the old base frames. `now` is the
    /// simulation timestamp recorded for demotion bookkeeping.
    ///
    /// # Errors
    ///
    /// * [`HpageError::InvalidRemap`] — the region is already huge.
    /// * [`HpageError::Unmapped`] — nothing is mapped in the region.
    /// * [`HpageError::OutOfMemory`] — no huge frame available.
    pub fn promote(
        &mut self,
        region: Vpn,
        allow_compaction: bool,
        now: u64,
        phys: &mut PhysicalMemory,
    ) -> Result<PromotionOutcome, HpageError> {
        if self.page_table.is_huge_mapped(region) {
            return Err(HpageError::InvalidRemap {
                reason: format!("{region} is already huge"),
            });
        }
        if self.page_table.mapped_base_pages_in(region) == 0 {
            return Err(HpageError::Unmapped {
                addr: region.base().raw(),
            });
        }
        let huge = phys.alloc_huge(allow_compaction)?;
        let old = self.page_table.promote_2m(region, huge.pfn)?;
        for pfn in &old {
            phys.free_base(*pfn)?;
        }
        self.promoted.insert(
            region.index(),
            PromotionRecord {
                at: now,
                pages_before: old.len() as u64,
            },
        );
        self.stats.promotions += 1;
        Ok(PromotionOutcome {
            region,
            pages_migrated: huge.pages_migrated,
            pages_collapsed: old.len() as u64,
        })
    }

    /// Demotes a huge `region` back to base pages. The data stays
    /// resident: the huge frame is split in place into 512 base frames.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::Unmapped`] if the region is not huge-mapped.
    pub fn demote(&mut self, region: Vpn, phys: &mut PhysicalMemory) -> Result<(), HpageError> {
        if !self.page_table.is_huge_mapped(region) {
            return Err(HpageError::Unmapped {
                addr: region.base().raw(),
            });
        }
        // Split the frame first so the PFNs exist before remapping.
        let t = self.page_table.translate(region.base()).ok_or_else(|| {
            HpageError::InvariantViolation {
                what: format!("huge-mapped region {region} has no translation"),
            }
        })?;
        let frames = phys.split_huge_in_place(t.pfn)?;
        self.page_table.demote_2m(region, &frames)?;
        self.promoted.remove(&region.index());
        self.stats.demotions += 1;
        Ok(())
    }

    /// Demotes a huge `region` and reclaims its bloat: the base pages
    /// that were only made resident by the promotion's collapse (beyond
    /// the `pages_before` the application had actually faulted) are
    /// unmapped and their frames freed. This is the HawkEye-style
    /// bloat-recovery path the degraded engine takes under memory
    /// pressure. Returns the bytes reclaimed.
    ///
    /// Frames are fungible in this model, so *which* of the region's
    /// pages survive is an approximation: the first `pages_before` pages
    /// stay mapped (a page the workload touches later simply refaults).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`demote`](Self::demote).
    pub fn demote_and_reclaim(
        &mut self,
        region: Vpn,
        phys: &mut PhysicalMemory,
    ) -> Result<u64, HpageError> {
        let pages_before = self
            .promoted
            .get(&region.index())
            .map(|rec| rec.pages_before)
            .unwrap_or(512);
        self.demote(region, phys)?;
        let mut reclaimed = 0u64;
        for page in region.split(PageSize::Base4K).skip(pages_before as usize) {
            let pfn = self.page_table.unmap(page)?;
            phys.free_base(pfn)?;
            reclaimed += PageSize::Base4K.bytes();
        }
        Ok(reclaimed)
    }

    /// Whether `region` was promoted by the OS (as opposed to faulted in
    /// huge or still base-mapped).
    pub fn is_promoted(&self, region: Vpn) -> bool {
        self.promoted.contains_key(&region.index())
    }

    /// Resident bytes: memory currently committed to this address space
    /// (base pages + whole huge pages).
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for region in self.page_table.mapped_2m_regions() {
            if self.page_table.is_huge_mapped(region) {
                bytes += PageSize::Huge2M.bytes();
            } else {
                bytes += self.page_table.mapped_base_pages_in(region) * PageSize::Base4K.bytes();
            }
        }
        bytes
    }

    /// Memory bloat: resident bytes beyond what faults actually touched
    /// (§1: "aggressive use of huge pages can bloat an application's
    /// memory footprint"). Promotions of touched regions do not count as
    /// bloat reduction/increase of touched pages — bloat measures
    /// residency the application never asked for.
    pub fn bloat_bytes(&self) -> u64 {
        self.resident_bytes()
            .saturating_sub(self.stats.pages_touched * PageSize::Base4K.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB2: u64 = PageSize::Huge2M.bytes();

    fn setup() -> (AddressSpace, PhysicalMemory) {
        (
            AddressSpace::new(ProcessId(1)),
            PhysicalMemory::new(16 * MB2),
        )
    }

    fn region(i: u64) -> Vpn {
        Vpn::new(i, PageSize::Huge2M)
    }

    #[test]
    fn base_fault_maps_page() {
        let (mut a, mut pm) = setup();
        let va = VirtAddr::new(0x40_0000);
        let out = a.fault(va, false, &mut pm).unwrap();
        assert!(matches!(out, FaultOutcome::Base(_)));
        assert_eq!(a.page_table().mapping_size(va), Some(PageSize::Base4K));
        assert_eq!(a.stats().base_faults, 1);
        assert_eq!(pm.free_frames(), 16 * 512 - 1);
    }

    #[test]
    fn huge_fault_maps_region() {
        let (mut a, mut pm) = setup();
        let va = VirtAddr::new(0x40_1234);
        let out = a.fault(va, true, &mut pm).unwrap();
        assert!(matches!(out, FaultOutcome::Huge(_)));
        assert_eq!(a.page_table().mapping_size(va), Some(PageSize::Huge2M));
        // The whole region translates, not just the faulting page.
        assert!(a.page_table().translate(VirtAddr::new(0x40_0000)).is_some());
        assert_eq!(a.stats().huge_faults, 1);
    }

    #[test]
    fn huge_fault_skips_partially_mapped_regions() {
        // Linux's THP fault path requires an empty PMD range: once a
        // region holds base pages, further faults in it stay base even
        // when huge frames are available.
        let (mut a, mut pm) = setup();
        let r = region(32);
        a.fault(r.base(), false, &mut pm).unwrap(); // base page first
        let out = a.fault(r.base().offset(0x1000), true, &mut pm).unwrap();
        assert!(matches!(out, FaultOutcome::Base(_)));
        assert!(!a.page_table().is_huge_mapped(r));
    }

    #[test]
    fn huge_fault_falls_back_when_no_huge_frame() {
        let mut a = AddressSpace::new(ProcessId(1));
        let mut pm = PhysicalMemory::new(2 * MB2);
        pm.fragment(100, 1); // no huge-capable blocks
        let out = a.fault(VirtAddr::new(0x40_0000), true, &mut pm).unwrap();
        assert!(matches!(out, FaultOutcome::Base(_)));
    }

    #[test]
    fn promote_collapses_and_frees_base_frames() {
        let (mut a, mut pm) = setup();
        let r = region(32);
        for page in r.split(PageSize::Base4K).take(20) {
            a.fault(page.base(), false, &mut pm).unwrap();
        }
        let free_before = pm.free_frames();
        let out = a.promote(r, true, 123, &mut pm).unwrap();
        assert_eq!(out.pages_collapsed, 20);
        assert!(a.is_promoted(r));
        assert_eq!(a.promoted_regions(), vec![(r, 123)]);
        // 20 base frames returned, 512 consumed by the huge frame.
        assert_eq!(pm.free_frames(), free_before + 20 - 512);
        assert!(a.page_table().is_huge_mapped(r));
    }

    #[test]
    fn promote_errors() {
        let (mut a, mut pm) = setup();
        let r = region(32);
        assert!(matches!(
            a.promote(r, true, 0, &mut pm),
            Err(HpageError::Unmapped { .. })
        ));
        a.fault(r.base(), true, &mut pm).unwrap();
        assert!(matches!(
            a.promote(r, true, 0, &mut pm),
            Err(HpageError::InvalidRemap { .. })
        ));
    }

    #[test]
    fn promote_oom_when_fragmented() {
        let mut a = AddressSpace::new(ProcessId(1));
        let mut pm = PhysicalMemory::new(4 * MB2);
        pm.fragment(100, 1);
        let r = region(32);
        a.fault(r.base(), false, &mut pm).unwrap();
        assert!(matches!(
            a.promote(r, true, 0, &mut pm),
            Err(HpageError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn demote_splits_in_place() {
        let (mut a, mut pm) = setup();
        let r = region(32);
        a.fault(r.base(), false, &mut pm).unwrap();
        a.promote(r, true, 5, &mut pm).unwrap();
        a.demote(r, &mut pm).unwrap();
        assert!(!a.is_promoted(r));
        assert!(!a.page_table().is_huge_mapped(r));
        assert_eq!(a.page_table().mapped_base_pages_in(r), 512);
        assert_eq!(a.stats().demotions, 1);
        // Demoting again fails.
        assert!(a.demote(r, &mut pm).is_err());
    }

    #[test]
    fn demote_then_repromote() {
        let (mut a, mut pm) = setup();
        let r = region(32);
        a.fault(r.base(), false, &mut pm).unwrap();
        a.promote(r, true, 1, &mut pm).unwrap();
        a.demote(r, &mut pm).unwrap();
        let out = a.promote(r, true, 2, &mut pm).unwrap();
        assert_eq!(out.pages_collapsed, 512);
        assert!(a.is_promoted(r));
    }

    #[test]
    fn bloat_measures_untouched_residency() {
        let (mut a, mut pm) = setup();
        // Greedy huge fault: one touch commits 2 MiB.
        a.fault(VirtAddr::new(0x40_0000), true, &mut pm).unwrap();
        assert_eq!(a.stats().pages_touched, 1);
        assert_eq!(a.resident_bytes(), PageSize::Huge2M.bytes());
        assert_eq!(
            a.bloat_bytes(),
            PageSize::Huge2M.bytes() - PageSize::Base4K.bytes()
        );
        // Base faults commit exactly what is touched: zero bloat.
        let (mut b, mut pm2) = setup();
        for i in 0..10u64 {
            b.fault(VirtAddr::new(0x40_0000 + i * 0x1000), false, &mut pm2)
                .unwrap();
        }
        assert_eq!(b.bloat_bytes(), 0);
        // Promotion of a sparsely-touched region creates bloat too.
        b.promote(region(2), true, 0, &mut pm2).unwrap();
        assert_eq!(
            b.bloat_bytes(),
            PageSize::Huge2M.bytes() - 10 * PageSize::Base4K.bytes()
        );
    }

    #[test]
    fn huge_regions_lists_both_faulted_and_promoted() {
        let (mut a, mut pm) = setup();
        a.fault(region(10).base(), true, &mut pm).unwrap(); // faulted huge
        a.fault(region(20).base(), false, &mut pm).unwrap();
        a.promote(region(20), true, 0, &mut pm).unwrap(); // promoted
        let regions = a.huge_regions();
        assert_eq!(regions, vec![region(10), region(20)]);
        assert!(!a.is_promoted(region(10)));
        assert!(a.is_promoted(region(20)));
    }
}
