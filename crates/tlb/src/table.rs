//! A 4-level x86-64-style radix page table with per-level accessed bits.
//!
//! The model keeps only what the simulation needs: present mappings at
//! 4 KiB / 2 MiB granularity, and the *accessed* bits the hardware
//! walker sets at the PMD (2 MiB) and PTE levels — the PMD bit is the
//! one the PCC's cold-miss filter reads (steps 3 and 6 of the paper's
//! Fig. 3). A PUD entry always points to a PMD directory: 1 GiB leaf
//! mappings are not modelled, and [`PageTable::map`] rejects them.

use hpage_types::{FxHashMap, HpageError, PageSize, Pfn, VirtAddr, Vpn};

/// A resolved virtual-to-physical translation at the mapped page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Translation {
    /// The virtual page (at the mapping's page size).
    pub vpn: Vpn,
    /// The physical frame backing it.
    pub pfn: Pfn,
}

impl Translation {
    /// The page size of the mapping.
    pub fn size(&self) -> PageSize {
        self.vpn.size()
    }
}

/// Result of one hardware page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation found by the walk.
    pub translation: Translation,
    /// Whether the PMD-level (2 MiB region) accessed bit was already set
    /// before this walk. Drives the 2 MiB PCC's cold-miss filter.
    pub pmd_accessed_before: bool,
    /// Number of page-table levels the walker had to reference
    /// (3 for a 2 MiB leaf at the PMD, 4 for a 4 KiB leaf at the PTE —
    /// counting from the PGD).
    pub levels_referenced: u8,
}

/// The 512-entry PMD directory of one PUD: a real page table is an
/// array indexed by 9 address bits, and modeling it as one keeps the
/// per-walk level references O(1) with no hashing — the hardware-walk
/// hot path the simulator spends most of its time in.
#[derive(Debug, Clone)]
struct PmdDir {
    slots: Box<[Option<PmdEntry>]>,
}

impl PmdDir {
    fn new() -> Self {
        PmdDir {
            slots: vec![None; ENTRIES_PER_TABLE].into_boxed_slice(),
        }
    }

    /// Slot for a *global* 2 MiB region index (low 9 bits).
    fn slot_of(idx: u64) -> usize {
        (idx & (ENTRIES_PER_TABLE as u64 - 1)) as usize
    }

    fn get(&self, idx: u64) -> Option<&PmdEntry> {
        self.slots[Self::slot_of(idx)].as_ref()
    }

    fn get_mut(&mut self, idx: u64) -> Option<&mut PmdEntry> {
        self.slots[Self::slot_of(idx)].as_mut()
    }

    fn insert(&mut self, idx: u64, entry: PmdEntry) {
        self.slots[Self::slot_of(idx)] = Some(entry);
    }

    fn remove(&mut self, idx: u64) -> Option<PmdEntry> {
        self.slots[Self::slot_of(idx)].take()
    }

    fn or_insert_with(&mut self, idx: u64, default: impl FnOnce() -> PmdEntry) -> &mut PmdEntry {
        self.slots[Self::slot_of(idx)].get_or_insert_with(default)
    }

    /// Present entries as (local slot, entry) pairs, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, &PmdEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
    }
}

#[derive(Debug, Clone)]
struct PmdEntry {
    accessed: bool,
    kind: PmdKind,
}

#[derive(Debug, Clone)]
enum PmdKind {
    /// 2 MiB leaf mapping.
    Huge2M(Pfn),
    /// Points to the 512-entry PTE table of this 2 MiB region.
    Table(PteTable),
}

/// Entries per page-table level on x86-64 (9 index bits).
const ENTRIES_PER_TABLE: usize = 512;

/// Present bit of a packed PTE word.
const PTE_PRESENT: u64 = 1;
/// Accessed bit of a packed PTE word.
const PTE_ACCESSED: u64 = 1 << 1;
/// Shift of the frame index in a packed PTE word.
const PTE_PFN_SHIFT: u32 = 2;

/// The 512-entry PTE table of one PMD, indexed by the low 9 bits of
/// the global 4 KiB page index.
///
/// Entries are packed like hardware PTEs: one `u64` word per slot
/// (present bit, accessed bit, frame index), so a full table is a
/// single 4 KiB array — the walker's leaf reference is one word
/// load/store, and the whole level stays three times denser in the
/// host cache than a `[Option<struct>; 512]` layout. A PTE always maps
/// a 4 KiB frame, so the frame's page size needs no bits.
#[derive(Debug, Clone)]
struct PteTable {
    slots: Box<[u64; ENTRIES_PER_TABLE]>,
    live: u32,
}

impl PteTable {
    fn new() -> Self {
        PteTable {
            slots: Box::new([0; ENTRIES_PER_TABLE]),
            live: 0,
        }
    }

    fn slot_of(idx: u64) -> usize {
        (idx & (ENTRIES_PER_TABLE as u64 - 1)) as usize
    }

    fn pack(pfn: Pfn, accessed: bool) -> u64 {
        debug_assert_eq!(pfn.size(), PageSize::Base4K);
        (pfn.index() << PTE_PFN_SHIFT) | PTE_PRESENT | if accessed { PTE_ACCESSED } else { 0 }
    }

    fn unpack_pfn(word: u64) -> Pfn {
        Pfn::new(word >> PTE_PFN_SHIFT, PageSize::Base4K)
    }

    fn word(&self, idx: u64) -> u64 {
        self.slots[Self::slot_of(idx)]
    }

    fn word_mut(&mut self, idx: u64) -> &mut u64 {
        &mut self.slots[Self::slot_of(idx)]
    }

    /// Installs a mapping; returns `true` if the slot was empty.
    fn insert(&mut self, idx: u64, pfn: Pfn, accessed: bool) -> bool {
        let slot = self.word_mut(idx);
        let was_empty = *slot & PTE_PRESENT == 0;
        *slot = Self::pack(pfn, accessed);
        if was_empty {
            self.live += 1;
        }
        was_empty
    }

    fn remove(&mut self, idx: u64) -> Option<Pfn> {
        let slot = self.word_mut(idx);
        if *slot & PTE_PRESENT == 0 {
            return None;
        }
        let pfn = Self::unpack_pfn(*slot);
        *slot = 0;
        self.live -= 1;
        Some(pfn)
    }

    fn len(&self) -> usize {
        self.live as usize
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn pfns(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.slots
            .iter()
            .filter(|&&w| w & PTE_PRESENT != 0)
            .map(|&w| Self::unpack_pfn(w))
    }

    fn accessed_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|&&w| w & (PTE_PRESENT | PTE_ACCESSED) == (PTE_PRESENT | PTE_ACCESSED))
            .count()
    }

    fn clear_accessed(&mut self) {
        for w in self.slots.iter_mut() {
            *w &= !PTE_ACCESSED;
        }
    }
}

/// A process's page table.
///
/// Mappings can be installed at 4 KiB or 2 MiB;
/// [`promote_2m`](Self::promote_2m) and [`demote_2m`](Self::demote_2m)
/// implement the remappings the OS performs during huge page promotion
/// and demotion.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Each PUD's PMD directory, keyed by global 1 GiB region index.
    puds: FxHashMap<u64, PmdDir>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Installs a mapping of `vpn` to `pfn` (page sizes must match).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvalidRemap`] if the sizes differ, if `vpn`
    /// is a 1 GiB page (not modelled), or if any part of the region is
    /// already mapped.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn) -> Result<(), HpageError> {
        if vpn.size() != pfn.size() {
            return Err(HpageError::InvalidRemap {
                reason: format!("vpn size {} != pfn size {}", vpn.size(), pfn.size()),
            });
        }
        if vpn.size() == PageSize::Huge1G {
            return Err(not_modelled_1g());
        }
        if self.translate(vpn.base()).is_some() {
            return Err(HpageError::InvalidRemap {
                reason: format!("{vpn} is already mapped"),
            });
        }
        let pmds = self.pmd_dir(vpn.containing(PageSize::Huge1G).index());
        if vpn.size() == PageSize::Huge2M {
            if pmds.get(vpn.index()).is_some() {
                return Err(HpageError::InvalidRemap {
                    reason: format!("{vpn} overlaps existing base mappings"),
                });
            }
            pmds.insert(
                vpn.index(),
                PmdEntry {
                    accessed: false,
                    kind: PmdKind::Huge2M(pfn),
                },
            );
            return Ok(());
        }
        let pmd = pmds.or_insert_with(vpn.containing(PageSize::Huge2M).index(), || PmdEntry {
            accessed: false,
            kind: PmdKind::Table(PteTable::new()),
        });
        match &mut pmd.kind {
            PmdKind::Table(ptes) => {
                ptes.insert(vpn.index(), pfn, false);
                Ok(())
            }
            PmdKind::Huge2M(_) => Err(HpageError::InvalidRemap {
                reason: format!("{vpn} lies inside an existing 2MB mapping"),
            }),
        }
    }

    fn pmd_dir(&mut self, pud_idx: u64) -> &mut PmdDir {
        self.puds.entry(pud_idx).or_insert_with(PmdDir::new)
    }

    /// Removes the mapping containing `vpn.base()` at exactly `vpn`'s size.
    /// Returns the physical frame it pointed to.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvalidRemap`] for a 1 GiB `vpn` (not
    /// modelled) and [`HpageError::Unmapped`] if no mapping of that size
    /// covers the address.
    pub fn unmap(&mut self, vpn: Vpn) -> Result<Pfn, HpageError> {
        let err = || HpageError::Unmapped {
            addr: vpn.base().raw(),
        };
        if vpn.size() == PageSize::Huge1G {
            return Err(not_modelled_1g());
        }
        let pud_idx = vpn.containing(PageSize::Huge1G).index();
        let pmds = self.puds.get_mut(&pud_idx).ok_or_else(err)?;
        if vpn.size() == PageSize::Huge2M {
            return match pmds.remove(vpn.index()) {
                Some(PmdEntry {
                    kind: PmdKind::Huge2M(pfn),
                    ..
                }) => Ok(pfn),
                Some(other) => {
                    pmds.insert(vpn.index(), other);
                    Err(err())
                }
                None => Err(err()),
            };
        }
        let pmd_idx = vpn.containing(PageSize::Huge2M).index();
        let pmd = pmds.get_mut(pmd_idx).ok_or_else(err)?;
        let PmdKind::Table(ptes) = &mut pmd.kind else {
            return Err(err());
        };
        ptes.remove(vpn.index()).ok_or_else(err)
    }

    /// Resolves `va` without touching accessed bits (an "OS peek", unlike
    /// the hardware [`walk`](Self::walk)).
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        let pmds = self.puds.get(&va.vpn(PageSize::Huge1G).index())?;
        let pmd = pmds.get(va.vpn(PageSize::Huge2M).index())?;
        match &pmd.kind {
            PmdKind::Huge2M(pfn) => Some(Translation {
                vpn: va.vpn(PageSize::Huge2M),
                pfn: *pfn,
            }),
            PmdKind::Table(ptes) => {
                let w = ptes.word(va.vpn(PageSize::Base4K).index());
                (w & PTE_PRESENT != 0).then(|| Translation {
                    vpn: va.vpn(PageSize::Base4K),
                    pfn: PteTable::unpack_pfn(w),
                })
            }
        }
    }

    /// The page size of the mapping covering `va`, if any.
    pub fn mapping_size(&self, va: VirtAddr) -> Option<PageSize> {
        self.translate(va).map(|t| t.size())
    }

    /// Performs a hardware page-table walk for `va`: resolves the
    /// translation, reports the prior state of the PMD accessed bit, and
    /// sets the PMD and leaf accessed bits on the walked path (Intel
    /// semantics: the walker sets A-bits at each level it references;
    /// the upper levels' bits are not modelled, as nothing reads them).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::Unmapped`] for an unmapped address (a page
    /// fault in the real system; the OS layer handles it and retries).
    pub fn walk(&mut self, va: VirtAddr) -> Result<WalkResult, HpageError> {
        let err = || HpageError::Unmapped { addr: va.raw() };
        let pud_idx = va.vpn(PageSize::Huge1G).index();
        let pmds = self.puds.get_mut(&pud_idx).ok_or_else(err)?;
        let pmd_idx = va.vpn(PageSize::Huge2M).index();
        let pmd = pmds.get_mut(pmd_idx).ok_or_else(err)?;
        let pmd_accessed_before = pmd.accessed;
        let result = match &mut pmd.kind {
            PmdKind::Huge2M(pfn) => WalkResult {
                translation: Translation {
                    vpn: va.vpn(PageSize::Huge2M),
                    pfn: *pfn,
                },
                pmd_accessed_before,
                levels_referenced: 3,
            },
            PmdKind::Table(ptes) => {
                let w = ptes.word_mut(va.vpn(PageSize::Base4K).index());
                if *w & PTE_PRESENT == 0 {
                    return Err(err());
                }
                *w |= PTE_ACCESSED;
                WalkResult {
                    translation: Translation {
                        vpn: va.vpn(PageSize::Base4K),
                        pfn: PteTable::unpack_pfn(*w),
                    },
                    pmd_accessed_before,
                    levels_referenced: 4,
                }
            }
        };
        pmd.accessed = true;
        Ok(result)
    }

    /// The PMD entry of a 2 MiB region, if its PUD and PMD are present.
    fn pmd(&self, region: Vpn) -> Option<&PmdEntry> {
        let pud_idx = region.containing(PageSize::Huge1G).index();
        self.puds.get(&pud_idx)?.get(region.index())
    }

    /// Mutable form of [`pmd`](Self::pmd).
    fn pmd_mut(&mut self, region: Vpn) -> Option<&mut PmdEntry> {
        let pud_idx = region.containing(PageSize::Huge1G).index();
        self.puds.get_mut(&pud_idx)?.get_mut(region.index())
    }

    /// Replaces the 4 KiB mappings of a fully- or partially-mapped 2 MiB
    /// region with a single 2 MiB leaf pointing at `new_pfn` — the page
    /// table side of huge page promotion. Returns the base-page frames
    /// that were unmapped (the OS copies their data into the huge frame).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvalidRemap`] if the region is already huge
    /// or [`HpageError::Unmapped`] if no base page in it is mapped.
    pub fn promote_2m(&mut self, region: Vpn, new_pfn: Pfn) -> Result<Vec<Pfn>, HpageError> {
        if region.size() != PageSize::Huge2M || new_pfn.size() != PageSize::Huge2M {
            return Err(HpageError::InvalidRemap {
                reason: "promote_2m requires 2MB vpn and pfn".into(),
            });
        }
        let unmapped = || HpageError::Unmapped {
            addr: region.base().raw(),
        };
        let pmd = self.pmd_mut(region).ok_or_else(unmapped)?;
        match &mut pmd.kind {
            PmdKind::Huge2M(_) => Err(HpageError::InvalidRemap {
                reason: format!("{region} is already a huge page"),
            }),
            PmdKind::Table(ptes) => {
                if ptes.is_empty() {
                    return Err(unmapped());
                }
                let old: Vec<Pfn> = ptes.pfns().collect();
                pmd.kind = PmdKind::Huge2M(new_pfn);
                pmd.accessed = false; // fresh leaf: hardware will set it
                Ok(old)
            }
        }
    }

    /// Splits a 2 MiB huge mapping back into 512 base-page mappings onto
    /// `base_pfns` — the page table side of huge page demotion. Returns
    /// the huge frame that was unmapped.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvalidRemap`] if `base_pfns` is not 512
    /// 4 KiB frames, or [`HpageError::Unmapped`] if the region is not a
    /// huge mapping.
    pub fn demote_2m(&mut self, region: Vpn, base_pfns: &[Pfn]) -> Result<Pfn, HpageError> {
        if region.size() != PageSize::Huge2M {
            return Err(HpageError::InvalidRemap {
                reason: "demote_2m requires a 2MB vpn".into(),
            });
        }
        if base_pfns.len() != 512 || base_pfns.iter().any(|p| p.size() != PageSize::Base4K) {
            return Err(HpageError::InvalidRemap {
                reason: "demote_2m requires exactly 512 4KB pfns".into(),
            });
        }
        let unmapped = || HpageError::Unmapped {
            addr: region.base().raw(),
        };
        let pmd = self.pmd_mut(region).ok_or_else(unmapped)?;
        let PmdKind::Huge2M(huge_pfn) = pmd.kind else {
            return Err(unmapped());
        };
        let mut ptes = PteTable::new();
        for (vpn, pfn) in region.split(PageSize::Base4K).zip(base_pfns.iter()) {
            ptes.insert(vpn.index(), *pfn, false);
        }
        pmd.kind = PmdKind::Table(ptes);
        pmd.accessed = false;
        Ok(huge_pfn)
    }

    /// Number of mapped 4 KiB pages inside a 2 MiB region (512 if the
    /// region is a huge mapping). Used by utilization-based policies
    /// (khugepaged, HawkEye).
    pub fn mapped_base_pages_in(&self, region: Vpn) -> u64 {
        assert_eq!(region.size(), PageSize::Huge2M);
        match self.pmd(region).map(|p| &p.kind) {
            Some(PmdKind::Huge2M(_)) => 512,
            Some(PmdKind::Table(ptes)) => ptes.len() as u64,
            None => 0,
        }
    }

    /// Number of 4 KiB pages in `region` whose PTE accessed bit is set —
    /// HawkEye's *access coverage* metric for one huge page region.
    pub fn accessed_base_pages_in(&self, region: Vpn) -> u64 {
        assert_eq!(region.size(), PageSize::Huge2M);
        match self.pmd(region) {
            // For a huge leaf, coverage is its own A-bit times 512.
            Some(PmdEntry {
                kind: PmdKind::Huge2M(_),
                accessed,
            }) => 512 * u64::from(*accessed),
            Some(PmdEntry {
                kind: PmdKind::Table(ptes),
                ..
            }) => ptes.accessed_count() as u64,
            None => 0,
        }
    }

    /// Clears the PTE accessed bits of every 4 KiB page inside `region`
    /// (software scanners reset A-bits between measurement intervals).
    pub fn clear_accessed_in(&mut self, region: Vpn) {
        assert_eq!(region.size(), PageSize::Huge2M);
        if let Some(pmd) = self.pmd_mut(region) {
            pmd.accessed = false;
            if let PmdKind::Table(ptes) = &mut pmd.kind {
                ptes.clear_accessed();
            }
        }
    }

    /// Iterates over every 2 MiB region that currently has at least one
    /// mapping (huge or base), in ascending region order. This is the VMA
    /// scan order khugepaged and HawkEye traverse.
    pub fn mapped_2m_regions(&self) -> Vec<Vpn> {
        let mut regions: Vec<Vpn> = Vec::new();
        for (pud_idx, pmds) in &self.puds {
            regions.extend(
                pmds.entries()
                    .map(|(slot, _)| Vpn::new(pud_idx * 512 + slot as u64, PageSize::Huge2M)),
            );
        }
        regions.sort_by_key(|v| v.index());
        regions
    }

    /// Whether `region` is mapped by a 2 MiB leaf.
    pub fn is_huge_mapped(&self, region: Vpn) -> bool {
        assert_eq!(region.size(), PageSize::Huge2M);
        self.mapping_size(region.base()) == Some(PageSize::Huge2M)
    }
}

/// The error for a 1 GiB [`PageTable::map`] or [`PageTable::unmap`].
fn not_modelled_1g() -> HpageError {
    HpageError::InvalidRemap {
        reason: "1 GiB mappings are not modelled".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4k(i: u64) -> Vpn {
        Vpn::new(i, PageSize::Base4K)
    }
    fn p4k(i: u64) -> Pfn {
        Pfn::new(i, PageSize::Base4K)
    }
    fn v2m(i: u64) -> Vpn {
        Vpn::new(i, PageSize::Huge2M)
    }
    fn p2m(i: u64) -> Pfn {
        Pfn::new(i, PageSize::Huge2M)
    }

    #[test]
    fn map_translate_roundtrip_all_sizes() {
        let mut pt = PageTable::new();
        pt.map(v4k(5), p4k(50)).unwrap();
        pt.map(v2m(1000), p2m(99)).unwrap();

        let t = pt.translate(v4k(5).base()).unwrap();
        assert_eq!(t.pfn, p4k(50));
        assert_eq!(t.size(), PageSize::Base4K);

        let t = pt.translate(v2m(1000).base().offset(0x12345)).unwrap();
        assert_eq!(t.pfn, p2m(99));
        assert_eq!(t.size(), PageSize::Huge2M);
    }

    #[test]
    fn map_and_unmap_of_1g_pages_are_rejected() {
        let mut pt = PageTable::new();
        let giant = Vpn::new(3, PageSize::Huge1G);
        let want = HpageError::InvalidRemap {
            reason: "1 GiB mappings are not modelled".into(),
        };
        assert_eq!(
            pt.map(giant, Pfn::new(2, PageSize::Huge1G)),
            Err(want.clone())
        );
        assert_eq!(pt.unmap(giant), Err(want.clone()));
        // Mappings already inside the gigabyte are left alone.
        let inner = giant.split(PageSize::Huge2M).nth(7).unwrap();
        pt.map(inner, p2m(5)).unwrap();
        assert_eq!(pt.unmap(giant), Err(want));
        assert!(pt.is_huge_mapped(inner));
        assert!(pt.translate(giant.base()).is_none());
    }

    #[test]
    fn translate_unmapped_is_none() {
        let pt = PageTable::new();
        assert!(pt.translate(VirtAddr::new(0x1000)).is_none());
        assert!(pt.mapping_size(VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new();
        pt.map(v4k(5), p4k(50)).unwrap();
        assert!(pt.map(v4k(5), p4k(51)).is_err());
        // 2MB over existing 4K in the same region also rejected.
        let region = v4k(5).containing(PageSize::Huge2M);
        assert!(pt.map(region, p2m(7)).is_err());
        // 4K inside an existing 2MB mapping rejected.
        pt.map(v2m(1000), p2m(99)).unwrap();
        let inner = v2m(1000).split(PageSize::Base4K).nth(3).unwrap();
        assert!(pt.map(inner, p4k(1)).is_err());
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut pt = PageTable::new();
        assert!(pt.map(v4k(1), p2m(1)).is_err());
    }

    #[test]
    fn walk_sets_and_reports_access_bits() {
        let mut pt = PageTable::new();
        pt.map(v4k(0x200), p4k(1)).unwrap(); // inside 2MB region 1
        let va = v4k(0x200).base();

        let w1 = pt.walk(va).unwrap();
        assert!(!w1.pmd_accessed_before);
        assert_eq!(w1.levels_referenced, 4);

        let w2 = pt.walk(va).unwrap();
        assert!(w2.pmd_accessed_before);
    }

    #[test]
    fn pmd_access_bit_shared_within_region() {
        let mut pt = PageTable::new();
        // Two different base pages in the same 2MB region.
        pt.map(v4k(0x200), p4k(1)).unwrap();
        pt.map(v4k(0x201), p4k(2)).unwrap();
        pt.walk(v4k(0x200).base()).unwrap();
        // The sibling page's walk sees the PMD bit already set: this is
        // exactly what lets the PCC admit the region as warm.
        let w = pt.walk(v4k(0x201).base()).unwrap();
        assert!(w.pmd_accessed_before);
    }

    #[test]
    fn walk_2m_leaf_reports_three_levels() {
        let mut pt = PageTable::new();
        pt.map(v2m(4), p2m(9)).unwrap();
        let w = pt.walk(v2m(4).base().offset(0x1234)).unwrap();
        assert_eq!(w.levels_referenced, 3);
        assert_eq!(w.translation.size(), PageSize::Huge2M);
        assert!(!w.pmd_accessed_before);
        let w2 = pt.walk(v2m(4).base()).unwrap();
        assert!(w2.pmd_accessed_before);
    }

    #[test]
    fn walk_unmapped_errors() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.walk(VirtAddr::new(0x5000)),
            Err(HpageError::Unmapped { addr: 0x5000 })
        ));
    }

    #[test]
    fn promote_replaces_base_pages() {
        let mut pt = PageTable::new();
        let region = v2m(3);
        let pages: Vec<Vpn> = region.split(PageSize::Base4K).collect();
        for (i, page) in pages.iter().enumerate().take(10) {
            pt.map(*page, p4k(100 + i as u64)).unwrap();
        }
        let old = pt.promote_2m(region, p2m(77)).unwrap();
        assert_eq!(old.len(), 10);
        assert!(pt.is_huge_mapped(region));
        // All 512 pages now translate via the huge leaf.
        for page in &pages {
            let t = pt.translate(page.base()).unwrap();
            assert_eq!(t.size(), PageSize::Huge2M);
            assert_eq!(t.pfn, p2m(77));
        }
    }

    #[test]
    fn promote_rejects_empty_or_huge() {
        let mut pt = PageTable::new();
        assert!(pt.promote_2m(v2m(3), p2m(1)).is_err()); // nothing mapped
        pt.map(v2m(3), p2m(1)).unwrap();
        assert!(pt.promote_2m(v2m(3), p2m(2)).is_err()); // already huge
    }

    #[test]
    fn demote_splits_huge_page() {
        let mut pt = PageTable::new();
        pt.map(v2m(3), p2m(7)).unwrap();
        let frames: Vec<Pfn> = (0..512).map(p4k).collect();
        let huge = pt.demote_2m(v2m(3), &frames).unwrap();
        assert_eq!(huge, p2m(7));
        assert!(!pt.is_huge_mapped(v2m(3)));
        assert_eq!(pt.mapped_base_pages_in(v2m(3)), 512);
        let t = pt.translate(v2m(3).base().offset(5 << 12)).unwrap();
        assert_eq!(t.pfn, p4k(5));
    }

    #[test]
    fn demote_validates_inputs() {
        let mut pt = PageTable::new();
        pt.map(v2m(3), p2m(7)).unwrap();
        assert!(pt.demote_2m(v2m(3), &[p4k(0); 10]).is_err());
        assert!(pt.demote_2m(v2m(4), &vec![p4k(0); 512]).is_err());
    }

    #[test]
    fn promote_demote_roundtrip() {
        let mut pt = PageTable::new();
        let region = v2m(3);
        for (i, page) in region.split(PageSize::Base4K).enumerate() {
            pt.map(page, p4k(i as u64)).unwrap();
        }
        pt.promote_2m(region, p2m(9)).unwrap();
        let frames: Vec<Pfn> = (0..512).map(p4k).collect();
        pt.demote_2m(region, &frames).unwrap();
        assert_eq!(pt.mapped_base_pages_in(region), 512);
        pt.promote_2m(region, p2m(10)).unwrap();
        assert!(pt.is_huge_mapped(region));
    }

    #[test]
    fn coverage_counts_accessed_pages() {
        let mut pt = PageTable::new();
        let region = v2m(3);
        let pages: Vec<Vpn> = region.split(PageSize::Base4K).take(8).collect();
        for (i, page) in pages.iter().enumerate() {
            pt.map(*page, p4k(i as u64)).unwrap();
        }
        assert_eq!(pt.accessed_base_pages_in(region), 0);
        pt.walk(pages[0].base()).unwrap();
        pt.walk(pages[3].base()).unwrap();
        assert_eq!(pt.accessed_base_pages_in(region), 2);
        assert_eq!(pt.mapped_base_pages_in(region), 8);
        pt.clear_accessed_in(region);
        assert_eq!(pt.accessed_base_pages_in(region), 0);
        // Clearing also resets the PMD bit (next walk is "cold" again).
        let w = pt.walk(pages[0].base()).unwrap();
        assert!(!w.pmd_accessed_before);
    }

    #[test]
    fn mapped_regions_sorted() {
        let mut pt = PageTable::new();
        pt.map(v2m(9), p2m(1)).unwrap();
        pt.map(v4k(0x200), p4k(1)).unwrap(); // region 1
        pt.map(v2m(4), p2m(2)).unwrap();
        let regions = pt.mapped_2m_regions();
        assert_eq!(
            regions.iter().map(|v| v.index()).collect::<Vec<_>>(),
            vec![1, 4, 9]
        );
    }

    #[test]
    fn unmap_all_sizes() {
        let mut pt = PageTable::new();
        pt.map(v4k(5), p4k(50)).unwrap();
        assert_eq!(pt.unmap(v4k(5)).unwrap(), p4k(50));
        assert!(pt.translate(v4k(5).base()).is_none());
        assert!(pt.unmap(v4k(5)).is_err());

        pt.map(v2m(8), p2m(3)).unwrap();
        assert_eq!(pt.unmap(v2m(8)).unwrap(), p2m(3));
        assert!(pt.translate(v2m(8).base()).is_none());
        assert!(pt.unmap(v2m(8)).is_err());
    }

    #[test]
    fn unmap_wrong_size_keeps_mapping() {
        let mut pt = PageTable::new();
        pt.map(v2m(8), p2m(3)).unwrap();
        // Unmapping at 4K size fails and must not destroy the 2MB leaf.
        let inner = v2m(8).split(PageSize::Base4K).next().unwrap();
        assert!(pt.unmap(inner).is_err());
        assert!(pt.is_huge_mapped(v2m(8)));
    }
}
