//! OS-state invariant auditor.
//!
//! Under fault injection (and in chaos property tests) the simulator needs
//! a ground truth that the OS model has not silently corrupted itself. The
//! [`Auditor`] cross-checks, at interval boundaries:
//!
//! * **Frame accounting** — the frames [`PhysicalMemory`] says are in use
//!   equal the frames reachable from every address space's page table,
//!   plus a fixed *background* residue (the anonymous pages planted by
//!   [`PhysicalMemory::fragment`], which no space owns).
//! * **Huge-block accounting** — blocks marked huge in physical memory
//!   match the huge-mapped 2 MiB regions across all page tables (a 1 GiB
//!   leaf counts as its 512 constituent regions).
//! * **Per-block invariants** — no block is simultaneously huge and
//!   base-occupied, huge and unmovable, or over capacity.
//! * **TLB coherence** — after shootdowns, every translation still
//!   resident in a core's TLB hierarchy matches what that core's current
//!   page table would return. A stale entry means a shootdown was lost.
//! * **PCC coherence** — no per-core PCC still tracks a region that has
//!   been promoted (shootdowns are broadcast to all PCC copies, §3.3).
//! * **Counter consistency** — derived per-space counters agree with the
//!   page table they summarize (bloat never exceeds residency).
//!
//! Violations are returned as typed values, never panics: the auditor is
//! itself exercised under injected faults and must not take the simulation
//! down with it.
//!
//! [`PhysicalMemory`]: crate::PhysicalMemory
//! [`PhysicalMemory::fragment`]: crate::PhysicalMemory::fragment

use crate::engine::OsState;
use hpage_pcc::PccBank;
use hpage_tlb::TlbHierarchy;
use hpage_types::{CoreId, PageSize, Vpn, BASE_PAGES_PER_2M};
use std::fmt;

/// One violated invariant, with enough context to diagnose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// Used frames in physical memory do not equal space-mapped frames
    /// plus the background residue captured at the last
    /// [`Auditor::rebase`].
    FrameAccounting {
        /// Frames the page tables (plus background) account for.
        expected_used: u64,
        /// Frames physical memory reports as used.
        actual_used: u64,
    },
    /// `total_frames != free_frames + used_frames`.
    TotalBalance {
        /// Total frames in the machine.
        total: u64,
        /// Free frames reported.
        free: u64,
        /// Used frames reported.
        used: u64,
    },
    /// Blocks marked huge do not match huge-mapped regions.
    HugeAccounting {
        /// Blocks physical memory has marked huge.
        phys_blocks: u64,
        /// Huge-mapped 2 MiB regions across all address spaces.
        mapped_regions: u64,
    },
    /// A per-block occupancy invariant failed (see
    /// [`PhysicalMemory::check_block_invariants`]).
    ///
    /// [`PhysicalMemory::check_block_invariants`]: crate::PhysicalMemory::check_block_invariants
    BlockInvariant {
        /// Description of the broken block.
        what: String,
    },
    /// A TLB still holds a translation the page table no longer backs —
    /// a lost shootdown.
    StaleTlbEntry {
        /// The core whose hierarchy holds the stale entry.
        core: u32,
        /// Description of the stale translation.
        what: String,
    },
    /// A per-core PCC still tracks a region that is huge-mapped, so the
    /// promotion shootdown was not broadcast to it.
    StalePccCandidate {
        /// The core whose PCC holds the stale candidate.
        core: u32,
        /// The stale candidate region.
        region: Vpn,
    },
    /// A core has no process placement, so its TLB/PCC cannot be audited.
    UnplacedCore {
        /// The unplaced core.
        core: u32,
    },
    /// A derived counter disagrees with the structure it summarizes.
    CounterMismatch {
        /// Description of the disagreement.
        what: String,
    },
    /// The promotion ledger disagrees with the page tables: an entry it
    /// considers open is not huge-mapped (or vice versa), so a
    /// promotion or demotion was not recorded.
    LedgerMismatch {
        /// Description of the disagreement.
        what: String,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::FrameAccounting {
                expected_used,
                actual_used,
            } => write!(
                f,
                "frame accounting: page tables account for {expected_used} used frames, \
                 physical memory reports {actual_used}"
            ),
            AuditViolation::TotalBalance { total, free, used } => write!(
                f,
                "frame balance: total {total} != free {free} + used {used}"
            ),
            AuditViolation::HugeAccounting {
                phys_blocks,
                mapped_regions,
            } => write!(
                f,
                "huge accounting: {phys_blocks} blocks marked huge but {mapped_regions} \
                 huge-mapped regions"
            ),
            AuditViolation::BlockInvariant { what } => write!(f, "block invariant: {what}"),
            AuditViolation::StaleTlbEntry { core, what } => {
                write!(f, "stale TLB entry on core {core}: {what}")
            }
            AuditViolation::StalePccCandidate { core, region } => {
                write!(f, "stale PCC candidate on core {core}: {region}")
            }
            AuditViolation::UnplacedCore { core } => {
                write!(f, "core {core} has no process placement")
            }
            AuditViolation::CounterMismatch { what } => write!(f, "counter mismatch: {what}"),
            AuditViolation::LedgerMismatch { what } => write!(f, "ledger mismatch: {what}"),
        }
    }
}

/// Cross-checks [`OsState`] (and optionally TLBs and the PCC bank)
/// against the invariants above.
///
/// The auditor is stateful only in one respect: at construction (and on
/// [`rebase`](Auditor::rebase)) it records how many used base frames are
/// *not* reachable from any page table — the anonymous background pages
/// planted by [`fragment`](crate::PhysicalMemory::fragment). A
/// fragmentation shock mid-run changes that residue, so the simulator
/// rebases the auditor whenever it applies one.
#[derive(Debug, Clone)]
pub struct Auditor {
    background_base_frames: u64,
}

impl Auditor {
    /// Creates an auditor, capturing the current background residue as
    /// the baseline. Call on a consistent state (e.g. right after
    /// [`fragment`](crate::PhysicalMemory::fragment), before any faults).
    pub fn new(os: &OsState) -> Self {
        let mut auditor = Auditor {
            background_base_frames: 0,
        };
        auditor.rebase(os);
        auditor
    }

    /// Re-captures the background residue. Call after any event that
    /// legitimately changes frames outside page-table control (a
    /// fragmentation shock).
    pub fn rebase(&mut self, os: &OsState) {
        self.background_base_frames =
            Self::phys_base_used(os).saturating_sub(Self::space_base_frames(os));
    }

    /// The background residue captured at the last rebase.
    pub fn background_base_frames(&self) -> u64 {
        self.background_base_frames
    }

    /// Base (non-huge) frames physical memory reports as used.
    fn phys_base_used(os: &OsState) -> u64 {
        os.phys
            .used_frames()
            .saturating_sub(BASE_PAGES_PER_2M * os.phys.huge_blocks_in_use())
    }

    /// Base frames reachable from some page table (huge mappings
    /// excluded).
    fn space_base_frames(os: &OsState) -> u64 {
        os.spaces
            .iter()
            .map(|space| {
                let pt = space.page_table();
                pt.mapped_2m_regions()
                    .into_iter()
                    .filter(|&region| !pt.is_huge_mapped(region))
                    .map(|region| pt.mapped_base_pages_in(region))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Huge-mapped 2 MiB regions across all page tables. A 1 GiB leaf
    /// contributes its 512 constituent regions, matching the 512 physical
    /// blocks its giant frame occupies.
    fn space_huge_regions(os: &OsState) -> u64 {
        os.spaces
            .iter()
            .map(|space| {
                let pt = space.page_table();
                pt.mapped_2m_regions()
                    .into_iter()
                    .filter(|&region| pt.is_huge_mapped(region))
                    .count() as u64
            })
            .sum()
    }

    /// Checks physical-memory and address-space invariants. Returns every
    /// violation found (empty when the state is consistent).
    pub fn check(&self, os: &OsState) -> Vec<AuditViolation> {
        let mut violations = Vec::new();

        for what in os.phys.check_block_invariants() {
            violations.push(AuditViolation::BlockInvariant { what });
        }

        let total = os.phys.total_frames();
        let free = os.phys.free_frames();
        let used = os.phys.used_frames();
        if total != free + used {
            violations.push(AuditViolation::TotalBalance { total, free, used });
        }

        let phys_blocks = os.phys.huge_blocks_in_use();
        let mapped_regions = Self::space_huge_regions(os);
        if phys_blocks != mapped_regions {
            violations.push(AuditViolation::HugeAccounting {
                phys_blocks,
                mapped_regions,
            });
        }

        let expected_used = Self::space_base_frames(os)
            .saturating_add(self.background_base_frames)
            .saturating_add(BASE_PAGES_PER_2M * phys_blocks);
        if expected_used != used {
            violations.push(AuditViolation::FrameAccounting {
                expected_used,
                actual_used: used,
            });
        }

        for space in &os.spaces {
            let resident = space.resident_bytes();
            let bloat = space.bloat_bytes();
            if bloat > resident {
                violations.push(AuditViolation::CounterMismatch {
                    what: format!(
                        "{}: bloat {bloat} B exceeds resident {resident} B",
                        space.pid()
                    ),
                });
            }
        }

        violations
    }

    /// Checks every translation resident in each core's TLB hierarchy
    /// against the page table of the process that core runs. The `i`th
    /// hierarchy `tlbs` yields must be core `i`'s.
    pub fn check_tlbs<'t>(
        &self,
        os: &OsState,
        tlbs: impl IntoIterator<Item = &'t TlbHierarchy>,
    ) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        for (core, tlb) in tlbs.into_iter().enumerate() {
            let core_id = CoreId(core as u32);
            let Ok(process) = os.process_of(core_id) else {
                violations.push(AuditViolation::UnplacedCore { core: core as u32 });
                continue;
            };
            let pt = os.spaces[process].page_table();
            for cached in tlb.resident_translations() {
                let live = pt.translate(cached.vpn.base());
                if live != Some(cached) {
                    violations.push(AuditViolation::StaleTlbEntry {
                        core: core as u32,
                        what: match live {
                            Some(now) => format!(
                                "cached {} -> {} but page table maps {} -> {}",
                                cached.vpn, cached.pfn, now.vpn, now.pfn
                            ),
                            None => {
                                format!(
                                    "cached {} -> {} but page is unmapped",
                                    cached.vpn, cached.pfn
                                )
                            }
                        },
                    });
                }
            }
        }
        violations
    }

    /// Checks that no per-core PCC still tracks a huge-mapped region —
    /// promotion shootdowns are broadcast to every PCC copy (§3.3), so a
    /// surviving candidate means the broadcast was lost.
    pub fn check_pcc(&self, os: &OsState, bank: &PccBank) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        for core in 0..bank.cores() {
            let core_id = CoreId(core);
            let Ok(process) = os.process_of(core_id) else {
                violations.push(AuditViolation::UnplacedCore { core });
                continue;
            };
            let pt = os.spaces[process].page_table();
            for candidate in bank.pcc(core_id).iter() {
                if candidate.region.size() != PageSize::Huge2M {
                    continue; // 1 GiB-granularity PCCs audited via 2 MiB sub-regions.
                }
                if pt.is_huge_mapped(candidate.region) {
                    violations.push(AuditViolation::StalePccCandidate {
                        core,
                        region: candidate.region,
                    });
                }
            }
        }
        violations
    }

    /// Cross-checks the promotion ledger against the page tables: every
    /// entry the ledger considers open must be huge-mapped in its
    /// process's space. (The converse — huge-mapped regions missing
    /// from the ledger — is legitimate for fault-time THP promotions
    /// the interval engine never saw, so it is not flagged.)
    pub fn check_ledger(
        &self,
        os: &OsState,
        ledger: &crate::ledger::PromotionLedger,
    ) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        for e in ledger.open_entries() {
            let pid = e.process.0 as usize;
            let Some(space) = os.spaces.get(pid) else {
                violations.push(AuditViolation::LedgerMismatch {
                    what: format!("open entry for unknown process {}", e.process.0),
                });
                continue;
            };
            if !space.page_table().is_huge_mapped(e.region) {
                violations.push(AuditViolation::LedgerMismatch {
                    what: format!(
                        "open entry {} of process {} is not huge-mapped (missed demotion?)",
                        e.region, e.process.0
                    ),
                });
            }
        }
        violations
    }

    /// Runs every check: [`check`](Self::check), plus
    /// [`check_tlbs`](Self::check_tlbs) and
    /// [`check_pcc`](Self::check_pcc) when the caller has those
    /// structures.
    pub fn run<'t>(
        &self,
        os: &OsState,
        tlbs: impl IntoIterator<Item = &'t TlbHierarchy>,
        bank: Option<&PccBank>,
    ) -> Vec<AuditViolation> {
        let mut violations = self.check(os);
        violations.extend(self.check_tlbs(os, tlbs));
        if let Some(bank) = bank {
            violations.extend(self.check_pcc(os, bank));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysicalMemory;
    use hpage_types::{PccConfig, ProcessId, TlbConfig, VirtAddr};

    const MB2: u64 = PageSize::Huge2M.bytes();

    fn os_with_pages(pages: u64) -> OsState {
        let phys = PhysicalMemory::new(64 * MB2);
        let mut os = OsState::new(phys, 1, vec![0]).unwrap();
        for i in 0..pages {
            os.spaces[0]
                .fault(VirtAddr::new(i * 4096), false, &mut os.phys)
                .unwrap();
        }
        os
    }

    #[test]
    fn clean_state_has_no_violations() {
        let os = os_with_pages(100);
        let auditor = Auditor::new(&os);
        assert!(auditor.check(&os).is_empty());
    }

    #[test]
    fn fragmented_background_is_baselined() {
        let mut phys = PhysicalMemory::new(64 * MB2);
        phys.fragment(50, 7);
        let mut os = OsState::new(phys, 1, vec![0]).unwrap();
        os.spaces[0]
            .fault(VirtAddr::new(0), false, &mut os.phys)
            .unwrap();
        let auditor = Auditor::new(&os);
        assert!(auditor.background_base_frames() > 0);
        assert!(auditor.check(&os).is_empty());
    }

    #[test]
    fn promotion_keeps_accounting_consistent() {
        let mut os = os_with_pages(512);
        let auditor = Auditor::new(&os);
        let region = Vpn::new(0, PageSize::Huge2M);
        os.spaces[0].promote(region, true, 0, &mut os.phys).unwrap();
        assert_eq!(auditor.check(&os), Vec::new());
        os.spaces[0].demote(region, &mut os.phys).unwrap();
        assert_eq!(auditor.check(&os), Vec::new());
    }

    #[test]
    fn leaked_huge_block_is_reported() {
        let mut os = os_with_pages(8);
        let auditor = Auditor::new(&os);
        // A huge block allocated but never mapped anywhere. Frame-level
        // accounting still balances (the 512 frames are genuinely used);
        // the mapping-level cross-check is what catches the leak.
        os.phys.alloc_huge(true).unwrap();
        let violations = auditor.check(&os);
        assert!(violations
            .iter()
            .any(|v| matches!(v, AuditViolation::HugeAccounting { .. })));
    }

    #[test]
    fn leaked_base_frame_is_reported() {
        let mut os = os_with_pages(8);
        let auditor = Auditor::new(&os);
        os.phys.alloc_base().unwrap();
        let violations = auditor.check(&os);
        assert!(violations
            .iter()
            .any(|v| matches!(v, AuditViolation::FrameAccounting { .. })));
        // Display is informative.
        assert!(violations[0].to_string().contains("frame accounting"));
    }

    #[test]
    fn rebase_absorbs_legitimate_background_change() {
        let mut os = os_with_pages(8);
        let mut auditor = Auditor::new(&os);
        os.phys.fragment(30, 11);
        assert!(!auditor.check(&os).is_empty());
        auditor.rebase(&os);
        assert!(auditor.check(&os).is_empty());
    }

    #[test]
    fn stale_tlb_entry_is_reported() {
        let mut os = os_with_pages(4);
        let auditor = Auditor::new(&os);
        let mut tlb = TlbHierarchy::new(TlbConfig::tiny());
        let t = os.spaces[0]
            .page_table()
            .translate(VirtAddr::new(0))
            .unwrap();
        tlb.fill(t);
        assert!(auditor.check_tlbs(&os, &[tlb.clone()]).is_empty());
        // Unmap the page behind the TLB's back: entry goes stale.
        let pfn = os.spaces[0].page_table_mut().unmap(t.vpn).unwrap();
        os.phys.free_base(pfn).unwrap();
        let violations = auditor.check_tlbs(&os, &[tlb]);
        assert!(violations
            .iter()
            .any(|v| matches!(v, AuditViolation::StaleTlbEntry { core: 0, .. })));
    }

    #[test]
    fn stale_pcc_candidate_is_reported() {
        let mut os = os_with_pages(512);
        let auditor = Auditor::new(&os);
        let mut bank = PccBank::new(1, PccConfig::paper_2m(), PageSize::Huge2M);
        let region = Vpn::new(0, PageSize::Huge2M);
        bank.record_walk(CoreId(0), region, true);
        bank.record_walk(CoreId(0), region, true);
        assert!(auditor.check_pcc(&os, &bank).is_empty());
        // Promote without broadcasting the shootdown to the PCC.
        os.spaces[0].promote(region, true, 0, &mut os.phys).unwrap();
        let violations = auditor.check_pcc(&os, &bank);
        assert_eq!(
            violations,
            vec![AuditViolation::StalePccCandidate { core: 0, region }]
        );
        // After the broadcast the PCC is clean again.
        bank.invalidate_all(region);
        assert!(auditor.check_pcc(&os, &bank).is_empty());
    }

    #[test]
    fn unplaced_core_is_reported() {
        let os = os_with_pages(1);
        let auditor = Auditor::new(&os);
        let tlbs = vec![
            TlbHierarchy::new(TlbConfig::tiny()),
            TlbHierarchy::new(TlbConfig::tiny()),
        ];
        let violations = auditor.check_tlbs(&os, &tlbs);
        assert_eq!(violations, vec![AuditViolation::UnplacedCore { core: 1 }]);
    }

    #[test]
    fn ledger_coherence_is_checked() {
        let mut os = os_with_pages(512);
        let auditor = Auditor::new(&os);
        let region = Vpn::new(0, PageSize::Huge2M);
        let mut ledger = crate::PromotionLedger::new();
        ledger.record_promotion(ProcessId(0), region, 0, 10);
        // The ledger thinks the region is huge, but no promotion happened.
        let violations = auditor.check_ledger(&os, &ledger);
        assert!(violations
            .iter()
            .any(|v| matches!(v, AuditViolation::LedgerMismatch { .. })));
        os.spaces[0].promote(region, true, 0, &mut os.phys).unwrap();
        assert!(auditor.check_ledger(&os, &ledger).is_empty());
        // Demotion recorded on both sides: clean again.
        os.spaces[0].demote(region, &mut os.phys).unwrap();
        ledger.record_demotion(ProcessId(0), region);
        assert!(auditor.check_ledger(&os, &ledger).is_empty());
        // An entry for a process the OS does not have.
        ledger.record_promotion(ProcessId(9), region, 0, 1);
        assert!(!auditor.check_ledger(&os, &ledger).is_empty());
    }

    #[test]
    fn run_aggregates_all_checks() {
        let mut os = os_with_pages(16);
        let auditor = Auditor::new(&os);
        let tlbs = vec![TlbHierarchy::new(TlbConfig::tiny())];
        let bank = PccBank::new(1, PccConfig::paper_2m(), PageSize::Huge2M);
        assert!(auditor.run(&os, &tlbs, Some(&bank)).is_empty());
        os.phys.alloc_base().unwrap();
        assert!(!auditor.run(&os, &tlbs, None).is_empty());
    }
}
