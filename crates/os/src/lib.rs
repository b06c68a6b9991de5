//! OS memory-management simulator: physical memory with the paper's
//! fragmentation model, process address spaces, and the huge-page
//! promotion policies under comparison — Linux THP (synchronous +
//! khugepaged), HawkEye, and the PCC-driven engine of the paper.
//!
//! # Example
//!
//! ```
//! use hpage_os::{AddressSpace, PhysicalMemory};
//! use hpage_types::{PageSize, ProcessId, VirtAddr};
//!
//! let mut phys = PhysicalMemory::new(64 * 2 * 1024 * 1024);
//! let mut space = AddressSpace::new(ProcessId(0));
//! // Fault a page in, then promote its 2 MiB region.
//! let va = VirtAddr::new(0x4000_0000);
//! space.fault(va, false, &mut phys)?;
//! let region = va.vpn(PageSize::Huge2M);
//! let outcome = space.promote(region, true, 0, &mut phys)?;
//! assert_eq!(outcome.pages_collapsed, 1);
//! # Ok::<(), hpage_types::HpageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addrspace;
pub mod audit;
mod engine;
mod ledger;
mod physmem;
mod schedule_io;

pub use addrspace::{AddressSpace, AddressSpaceStats, FaultGrant, FaultOutcome, PromotionOutcome};
pub use audit::{AuditViolation, Auditor};
pub use engine::{
    BasePagesPolicy, HawkEyePolicy, HugePagePolicy, IdealHugePolicy, IntervalReport,
    LinuxThpPolicy, OsState, PccPolicy, PromotionBudget, PromotionRecord, PromotionSchedule,
    ReplayPolicy, ScheduledPromotion,
};
pub use ledger::{LedgerEntry, LedgerSummary, PromotionLedger, RegionWalks};
pub use physmem::{AllocGate, HugeAlloc, PhysMemStats, PhysicalMemory};
pub use schedule_io::{read_schedule, write_schedule};
