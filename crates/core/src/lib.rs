//! The **Promotion Candidate Cache (PCC)** — the core contribution of
//! *"Architectural Support for Optimizing Huge Page Selection Within the
//! OS"* (MICRO 2023).
//!
//! The PCC is a small, fully-associative hardware structure placed after
//! the last-level TLB. Whenever a memory access misses the whole TLB
//! hierarchy and triggers a hardware page-table walk, the walker checks the
//! *accessed* bit of the page-table entry covering the huge-page-aligned
//! region (the PMD entry for 2 MiB regions). If the bit was already set —
//! i.e. this is not a cold first touch — the walk is reported to the PCC,
//! which tracks the region's page-table-walk frequency in an 8-bit
//! saturating counter. Regions with the highest counters are the best huge
//! page promotion candidates ("HUBs": High-reUse TLB-sensitive data), and
//! the OS periodically reads a ranked dump of the PCC to decide what to
//! promote (Fig. 4 of the paper).
//!
//! # Example
//!
//! ```
//! use hpage_pcc::{Pcc, PccEvent};
//! use hpage_types::{PageSize, PccConfig, VirtAddr};
//!
//! let mut pcc = Pcc::new(PccConfig::paper_2m(), PageSize::Huge2M);
//! let hot = VirtAddr::new(0x8A31_4000_0000).vpn(PageSize::Huge2M);
//!
//! // First walk to a never-before-accessed region is filtered out
//! // (cold-miss filter driven by the page-table accessed bit).
//! assert_eq!(pcc.record_walk(hot, false), PccEvent::FilteredColdMiss);
//!
//! // Subsequent walks (accessed bit already set) are tracked.
//! pcc.record_walk(hot, true);
//! pcc.record_walk(hot, true);
//! let dump = pcc.dump();
//! assert_eq!(dump[0].region, hot);
//! assert_eq!(dump[0].frequency, 1); // inserted at 0, bumped once
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod cache;

pub use bank::{CoreCandidate, PccBank};
pub use cache::{Candidate, Pcc, PccEvent, PccStats, ReplacementPolicy};
