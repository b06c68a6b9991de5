//! Foundation types shared by every `hpage` crate.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * [`VirtAddr`] / [`PhysAddr`] — 64-bit address newtypes,
//! * [`PageSize`] — the x86-64 page sizes (4 KiB, 2 MiB, 1 GiB),
//! * [`Vpn`] / [`Pfn`] — page-number newtypes,
//! * [`MemoryAccess`] — one record of the trace streams produced by
//!   `hpage-trace` and consumed by `hpage-tlb`,
//! * [`SystemConfig`] and friends — the evaluation parameters of the paper's
//!   Table 2 plus the timing-model constants used by `hpage-perf`.
//!
//! # Examples
//!
//! ```
//! use hpage_types::{PageSize, VirtAddr};
//!
//! let va = VirtAddr::new(0x8A31_49B7_123);
//! // The "2MB virtual address prefix" from the paper is the 2 MiB VPN.
//! let prefix = va.vpn(PageSize::Huge2M);
//! assert_eq!(prefix.base().raw(), 0x8A31_49B7_123 & !(2 * 1024 * 1024 - 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod config;
mod error;
mod hash;
mod seed;

pub use access::{AccessKind, CoreId, MemoryAccess, ProcessId, ThreadId};
pub use addr::{PageSize, Pfn, PhysAddr, Region, VirtAddr, Vpn};
pub use config::{
    NestedConfig, PccConfig, PccPlacement, PromotionPolicyKind, PwcConfig, SystemConfig,
    TimingConfig, TlbConfig, TlbLevelConfig, TranslationMode,
};
pub use error::{ConfigError, HpageError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use seed::derive_seed;

/// Number of 4 KiB base pages inside one 2 MiB huge page (x86-64: 512).
pub const BASE_PAGES_PER_2M: u64 = PageSize::Huge2M.bytes() / PageSize::Base4K.bytes();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_counts_match_x86() {
        assert_eq!(BASE_PAGES_PER_2M, 512);
    }
}
