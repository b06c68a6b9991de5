//! Property tests for the `HPT2` trace codec: full-range round-trips and
//! truncation/corruption fuzz.
//!
//! These are the tests that would have caught both historical codec
//! bugs — the writer's overflowing delta subtraction (addresses more
//! than `i64::MAX` apart) and the reader's silent bit-dropping on
//! 10-byte varints. Addresses are drawn from the *whole* `u64` domain,
//! not plausible heap ranges.

use hpage_trace::{Hpt2Writer, MmapTrace, Workload};
use hpage_types::{MemoryAccess, PageSize, VirtAddr};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io;

fn to_accesses(raw: &[(u64, bool)]) -> Vec<MemoryAccess> {
    raw.iter()
        .map(|&(addr, is_write)| {
            if is_write {
                MemoryAccess::write(VirtAddr::new(addr))
            } else {
                MemoryAccess::read(VirtAddr::new(addr))
            }
        })
        .collect()
}

fn encode_hpt2(accesses: &[MemoryAccess], block_records: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Hpt2Writer::with_block_records(&mut buf, block_records).unwrap();
    w.write_all(accesses.iter().copied()).unwrap();
    w.finish().unwrap();
    buf
}

/// Writes `bytes` to a temp file and opens it as a mapped trace; the
/// file is removed at once (the mapping outlives the directory entry).
fn open_hpt2(tag: &str, case: u64, bytes: &[u8]) -> io::Result<MmapTrace> {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hpage-proptest-{tag}-{}-{case}.hpt2",
        std::process::id()
    ));
    std::fs::write(&p, bytes).unwrap();
    let opened = MmapTrace::open("prop", &p);
    std::fs::remove_file(&p).unwrap();
    opened
}

/// The touched 2 MiB pages of a trace, ascending.
fn touched_pages(accesses: &[MemoryAccess]) -> Vec<u64> {
    let huge = PageSize::Huge2M.bytes();
    let set: BTreeSet<u64> = accesses.iter().map(|a| a.addr.raw() / huge).collect();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hpt2_roundtrips_full_range_addresses(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..400),
        block_records in 1u32..70,
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode_hpt2(&accesses, block_records);
        let touched = touched_pages(&accesses);
        let mapped = open_hpt2("roundtrip", case, &bytes);
        // No `Region` can end past 2^64, so a trace touching the top
        // 2 MiB page is a typed error instead of a footprint.
        let huge = PageSize::Huge2M.bytes();
        if touched.last() == Some(&(u64::MAX / huge)) {
            prop_assert_eq!(mapped.unwrap_err().kind(), io::ErrorKind::InvalidData);
        } else {
            let mapped = mapped.unwrap();
            let replayed: Vec<MemoryAccess> = mapped.trace().collect();
            prop_assert_eq!(replayed, &accesses[..]);
            // The footprint covers exactly the touched 2 MiB pages.
            let covered: Vec<u64> = mapped
                .regions()
                .iter()
                .flat_map(|r| r.start().raw() / huge..r.end().raw() / huge)
                .collect();
            prop_assert_eq!(covered, touched);
        }
    }

    #[test]
    fn hpt2_truncation_is_detected(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        block_records in 1u32..33,
        cut_sel in any::<u64>(),
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode_hpt2(&accesses, block_records);
        let cut = (cut_sel % bytes.len() as u64) as usize;
        // The trailer cannot validate: open must refuse the file.
        prop_assert!(open_hpt2("trunc", case, &bytes[..cut]).is_err());
    }

    #[test]
    fn hpt2_corruption_is_detected(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        block_records in 1u32..33,
        at_sel in any::<u64>(),
        bit in 0u32..8,
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let mut bytes = encode_hpt2(&accesses, block_records);
        let at = (at_sel % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;

        // A flipped bit must never decode to *different* records: open
        // either errors or (for flips in don't-care positions, e.g.
        // growing the declared max block size) replays the exact
        // original trace.
        if let Ok(mapped) = open_hpt2("corrupt", case, &bytes) {
            let replayed: Vec<MemoryAccess> = mapped.trace().collect();
            prop_assert_eq!(replayed, &accesses[..]);
        }
    }
}
