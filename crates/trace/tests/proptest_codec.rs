//! Property tests for the `HPT2` trace codec: full-range round-trips and
//! truncation/corruption fuzz.
//!
//! These are the tests that would have caught both historical codec
//! bugs — the writer's overflowing delta subtraction (addresses more
//! than `i64::MAX` apart) and the reader's silent bit-dropping on
//! 10-byte varints. Addresses are drawn from the *whole* `u64` domain,
//! not plausible heap ranges.

use hpage_trace::{Hpt2Reader, Hpt2Writer, MmapTrace, RecordedWorkload, Workload};
use hpage_types::{MemoryAccess, VirtAddr};
use proptest::prelude::*;
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

fn decode_hpt2(bytes: &[u8]) -> io::Result<Vec<MemoryAccess>> {
    Hpt2Reader::new(bytes)?.collect()
}

/// Decodes until the first error, returning the records seen before it
/// and whether an error occurred.
fn decode_prefix<I: Iterator<Item = io::Result<MemoryAccess>>>(
    iter: I,
) -> (Vec<MemoryAccess>, bool) {
    let mut out = Vec::new();
    for item in iter {
        match item {
            Ok(a) => out.push(a),
            Err(_) => return (out, true),
        }
    }
    (out, false)
}

fn temp_trace(tag: &str, case: u64, bytes: &[u8]) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hpage-proptest-{tag}-{}-{case}.hpt2",
        std::process::id()
    ));
    std::fs::write(&p, bytes).unwrap();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn hpt2_roundtrips_full_range_addresses(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 0..400),
        block_records in 1u32..70,
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode_hpt2(&accesses, block_records);
        prop_assert_eq!(decode_hpt2(&bytes).unwrap(), &accesses[..]);

        // The mmap replay path must agree record-for-record and
        // footprint-for-footprint with the in-memory path.
        let path = temp_trace("roundtrip", case, &bytes);
        let mapped = MmapTrace::open("prop", &path).unwrap();
        let replayed: Vec<MemoryAccess> = mapped.trace().collect();
        prop_assert_eq!(replayed, &accesses[..]);
        let in_mem = RecordedWorkload::new("prop", accesses);
        prop_assert_eq!(mapped.regions(), in_mem.regions());
        std::fs::remove_file(&path).unwrap();
    }

    fn hpt2_truncation_is_detected(
        raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        block_records in 1u32..33,
        cut_sel in any::<u64>(),
        case in any::<u64>(),
    ) {
        let accesses = to_accesses(&raw);
        let bytes = encode_hpt2(&accesses, block_records);
        let cut = (cut_sel % bytes.len() as u64) as usize;
        let truncated = &bytes[..cut];

        // Streaming reader: must surface an error (the trailer cannot
        // validate), and any records yielded first must be a correct
        // prefix (block checksums gate every decoded record).
        if let Ok(r) = Hpt2Reader::new(truncated) {
            let (prefix, errored) = decode_prefix(r);
            prop_assert!(errored, "cut at {} of {} read cleanly", cut, bytes.len());
            prop_assert_eq!(&prefix[..], &accesses[..prefix.len()]);
        }

        // Mmap reader validates at open: must refuse the file.
        let path = temp_trace("trunc", case, truncated);
        prop_assert!(MmapTrace::open("prop", &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

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

        // A flipped bit must never decode to *different* records: the
        // reader either errors or (for flips in don't-care positions,
        // e.g. growing the declared max block size) yields the exact
        // original trace.
        if let Ok(r) = Hpt2Reader::new(bytes.as_slice()) {
            let (prefix, errored) = decode_prefix(r);
            if errored {
                prop_assert_eq!(&prefix[..], &accesses[..prefix.len()]);
            } else {
                prop_assert_eq!(&prefix[..], &accesses[..]);
            }
        }

        let path = temp_trace("corrupt", case, &bytes);
        if let Ok(mapped) = MmapTrace::open("prop", &path) {
            let replayed: Vec<MemoryAccess> = mapped.trace().collect();
            prop_assert_eq!(replayed, &accesses[..]);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
