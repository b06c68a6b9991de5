//! Replaying captured traces: a [`Workload`] backed by a recorded access
//! stream (e.g. an `HPT2` file written by [`Hpt2Writer`], or a trace
//! captured from a real binary with a Pin-like tool and converted).
//!
//! This closes the loop of the paper's methodology: their offline
//! simulation consumed Pin traces of real executions; ours can consume
//! any recorded stream through the same [`Workload`] interface the
//! synthetic generators implement.
//!
//! [`Hpt2Writer`]: crate::hpt2::Hpt2Writer

use crate::hpt2::Hpt2Reader;
use crate::workload::{TraceStream, Workload};
use hpage_types::{MemoryAccess, PageSize, Region, VirtAddr};
use std::io::{self, Read};

/// A workload materialised from a recorded access stream.
///
/// The constructor scans the accesses once to derive the footprint (the
/// set of touched 2 MiB regions, coalesced into contiguous ranges), which
/// the utility-curve budgets are computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedWorkload {
    name: String,
    accesses: Vec<MemoryAccess>,
    regions: Vec<Region>,
}

impl RecordedWorkload {
    /// Builds a workload from accesses already in memory.
    pub fn new(name: impl Into<String>, accesses: Vec<MemoryAccess>) -> Self {
        let regions = coalesce_regions(&accesses);
        RecordedWorkload {
            name: name.into(),
            accesses,
            regions,
        }
    }

    /// Reads an `HPT2` trace fully into memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors from the reader; any other
    /// magic is `InvalidData`.
    pub fn from_reader<R: Read>(name: impl Into<String>, reader: R) -> io::Result<Self> {
        let accesses = Hpt2Reader::new(reader)?.collect::<io::Result<_>>()?;
        Ok(RecordedWorkload::new(name, accesses))
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The recorded accesses, in order.
    pub fn accesses(&self) -> &[MemoryAccess] {
        &self.accesses
    }
}

/// Coalesces the touched 2 MiB regions of a trace into maximal
/// contiguous [`Region`]s.
fn coalesce_regions(accesses: &[MemoryAccess]) -> Vec<Region> {
    let mut indices: Vec<u64> = accesses
        .iter()
        .map(|a| a.addr.vpn(PageSize::Huge2M).index())
        .collect();
    indices.sort_unstable();
    indices.dedup();
    coalesce_sorted_indices(&indices)
}

/// Coalesces a sorted, deduplicated list of 2 MiB region indices into
/// maximal contiguous [`Region`]s. Shared by [`RecordedWorkload`] and
/// the `HPT2` trailer path so both derive byte-identical footprints
/// from the same touched set.
pub(crate) fn coalesce_sorted_indices(indices: &[u64]) -> Vec<Region> {
    let mut regions = Vec::new();
    let mut run: Option<(u64, u64)> = None; // (first, last)
    for &idx in indices {
        run = match run {
            Some((first, last)) if last + 1 == idx => Some((first, idx)),
            Some((first, last)) => {
                regions.push(span(first, last));
                Some((idx, idx))
            }
            None => Some((idx, idx)),
        };
    }
    if let Some((first, last)) = run {
        regions.push(span(first, last));
    }
    regions
}

fn span(first: u64, last: u64) -> Region {
    let bytes = PageSize::Huge2M.bytes();
    Region::new(VirtAddr::new(first * bytes), (last - first + 1) * bytes)
}

/// Single-threaded replay stream: every window is a direct subslice of
/// the recorded access array — zero copies, zero allocation.
struct SliceStream<'a> {
    accesses: &'a [MemoryAccess],
    pos: usize,
    win: usize,
}

impl TraceStream for SliceStream<'_> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        self.pos += self.win;
        self.win = max.min(self.accesses.len() - self.pos);
        &self.accesses[self.pos..self.pos + self.win]
    }

    fn window(&self) -> &[MemoryAccess] {
        &self.accesses[self.pos..self.pos + self.win]
    }
}

/// Multi-threaded replay stream: core `thread` of `stride` replays every
/// `stride`-th record (same partition as `thread_trace`'s
/// `skip(thread).step_by(stride)`), gathered window by window.
struct StridedStream<'a> {
    accesses: &'a [MemoryAccess],
    /// Index of the next record this core replays.
    next: usize,
    stride: usize,
    buf: Vec<MemoryAccess>,
}

impl TraceStream for StridedStream<'_> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        self.buf.clear();
        while self.buf.len() < max && self.next < self.accesses.len() {
            self.buf.push(self.accesses[self.next]);
            self.next += self.stride;
        }
        &self.buf
    }

    fn window(&self) -> &[MemoryAccess] {
        &self.buf
    }
}

impl Workload for RecordedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn thread_trace(
        &self,
        thread: u32,
        threads: u32,
    ) -> Box<dyn Iterator<Item = MemoryAccess> + Send + '_> {
        assert!(thread < threads, "bad thread index");
        // A recorded trace is a single thread's stream; when replayed
        // across several cores, it is partitioned round-robin by record
        // (each core replays an interleaved slice).
        Box::new(
            self.accesses
                .iter()
                .copied()
                .skip(thread as usize)
                .step_by(threads as usize),
        )
    }

    fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_> {
        assert!(thread < threads, "bad thread index");
        if threads == 1 {
            Box::new(SliceStream {
                accesses: &self.accesses,
                pos: 0,
                win: 0,
            })
        } else {
            Box::new(StridedStream {
                accesses: &self.accesses,
                next: thread as usize,
                stride: threads as usize,
                buf: Vec::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64) -> MemoryAccess {
        MemoryAccess::read(VirtAddr::new(addr))
    }

    #[test]
    fn footprint_coalesces_contiguous_regions() {
        let mb2 = PageSize::Huge2M.bytes();
        let w = RecordedWorkload::new(
            "t",
            vec![
                acc(0),            // region 0
                acc(mb2 + 5),      // region 1 (contiguous with 0)
                acc(10 * mb2 + 9), // region 10 (separate)
            ],
        );
        assert_eq!(w.regions().len(), 2);
        assert_eq!(w.footprint_bytes(), 3 * mb2);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn empty_trace_has_no_regions() {
        let w = RecordedWorkload::new("t", vec![]);
        assert!(w.is_empty());
        assert!(w.regions().is_empty());
        assert_eq!(w.footprint_bytes(), 0);
        assert_eq!(w.trace().count(), 0);
    }

    #[test]
    fn other_magic_is_rejected() {
        for bytes in [&b"HPT1\x00\x02"[..], b"NOPE", b""] {
            let err = RecordedWorkload::from_reader("t", bytes).unwrap_err();
            let want = if bytes.len() < 4 {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            };
            assert_eq!(err.kind(), want, "{bytes:?}");
        }
    }

    #[test]
    fn thread_partitions_cover_all_records() {
        let original: Vec<MemoryAccess> = (0..10u64).map(|i| acc(i * 0x1000)).collect();
        let w = RecordedWorkload::new("t", original.clone());
        let mut seen: Vec<MemoryAccess> = Vec::new();
        for t in 0..3 {
            seen.extend(w.thread_trace(t, 3));
        }
        seen.sort_by_key(|a| a.addr.raw());
        assert_eq!(seen, original);
    }

    #[test]
    fn stream_windows_match_thread_trace() {
        // Regression (satellite): `thread_stream` used to claim a
        // monomorphised slice fill while actually routing through the
        // per-element blanket iterator impl. Assert the real stream
        // implementations replay exactly the `thread_trace` partition.
        let original: Vec<MemoryAccess> = (0..1013u64).map(|i| acc(i * 0x340)).collect();
        let w = RecordedWorkload::new("t", original);
        for (thread, threads) in [(0, 1), (0, 3), (2, 3), (7, 8)] {
            let expect: Vec<MemoryAccess> = w.thread_trace(thread, threads).collect();
            let mut s = w.thread_stream(thread, threads);
            let mut got = Vec::new();
            loop {
                let win = s.next_window(64).to_vec();
                assert_eq!(win, s.window(), "window() must re-borrow");
                got.extend_from_slice(&win);
                if win.len() < 64 {
                    break;
                }
            }
            assert_eq!(got, expect, "thread {thread}/{threads}");
            assert!(
                s.next_window(64).is_empty(),
                "exhausted stream must stay empty"
            );
        }
    }

    #[test]
    fn single_thread_stream_resumes_after_window_reborrow() {
        let original: Vec<MemoryAccess> = (0..10u64).map(|i| acc(i * 0x1000)).collect();
        let w = RecordedWorkload::new("t", original.clone());
        let mut s = w.thread_stream(0, 1);
        assert_eq!(s.next_window(4), &original[0..4]);
        assert_eq!(s.window(), &original[0..4]);
        assert_eq!(s.next_window(4), &original[4..8]);
        assert_eq!(s.next_window(4), &original[8..10], "short final window");
        assert!(s.next_window(4).is_empty());
        assert!(s.window().is_empty());
    }

    #[test]
    fn recorded_trace_drives_the_tlb() {
        // Sanity: a recorded workload behaves like any other workload in
        // TLB terms.
        use hpage_tlb::{PageTable, TlbHierarchy, TlbOutcome};
        use hpage_types::{Pfn, TlbConfig};
        let w = RecordedWorkload::new(
            "t",
            (0..64u64).map(|i| acc(0x4000_0000 + i * 0x1000)).collect(),
        );
        let mut pt = PageTable::new();
        let mut tlb = TlbHierarchy::new(TlbConfig::tiny());
        let mut walks = 0;
        for a in w.trace() {
            if tlb.lookup(a.addr) == TlbOutcome::Miss {
                let vpn = a.addr.vpn(PageSize::Base4K);
                if pt.translate(a.addr).is_none() {
                    pt.map(vpn, Pfn::new(vpn.index(), PageSize::Base4K))
                        .unwrap();
                }
                let walk = pt.walk(a.addr).unwrap();
                tlb.fill(walk.translation);
                walks += 1;
            }
        }
        assert_eq!(walks, 64); // one cold miss per distinct page
    }
}
