//! `HPT2`: the blocked, seekable, integrity-checked trace format, and
//! its mmap-backed zero-copy replay path.
//!
//! Each record is a header byte plus the zigzag varint delta of its
//! address from the previous record's. A single delta chain over the
//! whole file could be decoded only from the start, so a reader could
//! neither seek, shard, nor detect corruption short of decoding
//! garbage. `HPT2` cuts the chain into blocks:
//!
//! ```text
//! "HPT2"  u32 block_records                  // file header
//! repeat block {
//!     u32 payload_bytes   (> 0)
//!     u32 n_records       (1..=block_records)
//!     u64 fnv1a64(payload)
//!     payload: n_records × { header byte; zigzag varint addr delta }
//!              // delta chain restarts at 0 each block, so the first
//!              // record's delta IS its absolute address — the
//!              // restart point that makes blocks self-contained
//! }
//! u32 0  u32 0                               // terminator
//! u64 total_records                          // trailer
//! varint region_count
//! region_count × varint                      // touched 2MiB region
//!                                            // indices, delta-encoded
//! u64 fnv1a64(trailer bytes above)
//! "2TPH"                                     // end magic
//! ```
//!
//! All fixed-width integers are little-endian. The trailer's region
//! list is the trace's touched-2MiB-page set in ascending order; it
//! lets a replayer announce the workload footprint without a decode
//! pass, and [`MmapTrace::open`] cross-checks it against the records so
//! a corrupted trailer cannot smuggle a wrong footprint past the
//! checksums.
//!
//! [`MmapTrace`] maps the file and validates everything once at open —
//! checksums, strict per-block decode, trailer totals — so its replay
//! sources can decode block-by-block with no error paths in the hot
//! loop, each block straight into the buffer windows are cut from.

use crate::mmap::{Advice, Mmap};
use crate::workload::{TraceSource, Workload};
use hpage_types::{AccessKind, MemoryAccess, PageSize, Region, VirtAddr};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic of the blocked format.
const HPT2_MAGIC: &[u8; 4] = b"HPT2";
/// End-of-file magic (the header magic reversed).
const END_MAGIC: &[u8; 4] = b"2TPH";

/// Default records per block: long enough to amortise block headers to
/// ~0.001 bytes/record, short enough that a seek touches at most a few
/// hundred KiB of payload.
pub const DEFAULT_BLOCK_RECORDS: u32 = 1 << 14;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 varint; `None` on a clean EOF before its first
/// byte.
fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && first => return Ok(None),
            Err(e) => return Err(e),
        }
        first = false;
        if shift >= 64 {
            return Err(invalid("varint overflows u64"));
        }
        // The 10th byte (shift == 63) has room for exactly one payload
        // bit. A continuation bit, or any of payload bits 1..7 set,
        // encodes a value outside u64 — reject it instead of silently
        // shifting those bits into oblivion and decoding a wrong
        // address.
        if shift == 63 && byte[0] > 0x01 {
            return Err(invalid("varint overflows u64"));
        }
        v |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

/// Tracks the set of touched 2 MiB regions with a last-hit cache, so
/// the common run-of-accesses-to-one-region case costs one compare.
#[derive(Debug, Default)]
struct RegionTracker {
    last: Option<u64>,
    set: BTreeSet<u64>,
}

impl RegionTracker {
    fn observe(&mut self, addr: VirtAddr) {
        let idx = addr.vpn(PageSize::Huge2M).index();
        if self.last == Some(idx) {
            return;
        }
        self.last = Some(idx);
        self.set.insert(idx);
    }

    fn into_sorted(self) -> Vec<u64> {
        self.set.into_iter().collect()
    }
}

/// Streams accesses into `writer` in `HPT2` format.
#[derive(Debug)]
pub struct Hpt2Writer<W: Write> {
    writer: W,
    block_records: u32,
    /// Encoded payload of the block under construction.
    block: Vec<u8>,
    block_n: u32,
    prev_addr: u64,
    records: u64,
    regions: RegionTracker,
}

impl<W: Write> Hpt2Writer<W> {
    /// Creates a writer with the default block size and emits the file
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(writer: W) -> io::Result<Self> {
        Hpt2Writer::with_block_records(writer, DEFAULT_BLOCK_RECORDS)
    }

    /// Creates a writer with `block_records` records per block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `block_records` is 0.
    pub fn with_block_records(mut writer: W, block_records: u32) -> io::Result<Self> {
        assert!(block_records > 0, "HPT2 block_records must be positive");
        writer.write_all(HPT2_MAGIC)?;
        writer.write_all(&block_records.to_le_bytes())?;
        Ok(Hpt2Writer {
            writer,
            block_records,
            block: Vec::new(),
            block_n: 0,
            prev_addr: 0,
            records: 0,
            regions: RegionTracker::default(),
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, access: &MemoryAccess) -> io::Result<()> {
        let header = u8::from(access.kind == AccessKind::Write);
        self.block.push(header);
        // Wrapping subtraction in u64, then reinterpret: the reader
        // undoes it with `wrapping_add` in the same ring, so round-trip
        // is exact for every address pair — including ones more than
        // i64::MAX apart, where a checked `as i64` subtraction
        // overflows (debug-build panic).
        let delta = access.addr.raw().wrapping_sub(self.prev_addr) as i64;
        write_varint(&mut self.block, zigzag(delta))?;
        self.prev_addr = access.addr.raw();
        self.regions.observe(access.addr);
        self.block_n += 1;
        self.records += 1;
        if self.block_n == self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every access of an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<I: IntoIterator<Item = MemoryAccess>>(&mut self, trace: I) -> io::Result<()> {
        for a in trace {
            self.write(&a)?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_n == 0 {
            return Ok(());
        }
        let len = u32::try_from(self.block.len()).map_err(|_| invalid("HPT2 block too large"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&self.block_n.to_le_bytes())?;
        self.writer.write_all(&fnv1a64(&self.block).to_le_bytes())?;
        self.writer.write_all(&self.block)?;
        self.block.clear();
        self.block_n = 0;
        // Restart point: the next block's delta chain starts from 0, so
        // its first record encodes an absolute address.
        self.prev_addr = 0;
        Ok(())
    }

    /// Flushes the final block, writes the terminator and trailer, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_block()?;
        self.writer.write_all(&0u32.to_le_bytes())?;
        self.writer.write_all(&0u32.to_le_bytes())?;
        let mut trailer = Vec::new();
        trailer.extend_from_slice(&self.records.to_le_bytes());
        let indices = std::mem::take(&mut self.regions).into_sorted();
        write_varint(&mut trailer, indices.len() as u64)?;
        let mut prev = 0u64;
        for (i, &idx) in indices.iter().enumerate() {
            let delta = if i == 0 { idx } else { idx - prev };
            write_varint(&mut trailer, delta)?;
            prev = idx;
        }
        self.writer.write_all(&trailer)?;
        self.writer.write_all(&fnv1a64(&trailer).to_le_bytes())?;
        self.writer.write_all(END_MAGIC)?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Strictly decodes one block payload, observing the regions of its
/// records. Errors if the payload and record count disagree
/// in any way (short payload, trailing bytes, non-canonical varint).
fn decode_block_strict(
    payload: &[u8],
    n_records: u32,
    regions: &mut RegionTracker,
) -> io::Result<()> {
    let mut slice = payload;
    let mut prev_addr = 0u64;
    for _ in 0..n_records {
        let mut header = [0u8; 1];
        slice
            .read_exact(&mut header)
            .map_err(|_| invalid("HPT2 block shorter than its record count"))?;
        if header[0] & !1 != 0 {
            return Err(invalid("HPT2 record header has reserved bits set"));
        }
        let delta = match read_varint(&mut slice)? {
            Some(v) => unzigzag(v),
            None => return Err(invalid("HPT2 block shorter than its record count")),
        };
        let addr = (prev_addr as i64).wrapping_add(delta) as u64;
        prev_addr = addr;
        regions.observe(VirtAddr::new(addr));
    }
    if !slice.is_empty() {
        return Err(invalid("HPT2 block has bytes after its last record"));
    }
    Ok(())
}

/// Fast-path decode of an already-validated block payload (no error
/// paths: [`MmapTrace::open`] proved the payload well-formed).
///
/// Appends records `skip, skip + stride, …` of the block to `out` —
/// every record when `skip == 0, stride == 1`, one core's round-robin
/// share otherwise. The delta chain still decodes every record; only the kept
/// ones are stored. Returns how many records the next block must skip
/// to continue the partition.
fn decode_block_trusted(
    payload: &[u8],
    n_records: u32,
    skip: usize,
    stride: usize,
    out: &mut Vec<MemoryAccess>,
) -> usize {
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    let mut keep = skip;
    for i in 0..n_records as usize {
        let header = payload[pos];
        pos += 1;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = payload[pos];
            pos += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let addr = (prev_addr as i64).wrapping_add(unzigzag(v)) as u64;
        prev_addr = addr;
        if i == keep {
            keep += stride;
            out.push(if header & 1 == 1 {
                MemoryAccess::write(VirtAddr::new(addr))
            } else {
                MemoryAccess::read(VirtAddr::new(addr))
            });
        }
    }
    debug_assert_eq!(pos, payload.len(), "validated block decoded short");
    keep - n_records as usize
}

/// Index of the last 2 MiB page of the 64-bit address space.
const TOP_HUGE_PAGE: u64 = u64::MAX / (2 << 20);

/// Coalesces a sorted, deduplicated list of 2 MiB region indices into
/// maximal contiguous [`Region`]s: the footprint [`MmapTrace`] derives
/// from the trailer's touched-region set.
fn coalesce_sorted_indices(indices: &[u64]) -> Vec<Region> {
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

/// Offsets of one validated block inside the mapping.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    payload_start: usize,
    payload_len: u32,
    n_records: u32,
}

/// An `HPT2` trace replayed straight out of a memory-mapped file.
///
/// [`open`](Self::open) performs one full validation pass (checksums,
/// strict decode, trailer cross-checks), after which replay streams
/// decode block-by-block from the mapping with no error handling in the
/// hot path. Memory held is one mapping (paged in lazily by the kernel)
/// plus one decoded block per stream — a multi-gigabyte trace replays
/// without a load phase or a decoded in-memory copy.
#[derive(Debug)]
pub struct MmapTrace {
    name: String,
    map: Mmap,
    blocks: Vec<BlockMeta>,
    total_records: u64,
    regions: Vec<Region>,
}

impl MmapTrace {
    /// Maps and fully validates the `HPT2` trace at `path`.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad magic, checksum mismatch, block
    /// counts disagreeing with payloads, truncation, trailing bytes,
    /// trailer totals or regions disagreeing with the records — is
    /// `InvalidData`/`UnexpectedEof`. A path that is not a regular file
    /// (a pipe, a directory) is `InvalidInput`: it cannot be mapped. OS
    /// errors pass through.
    pub fn open(name: impl Into<String>, path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        if !file.metadata()?.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "HPT2 replay needs a regular file (it is memory-mapped)",
            ));
        }
        let map = Mmap::map_file(&file)?;
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        let bytes = map.as_slice();
        if bytes.len() < 8 || &bytes[..4] != HPT2_MAGIC {
            return Err(invalid("not an HPT2 trace file"));
        }
        let block_records = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if block_records == 0 {
            return Err(invalid("HPT2 header has zero block size"));
        }

        let truncated = || io::Error::new(io::ErrorKind::UnexpectedEof, "truncated HPT2 trace");
        let mut pos = 8usize;
        let mut blocks = Vec::new();
        let mut total = 0u64;
        let mut regions = RegionTracker::default();
        loop {
            let header = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
            let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap());
            let n_records = u32::from_le_bytes(header[4..].try_into().unwrap());
            pos += 8;
            if payload_len == 0 && n_records == 0 {
                break;
            }
            if payload_len == 0 || n_records == 0 || n_records > block_records {
                return Err(invalid("HPT2 block header out of range"));
            }
            let checksum_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
            let checksum = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
            pos += 8;
            let payload = bytes
                .get(pos..pos + payload_len as usize)
                .ok_or_else(truncated)?;
            if fnv1a64(payload) != checksum {
                return Err(invalid("HPT2 block checksum mismatch"));
            }
            decode_block_strict(payload, n_records, &mut regions)?;
            blocks.push(BlockMeta {
                payload_start: pos,
                payload_len,
                n_records,
            });
            total += u64::from(n_records);
            pos += payload_len as usize;
        }

        // Trailer.
        let trailer_start = pos;
        let total_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
        let stored_total = u64::from_le_bytes(total_bytes.try_into().unwrap());
        pos += 8;
        let mut cursor = &bytes[pos.min(bytes.len())..];
        let before = cursor.len();
        let count = read_varint(&mut cursor)?.ok_or_else(truncated)?;
        let mut indices = Vec::new();
        let mut prev = 0u64;
        for i in 0..count {
            let delta = read_varint(&mut cursor)?.ok_or_else(truncated)?;
            if i > 0 && delta == 0 {
                return Err(invalid("HPT2 trailer regions not strictly increasing"));
            }
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| invalid("HPT2 trailer region index overflow"))?;
            indices.push(prev);
        }
        pos += before - cursor.len();
        let trailer_payload = &bytes[trailer_start..pos];
        let checksum_bytes = bytes.get(pos..pos + 8).ok_or_else(truncated)?;
        let checksum = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
        pos += 8;
        if fnv1a64(trailer_payload) != checksum {
            return Err(invalid("HPT2 trailer checksum mismatch"));
        }
        let end = bytes.get(pos..pos + 4).ok_or_else(truncated)?;
        if end != END_MAGIC {
            return Err(invalid("HPT2 end magic mismatch"));
        }
        pos += 4;
        if pos != bytes.len() {
            return Err(invalid("HPT2 trace has trailing bytes"));
        }
        if stored_total != total {
            return Err(invalid("HPT2 trailer record count mismatch"));
        }
        let observed = regions.into_sorted();
        if observed != indices {
            return Err(invalid("HPT2 trailer region set disagrees with records"));
        }
        // A `Region` ends at an exclusive u64 address, so the last 2 MiB
        // page of the address space has no footprint to report.
        if observed.last() == Some(&TOP_HUGE_PAGE) {
            return Err(invalid(
                "HPT2 trace touches the top 2 MiB page of the address space",
            ));
        }

        Ok(MmapTrace {
            name: name.into(),
            map,
            blocks,
            total_records: total,
            regions: coalesce_sorted_indices(&observed),
        })
    }

    /// Number of recorded accesses.
    pub fn records(&self) -> u64 {
        self.total_records
    }

    /// Number of on-disk blocks (each independently decodable from its
    /// restart point).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn payload(&self, block: usize) -> &[u8] {
        let meta = self.blocks[block];
        &self.map.as_slice()[meta.payload_start..meta.payload_start + meta.payload_len as usize]
    }
}

impl Workload for MmapTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// A recorded trace is one thread's stream; replayed across
    /// `threads` cores it is partitioned round-robin by record, so core
    /// `thread` replays records `thread, thread + threads, …`.
    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        assert!(thread < threads, "bad thread index");
        Box::new(Hpt2Source {
            trace: self,
            next_block: 0,
            stride: threads as usize,
            skip: thread as usize,
        })
    }
}

/// Replay source over an [`MmapTrace`]: each refill decodes one block,
/// keeping only this core's records (all of them single-threaded,
/// every `stride`-th when the trace is partitioned over cores).
struct Hpt2Source<'a> {
    trace: &'a MmapTrace,
    next_block: usize,
    stride: usize,
    /// Records the next block skips before this core's first pick.
    skip: usize,
}

impl TraceSource for Hpt2Source<'_> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        if let Some(&meta) = self.trace.blocks.get(self.next_block) {
            self.skip = decode_block_trusted(
                self.trace.payload(self.next_block),
                meta.n_records,
                self.skip,
                self.stride,
                out,
            );
            self.next_block += 1;
        }
        self.next_block < self.trace.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TraceStream;

    fn acc(addr: u64) -> MemoryAccess {
        MemoryAccess::read(VirtAddr::new(addr))
    }

    fn sample_trace(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| {
                let addr = 0x4000_0000 + (i.wrapping_mul(0x9E37_79B9) % 0x200_0000);
                if i % 3 == 0 {
                    MemoryAccess::write(VirtAddr::new(addr))
                } else {
                    acc(addr)
                }
            })
            .collect()
    }

    fn encode(accesses: &[MemoryAccess], block_records: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Hpt2Writer::with_block_records(&mut buf, block_records).unwrap();
        w.write_all(accesses.iter().copied()).unwrap();
        assert_eq!(w.records(), accesses.len() as u64);
        w.finish().unwrap();
        buf
    }

    /// Writes `bytes` to a temp file, opens it and removes the file (the
    /// mapping outlives the directory entry).
    fn open_bytes(name: &str, bytes: &[u8]) -> io::Result<MmapTrace> {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-hpt2-test-{}-{name}", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        let opened = MmapTrace::open("t", &p);
        std::fs::remove_file(&p).unwrap();
        opened
    }

    fn roundtrip(name: &str, accesses: &[MemoryAccess], block_records: u32) -> MmapTrace {
        let m = open_bytes(name, &encode(accesses, block_records)).unwrap();
        assert_eq!(m.records(), accesses.len() as u64);
        let replayed: Vec<MemoryAccess> = m.trace().collect();
        assert_eq!(replayed, accesses);
        m
    }

    /// The footprint oracle: the regions cover exactly the touched 2 MiB
    /// pages, in order, and no two of them are adjacent (maximal runs).
    fn assert_footprint(m: &MmapTrace, accesses: &[MemoryAccess]) {
        let huge = PageSize::Huge2M.bytes();
        let touched: BTreeSet<u64> = accesses.iter().map(|a| a.addr.raw() / huge).collect();
        let regions = m.regions();
        let covered: Vec<u64> = regions
            .iter()
            .flat_map(|r| r.start().raw() / huge..r.end().raw() / huge)
            .collect();
        assert_eq!(covered, touched.into_iter().collect::<Vec<_>>());
        for pair in regions.windows(2) {
            assert!(pair[0].end() < pair[1].start(), "{pair:?} not maximal");
        }
        assert_eq!(m.footprint_bytes(), covered.len() as u64 * huge);
    }

    /// Drains a stream window by window, checking the window protocol.
    fn drain(s: &mut dyn TraceStream, max: usize) -> Vec<MemoryAccess> {
        let mut got = Vec::new();
        loop {
            let win = s.next_window(max).to_vec();
            assert_eq!(win, s.window(), "window() must re-borrow");
            got.extend_from_slice(&win);
            if win.len() < max {
                break;
            }
        }
        assert!(
            s.next_window(max).is_empty(),
            "exhausted stream stays empty"
        );
        got
    }

    #[test]
    fn empty_roundtrip() {
        let m = roundtrip("empty", &[], 8);
        assert_eq!(m.block_count(), 0);
        assert!(m.regions().is_empty());
        assert_eq!(m.footprint_bytes(), 0);
    }

    #[test]
    fn multi_block_roundtrip() {
        let accesses = sample_trace(1000);
        // Block size 64 → 15 full blocks + a 40-record tail.
        let m = roundtrip("multi", &accesses, 64);
        assert_eq!(m.block_count(), 16);
    }

    #[test]
    fn extreme_addresses_roundtrip() {
        let accesses = vec![
            acc(u64::MAX),
            acc(0),
            acc(i64::MAX as u64),
            MemoryAccess::write(VirtAddr::new(1u64 << 63)),
            acc(u64::MAX - 1),
        ];
        // The codec carries every u64, but the top 2 MiB page has no
        // `Region` (its exclusive end would be 2^64): a typed error, not
        // a panic while building the footprint.
        let err = open_bytes("extreme", &encode(&accesses, 2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("top 2 MiB page"), "{err}");
        // One page lower, the same wrapping deltas round-trip.
        let below_top = u64::MAX - PageSize::Huge2M.bytes();
        let accesses: Vec<MemoryAccess> = accesses
            .iter()
            .map(|a| MemoryAccess {
                addr: VirtAddr::new(a.addr.raw().min(below_top)),
                ..*a
            })
            .collect();
        roundtrip("extreme", &accesses, 2);
    }

    #[test]
    fn mmap_trace_replays_identically() {
        let accesses = sample_trace(2000);
        let m = roundtrip("replay", &accesses, 128);
        assert_eq!(m.block_count(), 2000 / 128 + 1);
        assert_footprint(&m, &accesses);
    }

    #[test]
    fn footprint_coalesces_contiguous_regions() {
        let mb2 = PageSize::Huge2M.bytes();
        let accesses = [
            acc(0),            // region 0
            acc(mb2 + 5),      // region 1 (contiguous with 0)
            acc(10 * mb2 + 9), // region 10 (separate)
        ];
        let m = roundtrip("coalesce", &accesses, 2);
        assert_eq!(m.regions().len(), 2);
        assert_eq!(m.footprint_bytes(), 3 * mb2);
        assert_footprint(&m, &accesses);
    }

    #[test]
    fn strided_streams_replay_the_round_robin_partition() {
        let accesses = sample_trace(700);
        // Blocks of 64 with windows of 48 straddle block restarts;
        // blocks of 3 under 7 or 8 cores leave some blocks with no
        // record for a core.
        for block_records in [64, 3] {
            let m = open_bytes("windows", &encode(&accesses, block_records)).unwrap();
            for (thread, threads) in [(0, 1), (0, 2), (1, 2), (3, 4), (6, 7), (5, 8)] {
                let expect: Vec<MemoryAccess> = accesses
                    .iter()
                    .copied()
                    .skip(thread as usize)
                    .step_by(threads as usize)
                    .collect();
                let got = drain(&mut *m.thread_stream(thread, threads), 48);
                assert_eq!(
                    got, expect,
                    "blocks of {block_records}, thread {thread}/{threads}"
                );
            }
        }
    }

    #[test]
    fn single_thread_stream_resumes_after_window_reborrow() {
        let original: Vec<MemoryAccess> = (0..10u64).map(|i| acc(i * 0x1000)).collect();
        let m = open_bytes("reborrow", &encode(&original, 3)).unwrap();
        let mut s = m.thread_stream(0, 1);
        assert!(s.window().is_empty(), "no window before the first call");
        assert_eq!(s.next_window(4), &original[0..4]);
        assert_eq!(s.window(), &original[0..4]);
        assert_eq!(s.next_window(4), &original[4..8]);
        assert_eq!(s.next_window(4), &original[8..10], "short final window");
        assert!(s.next_window(4).is_empty());
        assert!(s.window().is_empty());
    }

    #[test]
    #[should_panic(expected = "bad thread index")]
    fn bad_thread_panics() {
        let m = open_bytes("badthread", &encode(&sample_trace(10), 4)).unwrap();
        let _ = m.thread_stream(2, 2);
    }

    #[test]
    fn other_magic_is_rejected() {
        for (i, bytes) in [&b"HPT1\x00\x02"[..], b"NOPE", b""].iter().enumerate() {
            let err = open_bytes(&format!("magic{i}"), bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
        }
    }

    #[test]
    fn non_regular_file_is_rejected() {
        let err = MmapTrace::open("t", &std::env::temp_dir()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let accesses = sample_trace(500);
        let mut bytes = encode(&accesses, 64);
        // Flip a bit deep in some block payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = open_bytes("corrupt", &bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_rejected() {
        let accesses = sample_trace(500);
        let full = encode(&accesses, 64);
        for cut in [full.len() - 1, full.len() - 5, full.len() / 2, 9] {
            assert!(
                open_bytes("trunc", &full[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample_trace(100), 64);
        bytes.extend_from_slice(&[0u8; 8]);
        let err = open_bytes("trailing", &bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "HPT2 trace has trailing bytes");
    }

    #[test]
    fn tampered_trailer_total_is_rejected() {
        let accesses = sample_trace(100);
        let bytes = encode(&accesses, 64);
        // The trailer's u64 total sits right after the 8-byte
        // terminator; rewrite it (and fix its checksum) to lie.
        let trailer_total_at = bytes
            .windows(8)
            .rposition(|w| w == [0u8; 8])
            .expect("terminator")
            + 8;
        let mut tampered = bytes.clone();
        tampered[trailer_total_at] ^= 1;
        // Without fixing the checksum the mismatch is caught there:
        let err = open_bytes("trailer", &tampered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Now recompute the trailer checksum over the tampered bytes so
        // only the record-count cross-check can catch the lie.
        let trailer_end = tampered.len() - 12; // checksum + end magic
        let sum = fnv1a64(&tampered[trailer_total_at..trailer_end]);
        let at = trailer_end;
        tampered[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        let err = open_bytes("trailer2", &tampered).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn ten_byte_varint_edge() {
        // u64::MAX encodes as nine 0xFF continuation bytes + final 0x01:
        // the 10th byte carries exactly one payload bit.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(
            read_varint(&mut max.as_slice()).unwrap(),
            Some(u64::MAX),
            "canonical 10-byte encoding of u64::MAX must decode"
        );

        // Regression: payload bits 1..7 in the 10th byte used to be
        // silently shifted out, decoding a *wrong* value instead of
        // erroring.
        for last in [0x02u8, 0x40, 0x7F] {
            let mut buf = vec![0xFFu8; 9];
            buf.push(last);
            let err = read_varint(&mut buf.as_slice()).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "last byte {last:#x}"
            );
        }

        // A continuation bit in the 10th byte overflows too, even if
        // its payload bits are in range.
        for tail in [&[0x81u8, 0x00][..], &[0x80, 0x01]] {
            let mut buf = vec![0xFFu8; 9];
            buf.extend_from_slice(tail);
            let err = read_varint(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tail {tail:?}");
        }
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), Some(v));
        }
        assert_eq!(unzigzag(zigzag(-5)), -5);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn writer_blocks_restart_the_delta_chain() {
        // Two records a huge stride apart, one per block: each block's
        // single varint must encode an absolute address (delta from 0),
        // which only round-trips if restart points work.
        let accesses = vec![acc(0xDEAD_0000_0000), acc(0x0000_BEEF)];
        let m = roundtrip("restart", &accesses, 1);
        assert_eq!(m.block_count(), 2);
    }

    #[test]
    fn replayed_trace_drives_the_tlb() {
        // Sanity: a replayed trace behaves like any other workload in
        // TLB terms.
        use hpage_tlb::{PageTable, TlbHierarchy, TlbOutcome};
        use hpage_types::{Pfn, TlbConfig};
        let accesses: Vec<MemoryAccess> =
            (0..64u64).map(|i| acc(0x4000_0000 + i * 0x1000)).collect();
        let m = roundtrip("tlb", &accesses, 16);
        let mut pt = PageTable::new();
        let mut tlb = TlbHierarchy::new(TlbConfig::tiny());
        let mut walks = 0;
        for a in m.trace() {
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
