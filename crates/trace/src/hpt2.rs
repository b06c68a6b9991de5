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
//! streams can decode block-by-block with no error paths in the hot
//! loop and windows borrowed straight from the decode buffer.

use crate::mmap::{Advice, Mmap};
use crate::recorded::coalesce_sorted_indices;
use crate::workload::{StreamIter, TraceStream, Workload};
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

/// Strictly decodes one block payload, appending records to `out` and
/// observing regions. Errors if the payload and record count disagree
/// in any way (short payload, trailing bytes, non-canonical varint).
fn decode_block_strict(
    payload: &[u8],
    n_records: u32,
    out: &mut Vec<MemoryAccess>,
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
        let access = if header[0] & 1 == 1 {
            MemoryAccess::write(VirtAddr::new(addr))
        } else {
            MemoryAccess::read(VirtAddr::new(addr))
        };
        regions.observe(access.addr);
        out.push(access);
    }
    if !slice.is_empty() {
        return Err(invalid("HPT2 block has bytes after its last record"));
    }
    Ok(())
}

/// Fast-path decode of an already-validated block payload (no error
/// paths: [`MmapTrace::open`] proved the payload well-formed).
fn decode_block_trusted(payload: &[u8], n_records: u32, out: &mut Vec<MemoryAccess>) {
    out.clear();
    let mut pos = 0usize;
    let mut prev_addr = 0u64;
    for _ in 0..n_records {
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
        out.push(if header & 1 == 1 {
            MemoryAccess::write(VirtAddr::new(addr))
        } else {
            MemoryAccess::read(VirtAddr::new(addr))
        });
    }
    debug_assert_eq!(pos, payload.len(), "validated block decoded short");
}

/// Streaming `HPT2` reader over any `Read`. Implements
/// `Iterator<Item = io::Result<MemoryAccess>>`; block checksums and the
/// trailer are verified as the stream crosses them, so a corrupted file
/// yields an error, never silently wrong records.
#[derive(Debug)]
pub struct Hpt2Reader<R: Read> {
    reader: R,
    block_records: u32,
    block: Vec<u8>,
    pos: usize,
    remaining_in_block: u32,
    prev_addr: u64,
    total_read: u64,
    regions: RegionTracker,
    state: ReaderState,
}

#[derive(Debug, PartialEq, Eq)]
enum ReaderState {
    Streaming,
    /// Terminator seen and trailer verified; iterator is done.
    Finished,
    /// An error was yielded; the iterator is fused.
    Failed,
}

impl<R: Read> Hpt2Reader<R> {
    /// Opens a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a magic mismatch or a zero block size,
    /// or any I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != HPT2_MAGIC {
            return Err(invalid("not an HPT2 trace file"));
        }
        let mut le = [0u8; 4];
        reader.read_exact(&mut le)?;
        let block_records = u32::from_le_bytes(le);
        if block_records == 0 {
            return Err(invalid("HPT2 header has zero block size"));
        }
        Ok(Hpt2Reader {
            reader,
            block_records,
            block: Vec::new(),
            pos: 0,
            remaining_in_block: 0,
            prev_addr: 0,
            total_read: 0,
            regions: RegionTracker::default(),
            state: ReaderState::Streaming,
        })
    }

    fn read_u32(&mut self) -> io::Result<u32> {
        let mut le = [0u8; 4];
        self.reader.read_exact(&mut le)?;
        Ok(u32::from_le_bytes(le))
    }

    fn read_u64(&mut self) -> io::Result<u64> {
        let mut le = [0u8; 8];
        self.reader.read_exact(&mut le)?;
        Ok(u64::from_le_bytes(le))
    }

    /// Loads and checksums the next block; `Ok(false)` at the
    /// terminator (after trailer validation).
    fn next_block(&mut self) -> io::Result<bool> {
        let payload_len = self.read_u32()?;
        let n_records = self.read_u32()?;
        if payload_len == 0 && n_records == 0 {
            self.validate_trailer()?;
            return Ok(false);
        }
        if payload_len == 0 || n_records == 0 || n_records > self.block_records {
            return Err(invalid("HPT2 block header out of range"));
        }
        let checksum = self.read_u64()?;
        self.block.resize(payload_len as usize, 0);
        self.reader.read_exact(&mut self.block)?;
        if fnv1a64(&self.block) != checksum {
            return Err(invalid("HPT2 block checksum mismatch"));
        }
        // Record count vs payload agreement is enforced as records are
        // decoded (short payload or trailing bytes both error).
        self.pos = 0;
        self.remaining_in_block = n_records;
        self.prev_addr = 0;
        Ok(true)
    }

    fn validate_trailer(&mut self) -> io::Result<()> {
        let mut trailer = Vec::new();
        let total = self.read_u64()?;
        trailer.extend_from_slice(&total.to_le_bytes());
        let mut varint_buf = VarintCapture {
            reader: &mut self.reader,
            captured: &mut trailer,
        };
        let count = read_varint(&mut varint_buf)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trailer"))?;
        let mut indices = Vec::new();
        let mut prev = 0u64;
        for i in 0..count {
            let delta = read_varint(&mut varint_buf)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trailer"))?;
            if i > 0 && delta == 0 {
                return Err(invalid("HPT2 trailer regions not strictly increasing"));
            }
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| invalid("HPT2 trailer region index overflow"))?;
            indices.push(prev);
        }
        let checksum = self.read_u64()?;
        if fnv1a64(&trailer) != checksum {
            return Err(invalid("HPT2 trailer checksum mismatch"));
        }
        let mut end = [0u8; 4];
        self.reader.read_exact(&mut end)?;
        if &end != END_MAGIC {
            return Err(invalid("HPT2 end magic mismatch"));
        }
        if total != self.total_read {
            return Err(invalid("HPT2 trailer record count mismatch"));
        }
        let observed = std::mem::take(&mut self.regions).into_sorted();
        if observed != indices {
            return Err(invalid("HPT2 trailer region set disagrees with records"));
        }
        Ok(())
    }

    fn next_record(&mut self) -> io::Result<Option<MemoryAccess>> {
        while self.remaining_in_block == 0 {
            if !self.next_block()? {
                self.state = ReaderState::Finished;
                return Ok(None);
            }
        }
        let mut slice = &self.block[self.pos..];
        let before = slice.len();
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
        self.pos += before - slice.len();
        let addr = (self.prev_addr as i64).wrapping_add(delta) as u64;
        self.prev_addr = addr;
        self.remaining_in_block -= 1;
        if self.remaining_in_block == 0 && self.pos != self.block.len() {
            return Err(invalid("HPT2 block has bytes after its last record"));
        }
        self.total_read += 1;
        let access = if header[0] & 1 == 1 {
            MemoryAccess::write(VirtAddr::new(addr))
        } else {
            MemoryAccess::read(VirtAddr::new(addr))
        };
        self.regions.observe(access.addr);
        Ok(Some(access))
    }
}

/// `Read` shim that tees every byte it passes through into a capture
/// buffer — used to checksum the trailer varints while parsing them.
struct VarintCapture<'a, R: Read> {
    reader: &'a mut R,
    captured: &'a mut Vec<u8>,
}

impl<R: Read> Read for VarintCapture<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.reader.read(buf)?;
        self.captured.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<R: Read> Iterator for Hpt2Reader<R> {
    type Item = io::Result<MemoryAccess>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != ReaderState::Streaming {
            return None;
        }
        match self.next_record() {
            Ok(Some(a)) => Some(Ok(a)),
            Ok(None) => None,
            Err(e) => {
                self.state = ReaderState::Failed;
                Some(Err(e))
            }
        }
    }
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
    /// `InvalidData`/`UnexpectedEof`; OS errors pass through.
    pub fn open(name: impl Into<String>, path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
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
        let mut scratch = Vec::new();
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
            scratch.clear();
            decode_block_strict(payload, n_records, &mut scratch, &mut regions)?;
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

    fn stream_for(&self, thread: u32, threads: u32) -> Hpt2Stream<'_> {
        assert!(thread < threads, "bad thread index");
        Hpt2Stream {
            trace: self,
            next_block: 0,
            buf: Vec::new(),
            pos: 0,
            stride: threads as usize,
            phase_skip: thread as usize,
            gather: Vec::new(),
            win: Win::Buf { start: 0, len: 0 },
        }
    }
}

impl Workload for MmapTrace {
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
        // Same round-robin record partition as RecordedWorkload.
        Box::new(StreamIter::new(self.stream_for(thread, threads)))
    }

    fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_> {
        Box::new(self.stream_for(thread, threads))
    }
}

/// Where the current window lives.
#[derive(Debug, Clone, Copy)]
enum Win {
    /// Subslice of the decoded block buffer (single-threaded fast path).
    Buf { start: usize, len: usize },
    /// The gather buffer (block-boundary or strided windows).
    Gather,
}

/// Replay stream over an [`MmapTrace`].
///
/// Single-threaded replay hands out windows that are direct subslices
/// of the decoded block buffer; only windows straddling a block
/// boundary (1 in `block_records / window` calls) are gathered.
/// Strided replay (multi-core partitions) always gathers its every
/// `stride`-th records.
pub struct Hpt2Stream<'a> {
    trace: &'a MmapTrace,
    next_block: usize,
    /// Decoded records of the current block.
    buf: Vec<MemoryAccess>,
    /// Consumed prefix of `buf`.
    pos: usize,
    stride: usize,
    /// Records still to skip before the next strided pick.
    phase_skip: usize,
    gather: Vec<MemoryAccess>,
    win: Win,
}

impl Hpt2Stream<'_> {
    /// Decodes the next block into `buf`; false when none remain.
    fn advance_block(&mut self) -> bool {
        let Some(&meta) = self.trace.blocks.get(self.next_block) else {
            self.buf.clear();
            self.pos = 0;
            return false;
        };
        decode_block_trusted(
            self.trace.payload(self.next_block),
            meta.n_records,
            &mut self.buf,
        );
        self.next_block += 1;
        self.pos = 0;
        true
    }
}

impl TraceStream for Hpt2Stream<'_> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        if self.stride == 1 {
            if self.pos + max <= self.buf.len() {
                let start = self.pos;
                self.pos += max;
                self.win = Win::Buf { start, len: max };
                return &self.buf[start..start + max];
            }
            // Block boundary: gather the tail, then heads of following
            // blocks until the window is full or the trace ends.
            self.gather.clear();
            self.gather.extend_from_slice(&self.buf[self.pos..]);
            self.pos = self.buf.len();
            while self.gather.len() < max {
                if !self.advance_block() {
                    break;
                }
                let take = (max - self.gather.len()).min(self.buf.len());
                self.gather.extend_from_slice(&self.buf[..take]);
                self.pos = take;
            }
            self.win = Win::Gather;
            return &self.gather;
        }
        // Strided partition: pick every stride-th record.
        self.gather.clear();
        while self.gather.len() < max {
            let avail = self.buf.len() - self.pos;
            if self.phase_skip >= avail {
                self.phase_skip -= avail;
                if !self.advance_block() {
                    break;
                }
                continue;
            }
            self.pos += self.phase_skip;
            self.gather.push(self.buf[self.pos]);
            self.pos += 1;
            self.phase_skip = self.stride - 1;
        }
        self.win = Win::Gather;
        &self.gather
    }

    fn window(&self) -> &[MemoryAccess] {
        match self.win {
            Win::Buf { start, len } => &self.buf[start..start + len],
            Win::Gather => &self.gather,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorded::RecordedWorkload;

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

    fn temp_trace(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-hpt2-test-{}-{name}", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = encode(&[], 8);
        let back: Vec<MemoryAccess> = Hpt2Reader::new(bytes.as_slice())
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn multi_block_roundtrip() {
        let accesses = sample_trace(1000);
        // Block size 64 → 15 full blocks + a 40-record tail.
        let bytes = encode(&accesses, 64);
        let back: Vec<MemoryAccess> = Hpt2Reader::new(bytes.as_slice())
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(back, accesses);
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
        let bytes = encode(&accesses, 2);
        let back: Vec<MemoryAccess> = Hpt2Reader::new(bytes.as_slice())
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(back, accesses);
    }

    #[test]
    fn from_reader_replays_hpt2() {
        let accesses = sample_trace(300);
        let bytes = encode(&accesses, 32);
        let w = RecordedWorkload::from_reader("t", bytes.as_slice()).unwrap();
        let replayed: Vec<MemoryAccess> = w.trace().collect();
        assert_eq!(replayed, accesses);
    }

    #[test]
    fn mmap_trace_replays_identically() {
        let accesses = sample_trace(2000);
        let bytes = encode(&accesses, 128);
        let path = temp_trace("replay", &bytes);
        let m = MmapTrace::open("t", &path).unwrap();
        assert_eq!(m.records(), 2000);
        assert_eq!(m.block_count(), 2000 / 128 + 1);
        let replayed: Vec<MemoryAccess> = m.trace().collect();
        assert_eq!(replayed, accesses);
        // Footprint must byte-match the in-memory path.
        let in_mem = RecordedWorkload::new("t", accesses);
        assert_eq!(m.regions(), in_mem.regions());
        assert_eq!(m.footprint_bytes(), in_mem.footprint_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_stream_windows_match_thread_trace() {
        let accesses = sample_trace(700);
        let bytes = encode(&accesses, 64);
        let path = temp_trace("windows", &bytes);
        let m = MmapTrace::open("t", &path).unwrap();
        let in_mem = RecordedWorkload::new("t", accesses);
        for (thread, threads) in [(0, 1), (0, 2), (1, 2), (3, 4)] {
            let expect: Vec<MemoryAccess> = in_mem.thread_trace(thread, threads).collect();
            let mut s = m.thread_stream(thread, threads);
            let mut got = Vec::new();
            loop {
                // 48 < 64 forces windows that straddle block restarts.
                let win = s.next_window(48).to_vec();
                assert_eq!(win, s.window(), "window() must re-borrow");
                got.extend_from_slice(&win);
                if win.len() < 48 {
                    break;
                }
            }
            assert_eq!(got, expect, "thread {thread}/{threads}");
            assert!(s.next_window(48).is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let accesses = sample_trace(500);
        let mut bytes = encode(&accesses, 64);
        // Flip a bit deep in some block payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let items: Vec<io::Result<MemoryAccess>> =
            Hpt2Reader::new(bytes.as_slice()).unwrap().collect();
        assert!(
            items.iter().any(|r| r.is_err()),
            "streaming reader must surface the corruption"
        );
        let path = temp_trace("corrupt", &bytes);
        assert!(MmapTrace::open("t", &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_rejected() {
        let accesses = sample_trace(500);
        let full = encode(&accesses, 64);
        for cut in [full.len() - 1, full.len() - 5, full.len() / 2, 9] {
            let bytes = &full[..cut];
            // A truncated stream must either error or have stopped
            // before the (missing) validated trailer.
            if let Ok(mut r) = Hpt2Reader::new(bytes) {
                assert!(
                    r.any(|item| item.is_err()),
                    "truncated at {cut}: reader finished cleanly"
                );
            }
            let path = temp_trace("trunc", bytes);
            assert!(MmapTrace::open("t", &path).is_err(), "truncated at {cut}");
            std::fs::remove_file(&path).unwrap();
        }
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
        let path = temp_trace("trailer", &tampered);
        let err = MmapTrace::open("t", &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
        // Now recompute the trailer checksum over the tampered bytes so
        // only the record-count cross-check can catch the lie.
        let trailer_end = tampered.len() - 12; // checksum + end magic
        let sum = fnv1a64(&tampered[trailer_total_at..trailer_end]);
        let at = trailer_end;
        tampered[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        let path = temp_trace("trailer2", &tampered);
        let err = MmapTrace::open("t", &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
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
        let bytes = encode(&accesses, 1);
        let back: Vec<MemoryAccess> = Hpt2Reader::new(bytes.as_slice())
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(back, accesses);
    }
}
