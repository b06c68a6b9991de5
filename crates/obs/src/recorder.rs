//! Recorder backends: the zero-cost null recorder, an in-memory buffer,
//! a streaming JSONL sink, and a tee that feeds two recorders at once.

use std::collections::BTreeMap;
use std::io::Write;

use crate::event::Event;

/// A sink for flight-recorder events.
///
/// The simulator is generic over `R: Recorder`, so the default
/// [`NullRecorder`] monomorphizes every `record` call to an inlined
/// no-op — an uninstrumented run compiles to the same hot loop it had
/// before this trait existed.
///
/// Implementors that buffer or serialize should override [`enabled`]
/// to return `true`; callers use it to skip *constructing* expensive
/// events (e.g. interval snapshots that walk the PCC bank).
pub trait Recorder {
    /// Whether this recorder actually keeps events. `false` lets call
    /// sites skip building event payloads entirely.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event at simulation time `at` (total accesses issued).
    #[inline]
    fn record(&mut self, at: u64, event: Event) {
        let _ = (at, event);
    }
}

/// The do-nothing recorder: the default for every simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// `Option<R>` is a recorder that may not be there: `None` behaves like
/// [`NullRecorder`], `Some(r)` like `r`. Lets callers decide at runtime
/// whether to attach one leg of a [`Tee`] without monomorphizing every
/// combination.
impl<R: Recorder> Recorder for Option<R> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Recorder::enabled)
    }

    fn record(&mut self, at: u64, event: Event) {
        if let Some(r) = self.as_mut() {
            r.record(at, event);
        }
    }
}

/// A mutable borrow of a recorder is itself a recorder, so a call site
/// can tee a caller-owned recorder with a local one without taking
/// ownership of either.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, at: u64, event: Event) {
        (**self).record(at, event);
    }
}

/// Buffers every event in memory, in arrival order; for tests and
/// programmatic analysis.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    events: Vec<(u64, Event)>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every `(timestamp, event)` pair, in arrival order.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-kind event counts, ordered by kind name.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for (_, ev) in &self.events {
            *counts.entry(ev.kind()).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the buffer as JSON Lines, oldest event first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for &(at, ev) in &self.events {
            out.push_str(&ev.to_jsonl(at));
            out.push('\n');
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, at: u64, event: Event) {
        self.events.push((at, event));
    }
}

/// Streams events as JSON Lines to any [`Write`] target.
///
/// Writes are line-buffered by the caller-supplied writer; I/O errors
/// are captured rather than panicking mid-simulation and surfaced by
/// [`JsonlSink::finish`]. The sink also flushes on `Drop`, so a run
/// that aborts before calling `finish` still leaves whole JSONL lines
/// behind (every record is written with a single `writeln!`). An error
/// that would otherwise die with the `Drop` (nobody called `finish`) is
/// reported once to stderr with the sink's path
/// ([`with_path`](JsonlSink::with_path)) — a full disk must be visible,
/// not silent data loss. After `finish` the `Drop` does nothing: the
/// caller holds whatever error `finish` returned.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    counts: BTreeMap<&'static str, u64>,
    total: u64,
    error: Option<std::io::Error>,
    path: Option<String>,
    /// `finish` ran and handed its outcome to the caller.
    finished: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`; the caller should hand in something buffered
    /// (e.g. `BufWriter<File>`).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            counts: BTreeMap::new(),
            total: 0,
            error: None,
            path: None,
            finished: false,
        }
    }

    /// Names the sink's destination for error reports (the file path,
    /// typically) so a failing sink is identifiable on stderr.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Events written so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Flushes and returns the per-kind counts, or the first I/O error
    /// encountered while streaming or flushing.
    pub fn finish(mut self) -> std::io::Result<BTreeMap<&'static str, u64>> {
        self.finished = true;
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.writer.flush()?;
        Ok(std::mem::take(&mut self.counts))
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Best-effort: a sink dropped mid-run (panic, early return) must
        // not leave buffered lines unwritten. Errors that would die here
        // — a streaming error or a failing flush, with no `finish` to
        // return them — are reported once to stderr instead of being
        // silently swallowed.
        if self.finished {
            return;
        }
        let flush_err = self.writer.flush().err();
        let unsurfaced = self.error.take();
        if let Some(err) = unsurfaced.as_ref().or(flush_err.as_ref()) {
            let target = self.path.as_deref().unwrap_or("<unnamed sink>");
            eprintln!("warning: jsonl sink {target}: {err} (events may be lost)");
        }
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: u64, event: Event) {
        if self.error.is_some() {
            return;
        }
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        self.total += 1;
        let line = event.to_jsonl(at);
        if let Err(err) = writeln!(self.writer, "{line}") {
            self.error = Some(err);
        }
    }
}

/// Feeds every event to two recorders — e.g. a [`JsonlSink`] for the
/// raw stream plus a telemetry aggregator, in one simulation pass.
#[derive(Debug)]
pub struct Tee<A: Recorder, B: Recorder>(
    /// First recorder.
    pub A,
    /// Second recorder.
    pub B,
);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn record(&mut self, at: u64, event: Event) {
        self.0.record(at, event);
        self.1.record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TlbLevel;
    use crate::json::assert_json_shape;
    use hpage_types::{CoreId, PageSize};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn hit() -> Event {
        Event::TlbHit {
            core: CoreId(0),
            level: TlbLevel::L1,
            size: PageSize::Base4K,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(1, hit()); // must be a harmless no-op
    }

    #[test]
    fn memory_recorder_buffers_and_counts() {
        let mut r = MemoryRecorder::new();
        assert!(r.enabled());
        r.record(1, hit());
        r.record(2, hit());
        assert_eq!(r.len(), 2);
        assert_eq!(r.counts_by_kind().get("tlb_hit"), Some(&2));
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert_json_shape(line);
        }
    }

    #[test]
    fn jsonl_sink_streams_and_finishes() {
        let mut buf = Vec::new();
        let mut sink = JsonlSink::new(&mut buf);
        assert!(sink.enabled());
        sink.record(5, hit());
        sink.record(9, hit());
        assert_eq!(sink.total(), 2);
        let counts = sink.finish().expect("finish");
        assert_eq!(counts.get("tlb_hit"), Some(&2));
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"at\":5,"));
        for line in text.lines() {
            assert_json_shape(line);
        }
    }

    /// A shared-buffer writer that survives the sink's drop, counting
    /// flushes — the stand-in for a file a crashed run leaves behind.
    #[derive(Clone, Default)]
    struct SharedWriter {
        buf: Rc<RefCell<Vec<u8>>>,
        flushes: Rc<RefCell<u32>>,
    }

    impl Write for SharedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.borrow_mut().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            *self.flushes.borrow_mut() += 1;
            Ok(())
        }
    }

    #[test]
    fn dropped_sink_flushes_and_leaves_valid_jsonl() {
        // A "truncated" run: the sink is dropped mid-stream without
        // finish(). The writer must still have been flushed and every
        // line already written must be complete, valid JSONL.
        let w = SharedWriter::default();
        {
            let mut sink = JsonlSink::new(w.clone());
            for at in 1..=5 {
                sink.record(at, hit());
            }
            // No finish(): the scope end drops the sink.
        }
        assert!(*w.flushes.borrow() >= 1, "Drop must flush the writer");
        let text = String::from_utf8(w.buf.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.ends_with('\n'), "no partial trailing line");
        for line in text.lines() {
            assert_json_shape(line);
        }
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_surfaces_io_errors_at_finish() {
        let mut sink = JsonlSink::new(FailingWriter);
        sink.record(1, hit());
        sink.record(2, hit()); // swallowed after first error
        assert!(sink.finish().is_err());
    }

    /// A writer whose every write and flush fails, counting the calls.
    #[derive(Clone, Default)]
    struct FullDisk {
        calls: Rc<RefCell<u32>>,
    }

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            *self.calls.borrow_mut() += 1;
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            *self.calls.borrow_mut() += 1;
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn an_error_finish_returned_is_not_reported_again_on_drop() {
        // Streaming error: `finish` returns it, and the drop that ends
        // `finish` touches the writer no more (it would fail and warn).
        let disk = FullDisk::default();
        let mut sink = JsonlSink::new(disk.clone());
        sink.record(1, hit());
        assert!(sink.finish().is_err());
        assert_eq!(*disk.calls.borrow(), 1, "one write, no flush on drop");
        // Failing final flush: likewise tried once, by `finish` alone.
        let disk = FullDisk::default();
        let sink = JsonlSink::new(disk.clone());
        assert!(sink.finish().is_err());
        assert_eq!(*disk.calls.borrow(), 1, "one flush, none on drop");
        // Without `finish` the drop still flushes (and reports).
        let disk = FullDisk::default();
        drop(JsonlSink::new(disk.clone()));
        assert_eq!(*disk.calls.borrow(), 1, "the drop flushes");
    }

    #[test]
    fn tee_feeds_both_recorders() {
        let mut tee = Tee(MemoryRecorder::new(), MemoryRecorder::new());
        assert!(tee.enabled());
        tee.record(1, hit());
        tee.record(2, hit());
        assert_eq!(tee.0.events(), tee.1.events());
        assert_eq!(tee.1.len(), 2);
        // A tee of two null recorders stays disabled.
        assert!(!Tee(NullRecorder, NullRecorder).enabled());
    }
}
