//! The [`Workload`] abstraction: something that owns a virtual address
//! space layout and can emit the memory-access trace of its execution.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;

use hpage_types::{MemoryAccess, Region};

/// A chunked access-trace reader: the hot-path alternative to
/// `Box<dyn Iterator>`.
///
/// The simulator consumes billions of accesses; pulling each one
/// through a boxed iterator costs a virtual call per element and walls
/// off the generator from the optimizer. A `TraceStream` amortises the
/// dynamic dispatch to one [`next_window`](Self::next_window) call per
/// chunk, and hands the consumer a **borrowed window** into storage
/// the stream already owns, so the hot loop reads accesses in place
/// instead of copying every chunk through an intermediate buffer.
/// Generators implement [`TraceSource`]; [`SourceStream`] implements
/// this protocol over any of them.
///
/// # Window protocol
///
/// * `next_window(max)` returns the next `max` accesses of the trace as
///   one contiguous slice. It returns **fewer than `max` only when the
///   trace is exhausted** (streams must keep producing internally until
///   the window is full or the trace ends — a short window is the
///   end-of-trace signal, and the sharded simulation loop retires a
///   core on it).
/// * Each `next_window` call releases the previous window; the borrow
///   rules enforce this (the returned slice borrows the stream).
/// * [`window`](Self::window) re-borrows the *current* window without
///   advancing — the consumer uses it to resume a partially executed
///   chunk after a pause (e.g. a page-fault wave) without holding the
///   borrow across the pause.
pub trait TraceStream {
    /// Advances past the current window and returns the next one, up to
    /// `max` accesses long. Shorter than `max` (possibly empty) exactly
    /// when the trace is exhausted.
    fn next_window(&mut self, max: usize) -> &[MemoryAccess];

    /// The current window (the slice the last [`next_window`] returned;
    /// empty before the first call).
    ///
    /// [`next_window`]: Self::next_window
    fn window(&self) -> &[MemoryAccess];
}

/// A trace generator: appends its accesses to a caller's buffer, one
/// piece at a time.
///
/// A source only produces; [`SourceStream`] cuts its pieces into the
/// windows of the [`TraceStream`] protocol, and a [`Producer`] moves it
/// onto a thread of its own. A generator implements `refill` and gets
/// both. Pieces may have any length, empty included.
pub trait TraceSource {
    /// Appends the next piece of the trace to `out`, after what `out`
    /// already holds. Returns `false` once the trace has ended; that
    /// call may still have appended the trace's last accesses, and the
    /// source is not called again.
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool;
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        (**self).refill(out)
    }
}

/// Accesses a generator appends per [`TraceSource::refill`]: one engine
/// chunk, so a refill without a producer generates no more per barrier
/// round than the window it serves. Pieces of 1 Ki or 4 Ki cost
/// hpbench's `mix4_st2` (two shards, no producer) a fifth to a quarter
/// of its accesses per second.
pub(crate) const PIECE_LEN: usize = 256;

/// The one [`TraceStream`] implementation: windows cut from the pieces
/// of a [`TraceSource`].
///
/// A window inside one piece is a slice of it; only a window that
/// straddles two pieces is stitched into a side buffer. The pieces are
/// read into one buffer, cleared before each refill, so a source that
/// hands over whole blocks (a [`Producer`]) can swap its block in.
pub struct SourceStream<S> {
    source: S,
    /// The piece being read.
    piece: Vec<MemoryAccess>,
    /// Next unread index into `piece`.
    pos: usize,
    /// The source has returned `false`: `piece` is the trace's last.
    ended: bool,
    /// The current window: `piece[range]`, or `stitch` when it
    /// straddles pieces.
    window: Option<Range<usize>>,
    stitch: Vec<MemoryAccess>,
}

impl<S: TraceSource> SourceStream<S> {
    /// Cuts `source` into windows.
    pub fn new(source: S) -> Self {
        SourceStream {
            source,
            piece: Vec::new(),
            pos: 0,
            ended: false,
            window: Some(0..0),
            stitch: Vec::new(),
        }
    }

    /// Replaces the read piece with the source's next non-empty one;
    /// empty only at the end of the trace.
    fn next_piece(&mut self) {
        self.piece.clear();
        self.pos = 0;
        while self.piece.is_empty() && !self.ended {
            self.ended = !self.source.refill(&mut self.piece);
        }
    }
}

impl<S: TraceSource> TraceStream for SourceStream<S> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        if self.pos == self.piece.len() {
            self.next_piece();
        }
        let start = self.pos;
        if self.piece.len() - start >= max || self.ended {
            self.pos = self.piece.len().min(start + max);
            self.window = Some(start..self.pos);
            return &self.piece[start..self.pos];
        }
        self.stitch.clear();
        loop {
            let take = (max - self.stitch.len()).min(self.piece.len() - self.pos);
            self.stitch
                .extend_from_slice(&self.piece[self.pos..self.pos + take]);
            self.pos += take;
            if self.stitch.len() == max || self.ended {
                break;
            }
            self.next_piece();
        }
        self.window = None;
        &self.stitch
    }

    fn window(&self) -> &[MemoryAccess] {
        match &self.window {
            Some(range) => &self.piece[range.clone()],
            None => &self.stitch,
        }
    }
}

/// Adapts any access iterator into a [`TraceSource`], [`PIECE_LEN`]
/// accesses per refill, for a trace whose natural form is an iterator
/// (the contract tests' recorded traces, say). The built-in generators
/// implement `refill` themselves.
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = MemoryAccess>> IterSource<I> {
    /// Wraps `iter`.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I: Iterator<Item = MemoryAccess>> TraceSource for IterSource<I> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        let full = out.len() + PIECE_LEN;
        out.extend(self.iter.by_ref().take(PIECE_LEN));
        out.len() == full
    }
}

/// Accesses per block a [`Producer`] hands over, at least. With two
/// filled blocks queued, one being filled and one being read, a reader
/// and its producer hold about 2 MiB of blocks.
const PRODUCER_BLOCK: usize = 32 * 1024;

/// Filled blocks a producer may queue ahead of its reader.
const PRODUCER_QUEUE: usize = 2;

/// What a producer sends: a filled block and whether the trace goes on
/// after it, or the payload of the panic that stopped it.
type Filled = Result<(Vec<MemoryAccess>, bool), Box<dyn Any + Send>>;

/// A [`TraceSource`] generated on a thread of its own.
///
/// [`spawn`](Self::spawn) moves the inner source into a scoped producer
/// thread, which refills a block until it holds 32 Ki accesses and
/// sends it over a bounded channel: the generator appends straight
/// into the block the reader gets. The reader's `refill` swaps the
/// block into an empty buffer (copying it only into a non-empty one)
/// and hands the buffer it had back for reuse, so under a
/// [`SourceStream`] an access crosses no copy on its way from the
/// generator to a window.
///
/// A panic in the inner source is forwarded with its own payload and
/// re-raised by the reader when it reaches the block the panic cut
/// short, so a failed generator never looks like the end of the trace.
/// Dropping the reader early closes both channels, which ends the
/// producer at its next send; the scope's join cannot hang on it. The
/// `'scope` lifetime keeps the reader inside the scope its producer
/// runs in.
pub struct Producer<'scope> {
    filled: Receiver<Filled>,
    drained: Sender<Vec<MemoryAccess>>,
    _scope: PhantomData<&'scope ()>,
}

impl<'scope> Producer<'scope> {
    /// Starts generating `source` on a new thread of `scope`.
    pub fn spawn<S>(scope: &'scope Scope<'scope, '_>, source: S) -> Self
    where
        S: TraceSource + Send + 'scope,
    {
        Self::with_block(scope, source, PRODUCER_BLOCK)
    }

    fn with_block<S>(scope: &'scope Scope<'scope, '_>, mut source: S, block_len: usize) -> Self
    where
        S: TraceSource + Send + 'scope,
    {
        let (filled_tx, filled) = mpsc::sync_channel::<Filled>(PRODUCER_QUEUE);
        let (drained, drained_rx) = mpsc::channel::<Vec<MemoryAccess>>();
        scope.spawn(move || {
            let mut block: Vec<MemoryAccess> = Vec::with_capacity(block_len);
            loop {
                let fill = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut more = true;
                    while more && block.len() < block_len {
                        more = source.refill(&mut block);
                    }
                    more
                }));
                let (sent, more) = match fill {
                    Ok(more) => (filled_tx.send(Ok((block, more))), more),
                    Err(payload) => (filled_tx.send(Err(payload)), false),
                };
                if sent.is_err() || !more {
                    return;
                }
                block = drained_rx.try_recv().unwrap_or_default();
                block.clear();
                block.reserve(block_len);
            }
        });
        Producer {
            filled,
            drained,
            _scope: PhantomData,
        }
    }
}

impl TraceSource for Producer<'_> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        let (block, more) = match self.filled.recv() {
            Ok(Ok(filled)) => filled,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("trace producer stopped before the end of the trace"),
        };
        let spent = if out.is_empty() {
            std::mem::replace(out, block)
        } else {
            out.extend_from_slice(&block);
            block
        };
        // The producer may have finished; then the buffer is not needed.
        let _ = self.drained.send(spent);
        more
    }
}

/// Adapts a [`TraceStream`] back into a per-element iterator (for
/// consumers that genuinely want one access at a time, e.g. trace-file
/// writers and analyzers); [`Workload::trace`] is built on it.
pub struct StreamIter<S> {
    stream: S,
    pos: usize,
    len: usize,
}

/// Window size [`StreamIter`] pulls through; one virtual call per this
/// many elements.
const STREAM_ITER_CHUNK: usize = 1024;

impl<S: TraceStream> StreamIter<S> {
    /// Wraps `stream`.
    pub fn new(stream: S) -> Self {
        StreamIter {
            stream,
            pos: 0,
            len: 0,
        }
    }
}

impl<S: TraceStream> Iterator for StreamIter<S> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.pos == self.len {
            self.len = self.stream.next_window(STREAM_ITER_CHUNK).len();
            self.pos = 0;
            if self.len == 0 {
                return None;
            }
        }
        let a = self.stream.window()[self.pos];
        self.pos += 1;
        Some(a)
    }
}

impl<S: TraceStream + ?Sized> TraceStream for Box<S> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        (**self).next_window(max)
    }

    fn window(&self) -> &[MemoryAccess] {
        (**self).window()
    }
}

/// A workload that can be traced.
///
/// Implementations are deterministic: the same workload produces the same
/// trace every time, which is what lets the offline PCC simulation and the
/// replayed promotion schedule agree on addresses (the paper pins
/// `randomize_va_space=0` for exactly this property).
pub trait Workload {
    /// Short name ("BFS", "canneal", …) used in reports.
    fn name(&self) -> &str;

    /// The data regions the workload touches, in layout order. Their total
    /// length is the memory footprint the paper's utility curves
    /// normalise against.
    fn regions(&self) -> Vec<Region>;

    /// Total bytes of data (the paper's "footprint" column in Table 1).
    fn footprint_bytes(&self) -> u64 {
        self.regions().iter().map(|r| r.len()).sum()
    }

    /// The access trace of thread `thread`, when the workload runs with
    /// `threads` total threads, as a [`TraceSource`] — the one way a
    /// workload emits its accesses. Single-threaded workloads may
    /// ignore the arguments for `threads == 1`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `thread >= threads` or the workload does
    /// not support the requested thread count.
    ///
    /// The returned source is `Send` so the sharded simulation loop can
    /// pin each core's trace to a worker thread, or generate it on a
    /// [`Producer`] thread; workload state is plain data, so this costs
    /// implementations nothing.
    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_>;

    /// The same trace as a windowed [`TraceStream`], what the simulation
    /// hot loop consumes: [`thread_source`](Self::thread_source) under a
    /// [`SourceStream`].
    fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_> {
        Box::new(SourceStream::new(self.thread_source(thread, threads)))
    }

    /// Convenience: the single-threaded trace, one access at a time.
    fn trace(&self) -> Box<dyn Iterator<Item = MemoryAccess> + Send + '_> {
        Box::new(StreamIter::new(self.thread_stream(0, 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_types::VirtAddr;

    struct Dummy;

    impl Workload for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn regions(&self) -> Vec<Region> {
            vec![
                Region::new(VirtAddr::new(0x1000), 100),
                Region::new(VirtAddr::new(0x10_0000), 50),
            ]
        }
        fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
            assert!(thread < threads);
            Box::new(IterSource::new(std::iter::once(MemoryAccess::read(
                VirtAddr::new(0x1000),
            ))))
        }
    }

    #[test]
    fn footprint_sums_regions() {
        assert_eq!(Dummy.footprint_bytes(), 150);
    }

    #[test]
    fn trace_defaults_to_thread_zero() {
        assert_eq!(Dummy.trace().count(), 1);
    }

    #[test]
    fn source_stream_follows_the_window_protocol() {
        let mut s = Dummy.thread_stream(0, 1);
        assert!(s.window().is_empty(), "no window before the first call");
        assert_eq!(s.next_window(16).len(), 1);
        assert_eq!(s.window().len(), 1, "window re-borrows without advancing");
        assert!(s.next_window(16).is_empty(), "exhausted stream yields 0");
    }

    fn accesses(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| MemoryAccess::read(VirtAddr::new(0x1000 + i * 8)))
            .collect()
    }

    /// Hands out a trace in pieces whose lengths cycle through `lens`
    /// (empty pieces included). With `eager_end` the last piece comes
    /// with `false`; otherwise an empty refill ends the trace.
    struct Pieces {
        trace: Vec<MemoryAccess>,
        pos: usize,
        lens: &'static [usize],
        refills: usize,
        eager_end: bool,
    }

    impl Pieces {
        fn new(trace: Vec<MemoryAccess>, lens: &'static [usize], eager_end: bool) -> Self {
            Pieces {
                trace,
                pos: 0,
                lens,
                refills: 0,
                eager_end,
            }
        }
    }

    impl TraceSource for Pieces {
        fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
            let left = self.trace.len() - self.pos;
            let n = self.lens[self.refills % self.lens.len()].min(left);
            self.refills += 1;
            out.extend_from_slice(&self.trace[self.pos..self.pos + n]);
            self.pos += n;
            if self.eager_end {
                self.pos < self.trace.len()
            } else {
                left > 0
            }
        }
    }

    /// Piece lengths around the window sizes the tests cut.
    const LENS: &[usize] = &[0, 5, 17, 64, 3, 0, 0, 300, 1];

    /// `trace` cut into windows of the sizes `sizes` yields, up to and
    /// including the first short one: what every stream must return.
    fn cut(trace: &[MemoryAccess], mut sizes: impl FnMut() -> usize) -> Vec<Vec<MemoryAccess>> {
        let mut out = Vec::new();
        let mut rest = trace;
        loop {
            let max = sizes();
            let (w, tail) = rest.split_at(max.min(rest.len()));
            out.push(w.to_vec());
            if w.len() < max {
                return out;
            }
            rest = tail;
        }
    }

    /// Every window `stream` returns for the sizes `sizes` yields in
    /// turn, until the first short one, checking that `window`
    /// re-borrows each and that the stream stays exhausted.
    fn windows(
        stream: &mut dyn TraceStream,
        mut sizes: impl FnMut() -> usize,
    ) -> Vec<Vec<MemoryAccess>> {
        assert!(
            stream.window().is_empty(),
            "no window before the first call"
        );
        let mut out = Vec::new();
        loop {
            let max = sizes();
            let w = stream.next_window(max).to_vec();
            assert_eq!(w, stream.window(), "window re-borrows the current window");
            let short = w.len() < max;
            out.push(w);
            if short {
                assert!(stream.next_window(max).is_empty(), "stays exhausted");
                return out;
            }
        }
    }

    /// Window sizes that change every call, as the engine's
    /// interval-truncated quotas do.
    fn mixed_sizes() -> impl FnMut() -> usize {
        let mut state = 1u64;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % 300 + 1
        }
    }

    #[test]
    fn source_stream_cuts_any_pieces_into_the_same_windows() {
        // Traces that end mid-piece and on a window boundary; pieces of
        // every length from empty to longer than a window.
        for n in [0, 1, 10_007, 64 * 40] {
            let trace = accesses(n);
            for eager_end in [false, true] {
                for size in [1, 7, 64, 256, 4096] {
                    let got = windows(
                        &mut SourceStream::new(Pieces::new(trace.clone(), LENS, eager_end)),
                        || size,
                    );
                    assert_eq!(got, cut(&trace, || size), "{n} accesses, windows of {size}");
                }
                let got = windows(
                    &mut SourceStream::new(Pieces::new(trace.clone(), LENS, eager_end)),
                    mixed_sizes(),
                );
                assert_eq!(got, cut(&trace, mixed_sizes()), "{n} accesses, mixed");
            }
        }
    }

    #[test]
    fn iter_source_windows_partition_the_trace_exactly() {
        let trace = accesses(2 * PIECE_LEN as u64 + 10);
        for size in [4, 256, PIECE_LEN, 3 * PIECE_LEN] {
            let mut s = SourceStream::new(IterSource::new(trace.clone().into_iter()));
            assert_eq!(windows(&mut s, || size), cut(&trace, || size), "{size}");
        }
    }

    #[test]
    fn producer_keeps_the_window_protocol() {
        // 64-access blocks from pieces of up to 300: blocks of uneven
        // length, and a window stitched every few calls.
        for n in [0, 10_007, 64 * 40] {
            let trace = accesses(n);
            for size in [1, 7, 256, 4096] {
                let produced = std::thread::scope(|scope| {
                    let inner = Pieces::new(trace.clone(), LENS, false);
                    let mut stream = SourceStream::new(Producer::with_block(scope, inner, 64));
                    windows(&mut stream, || size)
                });
                assert_eq!(
                    produced,
                    cut(&trace, || size),
                    "{n} accesses, windows of {size}"
                );
            }
            let produced = std::thread::scope(|scope| {
                let inner = Pieces::new(trace.clone(), LENS, true);
                windows(
                    &mut SourceStream::new(Producer::with_block(scope, inner, 64)),
                    mixed_sizes(),
                )
            });
            assert_eq!(produced, cut(&trace, mixed_sizes()), "{n} accesses, mixed");
        }
    }

    #[test]
    fn producer_at_full_block_size_matches_the_trace() {
        let trace = accesses(3 * PRODUCER_BLOCK as u64 + 5);
        let produced = std::thread::scope(|scope| {
            let inner = IterSource::new(trace.clone().into_iter());
            windows(
                &mut SourceStream::new(Producer::spawn(scope, inner)),
                || 256,
            )
        });
        assert_eq!(produced, cut(&trace, || 256));
    }

    #[test]
    fn producer_refill_appends_after_what_the_buffer_holds() {
        let trace = accesses(100);
        std::thread::scope(|scope| {
            let inner = IterSource::new(trace[1..].iter().copied());
            let mut producer = Producer::spawn(scope, inner);
            let mut out = vec![trace[0]];
            assert!(!producer.refill(&mut out), "a 99-access trace is one block");
            assert_eq!(out, trace);
        });
    }

    /// Refills `refills` times from its inner source, then panics.
    struct Failing<S> {
        inner: S,
        refills: u32,
    }

    impl<S: TraceSource> TraceSource for Failing<S> {
        fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
            assert!(self.refills > 0, "trace source failed mid-run");
            self.refills -= 1;
            self.inner.refill(out)
        }
    }

    #[test]
    fn producer_panic_reaches_the_reader_with_its_own_payload() {
        let payload = std::thread::scope(|scope| {
            let inner = Failing {
                inner: Pieces::new(accesses(100_000), LENS, false),
                refills: 20,
            };
            let mut stream = SourceStream::new(Producer::with_block(scope, inner, 64));
            panic::catch_unwind(AssertUnwindSafe(
                || {
                    while stream.next_window(7).len() == 7 {}
                },
            ))
            .expect_err("a failed generator is not the end of the trace")
        });
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"trace source failed mid-run")
        );
    }

    #[test]
    fn dropping_the_reader_mid_block_lets_the_scope_join() {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            std::thread::scope(|scope| {
                // Endless: the producer fills its queue and blocks on a
                // send that only the reader's drop can end.
                let inner =
                    IterSource::new(std::iter::repeat(MemoryAccess::read(VirtAddr::new(0x1000))));
                let mut stream = SourceStream::new(Producer::with_block(scope, inner, 64));
                assert_eq!(stream.next_window(10).len(), 10);
                drop(stream);
            });
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the scope joined after the reader was dropped");
    }

    #[test]
    fn stream_iter_round_trips() {
        let trace = accesses(2500);
        let s = SourceStream::new(IterSource::new(trace.clone().into_iter()));
        let back: Vec<MemoryAccess> = StreamIter::new(s).collect();
        assert_eq!(back, trace);
    }
}
