//! The [`Workload`] abstraction: something that owns a virtual address
//! space layout and can emit the memory-access trace of its execution.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;

use hpage_types::{MemoryAccess, Region};

/// A chunked access-trace producer: the hot-path alternative to
/// `Box<dyn Iterator>`.
///
/// The simulator consumes billions of accesses; pulling each one
/// through a boxed iterator costs a virtual call per element and walls
/// off the generator from the optimizer. A `TraceStream` amortises the
/// dynamic dispatch to one [`next_window`](Self::next_window) call per
/// chunk, and hands the consumer a **borrowed window** into storage
/// the stream already owns, so the hot loop reads accesses in place
/// instead of copying every chunk through an intermediate buffer.
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

/// Adapts any access iterator into a [`TraceStream`] by buffering one
/// window at a time.
///
/// This is the generic path (one `next()` per element into the
/// buffer), used by generators whose natural form is an iterator; the
/// graph kernels and the trace replayer implement `TraceStream`
/// natively so their windows borrow storage they fill anyway. There is
/// deliberately **no** blanket `impl<I: Iterator> TraceStream for I`:
/// the window API needs a place to own the buffer.
pub struct IterStream<I> {
    iter: I,
    buf: Vec<MemoryAccess>,
}

impl<I: Iterator<Item = MemoryAccess>> IterStream<I> {
    /// Wraps `iter`.
    pub fn new(iter: I) -> Self {
        IterStream {
            iter,
            buf: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = MemoryAccess>> TraceStream for IterStream<I> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        self.buf.clear();
        self.buf.extend(self.iter.by_ref().take(max));
        &self.buf
    }

    fn window(&self) -> &[MemoryAccess] {
        &self.buf
    }
}

/// Accesses per block a [`ProducerStream`] hands over. With two filled
/// blocks queued, one being filled and one being read, a reader and its
/// producer hold 2 MiB of blocks.
const PRODUCER_BLOCK: usize = 32 * 1024;

/// Filled blocks a producer may queue ahead of its reader.
const PRODUCER_QUEUE: usize = 2;

/// Window size a producer pulls from its inner stream: small enough
/// that a kernel's pending queue stays the size it is without a
/// producer, large enough to amortise the virtual call.
const PRODUCER_PULL: usize = 1024;

/// What a producer sends: a filled block, or the payload of the panic
/// that stopped it.
type Filled = Result<Vec<MemoryAccess>, Box<dyn Any + Send>>;

/// A [`TraceStream`] generated on a thread of its own.
///
/// [`spawn`](Self::spawn) moves the inner stream into a scoped producer
/// thread, which fills blocks of 32 Ki accesses and sends them over a
/// bounded channel; the reader hands drained blocks back for reuse. A
/// window inside one block is a slice of it, zero-copy; a window that
/// straddles blocks is stitched into a side buffer. The window protocol
/// is the inner stream's: windows partition the same trace, and only
/// the last one is short.
///
/// A panic in the inner stream is forwarded with its own payload and
/// re-raised by the reader when it reaches the block the panic cut
/// short, so a failed generator never looks like the end of the trace.
/// Dropping the reader early closes both channels, which ends the
/// producer at its next send; the scope's join cannot hang on it. The
/// `'scope` lifetime keeps the reader inside the scope its producer
/// runs in.
pub struct ProducerStream<'scope> {
    filled: Receiver<Filled>,
    drained: Sender<Vec<MemoryAccess>>,
    /// The block being read; empty before the first window.
    block: Vec<MemoryAccess>,
    /// Next unread index into `block`.
    pos: usize,
    /// `block` is the trace's last (short) block.
    last: bool,
    /// Accesses in a full block.
    block_len: usize,
    /// The current window: `block[start..end]`, or `stitch` when it
    /// straddles blocks.
    window: Option<Range<usize>>,
    stitch: Vec<MemoryAccess>,
    _scope: PhantomData<&'scope ()>,
}

impl<'scope> ProducerStream<'scope> {
    /// Starts generating `inner` on a new thread of `scope`.
    pub fn spawn<S>(scope: &'scope Scope<'scope, '_>, inner: S) -> Self
    where
        S: TraceStream + Send + 'scope,
    {
        Self::with_block(scope, inner, PRODUCER_BLOCK)
    }

    fn with_block<S>(scope: &'scope Scope<'scope, '_>, mut inner: S, block_len: usize) -> Self
    where
        S: TraceStream + Send + 'scope,
    {
        let (filled_tx, filled) = mpsc::sync_channel::<Filled>(PRODUCER_QUEUE);
        let (drained, drained_rx) = mpsc::channel::<Vec<MemoryAccess>>();
        scope.spawn(move || {
            let mut block: Vec<MemoryAccess> = Vec::with_capacity(block_len);
            loop {
                let fill = panic::catch_unwind(AssertUnwindSafe(|| {
                    while block.len() < block_len {
                        let want = (block_len - block.len()).min(PRODUCER_PULL);
                        let window = inner.next_window(want);
                        block.extend_from_slice(window);
                        if window.len() < want {
                            return true;
                        }
                    }
                    false
                }));
                let (sent, done) = match fill {
                    Ok(ended) => (filled_tx.send(Ok(block)), ended),
                    Err(payload) => (filled_tx.send(Err(payload)), true),
                };
                if sent.is_err() || done {
                    return;
                }
                block = drained_rx.try_recv().unwrap_or_default();
                block.clear();
                block.reserve(block_len);
            }
        });
        ProducerStream {
            filled,
            drained,
            block: Vec::new(),
            pos: 0,
            last: false,
            block_len,
            window: Some(0..0),
            stitch: Vec::new(),
            _scope: PhantomData,
        }
    }

    /// Replaces the drained block with the producer's next one.
    fn next_block(&mut self) {
        let block = match self.filled.recv() {
            Ok(Ok(block)) => block,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("trace producer stopped before the end of the trace"),
        };
        self.last = block.len() < self.block_len;
        // The producer may have finished; then the block is not needed.
        let _ = self.drained.send(std::mem::replace(&mut self.block, block));
        self.pos = 0;
    }
}

impl TraceStream for ProducerStream<'_> {
    fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
        if self.pos == self.block.len() && !self.last {
            self.next_block();
        }
        let start = self.pos;
        if self.block.len() - start >= max || self.last {
            self.pos = self.block.len().min(start + max);
            self.window = Some(start..self.pos);
            return &self.block[start..self.pos];
        }
        self.stitch.clear();
        loop {
            let take = (max - self.stitch.len()).min(self.block.len() - self.pos);
            self.stitch
                .extend_from_slice(&self.block[self.pos..self.pos + take]);
            self.pos += take;
            if self.stitch.len() == max || self.last {
                break;
            }
            self.next_block();
        }
        self.window = None;
        &self.stitch
    }

    fn window(&self) -> &[MemoryAccess] {
        match &self.window {
            Some(range) => &self.block[range.clone()],
            None => &self.stitch,
        }
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
    /// `threads` total threads, as a windowed [`TraceStream`] — what the
    /// simulation hot loop consumes, and the one way a workload emits
    /// its accesses. Single-threaded workloads may ignore the arguments
    /// for `threads == 1`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `thread >= threads` or the workload does
    /// not support the requested thread count.
    ///
    /// The returned stream is `Send` so the sharded simulation loop can
    /// pin each core's trace to a worker thread; workload state is plain
    /// data, so this costs implementations nothing.
    fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_>;

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
        fn thread_stream(&self, thread: u32, threads: u32) -> Box<dyn TraceStream + Send + '_> {
            assert!(thread < threads);
            Box::new(IterStream::new(std::iter::once(MemoryAccess::read(
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
    fn iter_stream_follows_the_window_protocol() {
        let mut s = Dummy.thread_stream(0, 1);
        assert!(s.window().is_empty(), "no window before the first call");
        assert_eq!(s.next_window(16).len(), 1);
        assert_eq!(s.window().len(), 1, "window re-borrows without advancing");
        assert!(s.next_window(16).is_empty(), "exhausted stream yields 0");
    }

    #[test]
    fn windows_partition_the_trace_exactly() {
        let accesses: Vec<MemoryAccess> = (0..10)
            .map(|i| MemoryAccess::read(VirtAddr::new(0x1000 + i * 8)))
            .collect();
        let mut s = IterStream::new(accesses.clone().into_iter());
        let mut seen = Vec::new();
        let mut lens = Vec::new();
        loop {
            let w = s.next_window(4);
            lens.push(w.len());
            if w.is_empty() {
                break;
            }
            seen.extend_from_slice(w);
        }
        assert_eq!(seen, accesses);
        assert_eq!(lens, [4, 4, 2, 0], "only the final window is short");
    }

    fn accesses(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| MemoryAccess::read(VirtAddr::new(0x1000 + i * 8)))
            .collect()
    }

    /// Every window `stream` returns for the sizes `sizes` yields in
    /// turn, until the first short one, checking that `window`
    /// re-borrows each.
    fn windows(
        stream: &mut dyn TraceStream,
        mut sizes: impl FnMut() -> usize,
    ) -> Vec<Vec<MemoryAccess>> {
        let mut out = Vec::new();
        loop {
            let max = sizes();
            let w = stream.next_window(max).to_vec();
            assert_eq!(w, stream.window(), "window re-borrows the current window");
            let short = w.len() < max;
            out.push(w);
            if short {
                return out;
            }
        }
    }

    #[test]
    fn producer_stream_keeps_the_window_protocol() {
        // A 64-access block stitches a window every few calls; the
        // lengths cover a trace that ends mid-block and one that ends
        // exactly on a block boundary.
        for n in [10_007, 64 * 40] {
            let trace = accesses(n);
            for size in [1, 7, 256, 4096] {
                let bare = windows(&mut IterStream::new(trace.clone().into_iter()), || size);
                let produced = std::thread::scope(|scope| {
                    let inner = IterStream::new(trace.clone().into_iter());
                    let mut stream = ProducerStream::with_block(scope, inner, 64);
                    assert!(
                        stream.window().is_empty(),
                        "no window before the first call"
                    );
                    let seen = windows(&mut stream, || size);
                    assert!(stream.next_window(size).is_empty(), "stays exhausted");
                    seen
                });
                assert_eq!(produced, bare, "{n} accesses, windows of {size}");
            }
            // Window sizes that change every call, as the engine's
            // interval-truncated quotas do.
            let mut state = 1u64;
            let mut sizes = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize % 300 + 1
            };
            let mut replay = sizes;
            let bare = windows(&mut IterStream::new(trace.clone().into_iter()), &mut sizes);
            let produced = std::thread::scope(|scope| {
                let inner = IterStream::new(trace.clone().into_iter());
                windows(
                    &mut ProducerStream::with_block(scope, inner, 64),
                    &mut replay,
                )
            });
            assert_eq!(produced, bare, "{n} accesses, mixed windows");
        }
    }

    #[test]
    fn producer_stream_at_full_block_size_matches_the_bare_stream() {
        let trace = accesses(3 * PRODUCER_BLOCK as u64 + 5);
        let bare = windows(&mut IterStream::new(trace.clone().into_iter()), || 256);
        let produced = std::thread::scope(|scope| {
            let inner = IterStream::new(trace.into_iter());
            windows(&mut ProducerStream::spawn(scope, inner), || 256)
        });
        assert_eq!(produced, bare);
    }

    /// Yields `windows` windows of its inner stream, then panics.
    struct Failing<S> {
        inner: S,
        windows: u32,
    }

    impl<S: TraceStream> TraceStream for Failing<S> {
        fn next_window(&mut self, max: usize) -> &[MemoryAccess] {
            assert!(self.windows > 0, "trace stream failed mid-run");
            self.windows -= 1;
            self.inner.next_window(max)
        }

        fn window(&self) -> &[MemoryAccess] {
            self.inner.window()
        }
    }

    #[test]
    fn producer_panic_reaches_the_reader_with_its_own_payload() {
        let payload = std::thread::scope(|scope| {
            let inner = Failing {
                inner: IterStream::new(accesses(100_000).into_iter()),
                windows: 20,
            };
            let mut stream = ProducerStream::with_block(scope, inner, 64);
            panic::catch_unwind(AssertUnwindSafe(
                || {
                    while stream.next_window(7).len() == 7 {}
                },
            ))
            .expect_err("a failed generator is not the end of the trace")
        });
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"trace stream failed mid-run")
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
                    IterStream::new(std::iter::repeat(MemoryAccess::read(VirtAddr::new(0x1000))));
                let mut stream = ProducerStream::with_block(scope, inner, 64);
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
        let accesses: Vec<MemoryAccess> = (0..2500)
            .map(|i| MemoryAccess::read(VirtAddr::new(0x1000 + i * 8)))
            .collect();
        let s = IterStream::new(accesses.clone().into_iter());
        let back: Vec<MemoryAccess> = StreamIter::new(s).collect();
        assert_eq!(back, accesses);
    }
}
