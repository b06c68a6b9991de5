//! The [`Workload`] abstraction: something that owns a virtual address
//! space layout and can emit the memory-access trace of its execution.

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
