//! The trace-source contract, end to end through the facade: every
//! generator (graph kernel, synthetic preset, HPT2 replay, producer
//! thread) is a [`TraceSource`] that appends pieces, and one adapter,
//! [`SourceStream`], cuts them into the windows of the [`TraceStream`]
//! protocol. These tests hold every source kind of the catalog to that
//! contract, and check that how a trace is cut into pieces never shows
//! in what a simulation reports.

use hpage::sim::{PolicyChoice, ProcessSpec, SimReport, Simulation};
use hpage::trace::{
    instantiate, AppId, Dataset, GraphKernel, GraphWorkload, Hpt2Writer, IterSource, MmapTrace,
    Pattern, Producer, SourceStream, StreamIter, SynthScale, SyntheticBuilder, SyntheticWorkload,
    TraceSource, TraceStream, Workload, WorkloadScale,
};
use hpage::types::{AccessKind, MemoryAccess, Region, SystemConfig, VirtAddr};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// Graphs of 2^10 vertices (tens of thousands of accesses per kernel);
/// the synthetic presets at their test scale (8 M accesses each).
const SCALE: WorkloadScale = WorkloadScale {
    graph_scale: 10,
    synth: SynthScale::TEST,
    dbg_sorted: false,
};

/// A synthetic workload of a few thousand accesses in four patterns.
fn small_synth(seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("small", seed);
    let a = b.array(8, 1 << 16);
    let c = b.array(64, 1 << 12);
    b.phase(
        a,
        Pattern::Sequential {
            stride: 1,
            count: 3_000,
        },
        10,
    );
    b.phase(c, Pattern::UniformRandom { count: 2_000 }, 50);
    b.phase(
        a,
        Pattern::Zipf {
            count: 2_500,
            exponent: 0.9,
        },
        0,
    );
    b.phase(c, Pattern::PointerChase { count: 1_500 }, 20);
    b.build()
}

fn graph(kernel: GraphKernel, scale: u32, seed: u64) -> GraphWorkload {
    let g = hpage::trace::generate_rmat(&Dataset::Kronecker.rmat(scale), seed);
    GraphWorkload::new(kernel, g, "Kronecker")
}

/// `n` distinct accesses, every third a write.
fn accesses(n: u64) -> Vec<MemoryAccess> {
    (0..n)
        .map(|i| {
            let addr = VirtAddr::new(0x1000_0000 + i * 64);
            if i % 3 == 0 {
                MemoryAccess::write(addr)
            } else {
                MemoryAccess::read(addr)
            }
        })
        .collect()
}

/// FNV-1a over each access's address and kind, plus the access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamHash {
    hash: u64,
    len: u64,
}

impl StreamHash {
    fn new() -> Self {
        StreamHash {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    fn add(&mut self, a: &MemoryAccess) {
        let kind = u8::from(a.kind == AccessKind::Write);
        for b in a.addr.raw().to_le_bytes().into_iter().chain([kind]) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.len += 1;
    }
}

/// Window sizes that change every call, as the engine's
/// interval-truncated quotas do.
fn mixed_sizes() -> impl FnMut() -> usize {
    let mut state = 7u64;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize % 500 + 1
    }
}

/// Reads `stream` to its end at the window sizes `sizes` yields,
/// handing each window to `visit`. Checks the protocol on the way:
/// every window but the last is exactly as long as asked, `window`
/// re-borrows the window just cut, and an ended stream stays ended.
fn read_windows(
    stream: &mut dyn TraceStream,
    mut sizes: impl FnMut() -> usize,
    mut visit: impl FnMut(&[MemoryAccess]),
) {
    loop {
        let max = sizes();
        let got = stream.next_window(max).len();
        assert!(got <= max, "a window of {got} for a request of {max}");
        let window = stream.window();
        assert_eq!(window.len(), got, "window re-borrows the current window");
        visit(window);
        if got < max {
            assert!(
                stream.next_window(max).is_empty(),
                "an ended stream stays ended"
            );
            assert!(stream.window().is_empty());
            return;
        }
    }
}

fn hash_windows(stream: &mut dyn TraceStream, sizes: impl FnMut() -> usize) -> StreamHash {
    let mut h = StreamHash::new();
    read_windows(stream, sizes, |w| w.iter().for_each(|a| h.add(a)));
    h
}

fn collect_windows(
    stream: &mut dyn TraceStream,
    sizes: impl FnMut() -> usize,
) -> Vec<MemoryAccess> {
    let mut out = Vec::new();
    read_windows(stream, sizes, |w| out.extend_from_slice(w));
    out
}

/// The hash of `w`'s `thread`/`threads` stream generated on a producer
/// thread.
fn produced(w: &(dyn Workload + Sync), thread: u32, threads: u32) -> StreamHash {
    std::thread::scope(|s| {
        let source = w.thread_source(thread, threads);
        let mut stream = SourceStream::new(Producer::spawn(s, source));
        hash_windows(&mut stream, mixed_sizes())
    })
}

/// A scripted source: hands `trace` over in pieces of the lengths
/// `lens` cycles through (zero included). With `eager_end` the refill
/// that hands over the last accesses already returns `false`. Panics
/// if asked for a piece after it has ended.
struct Pieces {
    trace: Vec<MemoryAccess>,
    lens: &'static [usize],
    next: usize,
    pos: usize,
    eager_end: bool,
    ended: bool,
}

impl Pieces {
    fn new(trace: Vec<MemoryAccess>, lens: &'static [usize], eager_end: bool) -> Self {
        Pieces {
            trace,
            lens,
            next: 0,
            pos: 0,
            eager_end,
            ended: false,
        }
    }
}

impl TraceSource for Pieces {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        assert!(!self.ended, "an ended source was asked again");
        let was_done = self.pos == self.trace.len();
        let len = self.lens[self.next % self.lens.len()];
        self.next += 1;
        let end = (self.pos + len).min(self.trace.len());
        out.extend_from_slice(&self.trace[self.pos..end]);
        self.pos = end;
        let more = if self.eager_end {
            self.pos < self.trace.len()
        } else {
            !was_done
        };
        self.ended = !more;
        more
    }
}

/// Re-cuts another source's trace into pieces of exactly `len`
/// accesses (the last one shorter).
struct Repiece<S> {
    inner: S,
    len: usize,
    buf: Vec<MemoryAccess>,
    pos: usize,
    more: bool,
}

impl<S: TraceSource> Repiece<S> {
    fn new(inner: S, len: usize) -> Self {
        Repiece {
            inner,
            len,
            buf: Vec::new(),
            pos: 0,
            more: true,
        }
    }
}

impl<S: TraceSource> TraceSource for Repiece<S> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        while self.more && self.buf.len() - self.pos < self.len {
            self.buf.drain(..self.pos);
            self.pos = 0;
            self.more = self.inner.refill(&mut self.buf);
        }
        let end = self.buf.len().min(self.pos + self.len);
        out.extend_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        self.more || self.pos < self.buf.len()
    }
}

/// A workload whose sources are another workload's, re-cut into pieces
/// of `piece` accesses.
struct Repieced<'w> {
    inner: &'w (dyn Workload + Sync),
    piece: usize,
}

impl Workload for Repieced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn regions(&self) -> Vec<Region> {
        self.inner.regions()
    }

    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        Box::new(Repiece::new(
            self.inner.thread_source(thread, threads),
            self.piece,
        ))
    }
}

/// Writes `trace` as an HPT2 file of `block_records`-record blocks
/// and maps it back. The file is removed once mapped.
fn hpt2(tag: &str, trace: impl IntoIterator<Item = MemoryAccess>, block_records: u32) -> MmapTrace {
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!(
        "hpage-trace-sources-{}-{tag}.hpt2",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).unwrap();
    let mut w =
        Hpt2Writer::with_block_records(std::io::BufWriter::new(file), block_records).unwrap();
    w.write_all(trace).unwrap();
    w.finish().unwrap();
    let mapped = MmapTrace::open(tag, &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    mapped
}

fn run(w: &dyn Workload, threads: u32, sim_threads: usize) -> SimReport {
    Simulation::new(SystemConfig::tiny(), PolicyChoice::pcc_default())
        .with_sim_threads(sim_threads)
        .run(&[ProcessSpec::with_threads(w, threads)])
}

// ---- The catalog ---------------------------------------------------

/// Every application of the evaluation streams under the window
/// protocol, to the end of its trace, at ever-changing window sizes.
#[test]
fn every_catalog_app_keeps_the_window_protocol() {
    for app in AppId::ALL {
        let w = instantiate(app, Dataset::Kronecker, SCALE, 1);
        let h = hash_windows(&mut *w.thread_stream(0, 1), mixed_sizes());
        assert!(h.len > 0, "{app} streamed nothing");
    }
}

/// Every access of every application falls inside one of the regions
/// it declares (the regions the OS maps and the PCC ranks).
#[test]
fn every_catalog_app_stays_inside_its_regions() {
    for app in AppId::ALL {
        let w = instantiate(app, Dataset::Twitter, SCALE, 2);
        let regions = w.regions();
        let mut stream = w.thread_stream(0, 1);
        read_windows(
            &mut *stream,
            || 4096,
            |win| {
                for a in win {
                    assert!(
                        regions.iter().any(|r| r.contains(a.addr)),
                        "{app}: {:?} outside its regions",
                        a.addr
                    );
                }
            },
        );
    }
}

/// The window size never changes the trace: cutting a graph kernel's
/// stream one access at a time, 7 at a time, 4096 at a time or at
/// mixed sizes gives the same accesses as its per-access iterator.
#[test]
fn graph_traces_do_not_depend_on_the_window_size() {
    for app in AppId::GRAPH {
        let w = instantiate(app, Dataset::Web, SCALE, 3);
        let whole: Vec<MemoryAccess> = w.trace().collect();
        assert!(!whole.is_empty());
        for max in [1, 7, 4096] {
            let cut = collect_windows(&mut *w.thread_stream(0, 1), || max);
            assert!(cut == whole, "{app} at windows of {max}");
        }
        let mixed = collect_windows(&mut *w.thread_stream(0, 1), mixed_sizes());
        assert!(mixed == whole, "{app} at mixed windows");
    }
}

/// The same seed gives the same trace, instance after instance; a
/// different seed gives a different one.
#[test]
fn catalog_traces_are_deterministic_in_the_seed() {
    for app in [AppId::Bfs, AppId::Sssp, AppId::PageRank, AppId::Mcf] {
        let hash = |seed| {
            let w = instantiate(app, Dataset::Kronecker, SCALE, seed);
            let mut stream = w.thread_stream(0, 1);
            hash_windows(&mut *stream, || 4096)
        };
        assert_eq!(hash(5), hash(5), "{app} is not deterministic");
        assert_ne!(hash(5), hash(6), "{app} ignores its seed");
    }
}

/// A graph kernel split over threads gives each thread a stream of its
/// own, and a synthetic preset draws each thread from its own random
/// stream: no two threads replay the same trace.
#[test]
fn threads_of_one_workload_stream_different_traces() {
    let bfs = graph(GraphKernel::Bfs, 10, 1);
    let synth = small_synth(1);
    for w in [&bfs as &dyn Workload, &synth] {
        let hashes: Vec<StreamHash> = (0..3)
            .map(|t| hash_windows(&mut *w.thread_stream(t, 3), mixed_sizes()))
            .collect();
        assert!(
            hashes.iter().all(|h| h.len > 0),
            "{}: an idle thread",
            w.name()
        );
        assert_ne!(hashes[0], hashes[1], "{}", w.name());
        assert_ne!(hashes[1], hashes[2], "{}", w.name());
        assert_ne!(hashes[0], hashes[2], "{}", w.name());
    }
}

/// The connected-components kernel, outside the paper's catalog, keeps
/// the protocol too and touches only its own regions.
#[test]
fn components_kernel_keeps_the_window_protocol() {
    let w = graph(GraphKernel::Components, 10, 4);
    let regions = w.regions();
    let mut n = 0u64;
    read_windows(&mut *w.thread_stream(0, 1), mixed_sizes(), |win| {
        n += win.len() as u64;
        assert!(win
            .iter()
            .all(|a| regions.iter().any(|r| r.contains(a.addr))));
    });
    assert!(n > 0);
    assert_eq!(n, w.trace().count() as u64);
}

/// Asking for a thread outside `0..threads` is refused by every source
/// kind, before a single access is generated.
#[test]
fn thread_outside_the_thread_count_is_refused() {
    let bfs = graph(GraphKernel::Bfs, 8, 1);
    let synth = small_synth(2);
    let replay = hpt2("refused", small_synth(3).trace(), 512);
    for w in [&bfs as &dyn Workload, &synth, &replay] {
        for (thread, threads) in [(3, 3), (1, 1), (0, 0)] {
            let refused =
                panic::catch_unwind(AssertUnwindSafe(|| drop(w.thread_source(thread, threads))));
            assert!(
                refused.is_err(),
                "{} accepted thread {thread} of {threads}",
                w.name()
            );
        }
    }
}

// ---- The source contract -------------------------------------------

/// `refill` appends after what the buffer already holds, for every
/// source kind: the held accesses stay, and what follows is what the
/// source hands an empty buffer.
#[test]
fn refill_appends_after_what_the_buffer_holds() {
    let bfs = graph(GraphKernel::Sssp, 9, 1);
    let synth = small_synth(4);
    let replay = hpt2("appends", small_synth(5).trace(), 300);
    for w in [&bfs as &dyn Workload, &synth, &replay] {
        let mut fresh = Vec::new();
        w.thread_source(0, 1).refill(&mut fresh);
        assert!(!fresh.is_empty(), "{}: an empty first piece", w.name());
        let held = accesses(37);
        let mut out = held.clone();
        w.thread_source(0, 1).refill(&mut out);
        assert_eq!(&out[..held.len()], &held[..], "{}", w.name());
        assert_eq!(&out[held.len()..], &fresh[..], "{}", w.name());
    }
}

/// Empty pieces are not the end of a trace: the adapter asks again,
/// and every window but the last is still full.
#[test]
fn empty_pieces_are_skipped() {
    let trace = accesses(1000);
    for lens in [&[0, 0, 3][..], &[5, 0], &[0, 250, 0, 0, 1]] {
        let mut stream = SourceStream::new(Pieces::new(trace.clone(), lens, false));
        assert_eq!(
            collect_windows(&mut stream, mixed_sizes()),
            trace,
            "pieces {lens:?}"
        );
    }
}

/// A source may end on the refill that hands over its last accesses:
/// they still reach the windows, and the source is not asked again
/// (a [`Pieces`] asked again panics).
#[test]
fn the_last_piece_of_an_eagerly_ended_source_is_read() {
    let trace = accesses(777);
    for lens in [&[100][..], &[777], &[1000], &[3, 0, 41]] {
        let mut stream = SourceStream::new(Pieces::new(trace.clone(), lens, true));
        assert_eq!(
            collect_windows(&mut stream, mixed_sizes()),
            trace,
            "pieces {lens:?}"
        );
        assert!(stream.next_window(10).is_empty());
        assert!(stream.next_window(10).is_empty());
    }
}

/// A source that ends without a single access gives an empty first
/// window, and stays ended.
#[test]
fn a_source_without_accesses_streams_nothing() {
    for eager_end in [false, true] {
        let mut stream = SourceStream::new(Pieces::new(Vec::new(), &[0, 4], eager_end));
        assert!(stream.window().is_empty());
        assert!(stream.next_window(16).is_empty());
        assert!(stream.next_window(1).is_empty());
        assert!(stream.window().is_empty());
    }
    let mut stream = SourceStream::new(IterSource::new(std::iter::empty()));
    assert!(stream.next_window(256).is_empty());
}

/// Before the first cut the current window is empty.
#[test]
fn window_is_empty_before_the_first_cut() {
    let w = small_synth(6);
    let stream = w.thread_stream(0, 1);
    assert!(stream.window().is_empty());
    let stream = SourceStream::new(Pieces::new(accesses(10), &[4], false));
    assert!(stream.window().is_empty());
}

/// A window of zero accesses neither advances the stream nor ends it:
/// the next window starts where the trace does.
#[test]
fn a_zero_length_window_does_not_advance() {
    let trace = accesses(300);
    let mut stream = SourceStream::new(Pieces::new(trace.clone(), &[128], false));
    assert!(stream.next_window(0).is_empty());
    assert_eq!(stream.next_window(5), &trace[..5]);
    assert!(stream.next_window(0).is_empty());
    assert_eq!(stream.next_window(200), &trace[5..205]);
    assert_eq!(stream.next_window(200), &trace[205..]);
    assert!(stream.next_window(0).is_empty());
}

/// A window that straddles pieces is stitched, and `window` re-reads
/// it as often as asked, unchanged, until the next cut.
#[test]
fn a_stitched_window_can_be_reread() {
    let trace = accesses(100);
    let mut stream = SourceStream::new(Pieces::new(trace.clone(), &[3], false));
    assert_eq!(stream.next_window(10), &trace[..10]);
    for _ in 0..3 {
        assert_eq!(stream.window(), &trace[..10]);
    }
    assert_eq!(stream.next_window(2), &trace[10..12]);
    assert_eq!(stream.window(), &trace[10..12]);
    assert_eq!(stream.next_window(50), &trace[12..62]);
    assert_eq!(stream.window(), &trace[12..62]);
}

/// A window longer than the whole trace returns the whole trace, short,
/// which ends the stream.
#[test]
fn a_window_longer_than_the_trace_returns_all_of_it() {
    let trace = accesses(1234);
    for lens in [&[1234][..], &[100], &[1], &[5000]] {
        let mut stream = SourceStream::new(Pieces::new(trace.clone(), lens, false));
        assert_eq!(stream.next_window(1 << 20), &trace[..], "pieces {lens:?}");
        assert!(stream.next_window(1 << 20).is_empty());
    }
}

/// A boxed source streams exactly like the source it boxes.
#[test]
fn a_boxed_source_streams_like_the_source() {
    let w = small_synth(7);
    let direct = hash_windows(&mut SourceStream::new(w.thread_source(0, 1)), mixed_sizes());
    let boxed: Box<dyn TraceSource + Send> =
        Box::new(Pieces::new(w.trace().collect(), &[33], true));
    let via_box = hash_windows(&mut SourceStream::new(boxed), mixed_sizes());
    assert_eq!(direct, via_box);
}

/// `IterSource` hands an iterator over in pieces that partition it:
/// every piece but the last is the same length, and only the refill
/// that meets the end says so.
#[test]
fn iter_source_pieces_partition_the_iterator() {
    for n in [0u64, 1, 255, 256, 257, 1000, 4096] {
        let trace = accesses(n);
        let mut source = IterSource::new(trace.clone().into_iter());
        let mut pieces = Vec::new();
        loop {
            let mut piece = Vec::new();
            let more = source.refill(&mut piece);
            pieces.push(piece);
            if !more {
                break;
            }
        }
        let joined: Vec<MemoryAccess> = pieces.concat();
        assert_eq!(joined, trace, "n = {n}");
        let (last, init) = pieces.split_last().unwrap();
        if let Some(first) = init.first() {
            assert!(init.iter().all(|p| p.len() == first.len()), "n = {n}");
            assert!(last.len() < first.len(), "n = {n}");
        }
    }
}

/// `StreamIter` yields every access of a stream once, in order, at
/// lengths on both sides of the window it pulls through.
#[test]
fn stream_iter_yields_every_access_once() {
    for n in [0u64, 1, 1023, 1024, 1025, 5000] {
        let trace = accesses(n);
        let stream = SourceStream::new(Pieces::new(trace.clone(), &[300, 0, 17], false));
        let back: Vec<MemoryAccess> = StreamIter::new(stream).collect();
        assert_eq!(back, trace, "n = {n}");
    }
}

// ---- Producer threads ----------------------------------------------

/// Generated on a producer thread, every source kind streams the same
/// accesses as generated in place, for every thread of the split.
#[test]
fn a_producer_streams_like_the_source_for_every_source_kind() {
    let sssp = graph(GraphKernel::Sssp, 10, 2);
    let pr = graph(GraphKernel::PageRank, 9, 2);
    let synth = small_synth(8);
    let replay = hpt2("producer", graph(GraphKernel::Bfs, 10, 3).trace(), 1000);
    for w in [&sssp as &(dyn Workload + Sync), &pr, &synth, &replay] {
        for (thread, threads) in [(0, 1), (0, 2), (1, 2)] {
            let direct = hash_windows(&mut *w.thread_stream(thread, threads), mixed_sizes());
            assert_eq!(
                produced(w, thread, threads),
                direct,
                "{} {thread}/{threads}",
                w.name()
            );
        }
    }
}

/// A producer over a source without accesses ends its reader's stream
/// at once.
#[test]
fn a_producer_of_nothing_ends_at_once() {
    std::thread::scope(|s| {
        for eager_end in [false, true] {
            let source = Pieces::new(Vec::new(), &[0, 0, 9], eager_end);
            let mut stream = SourceStream::new(Producer::spawn(s, source));
            assert!(stream.next_window(64).is_empty());
            assert!(stream.next_window(64).is_empty());
        }
    });
}

/// A piece longer than a producer's block is carried whole, and the
/// pieces around it keep their order.
#[test]
fn a_producer_carries_pieces_longer_than_its_block() {
    let trace = accesses(200_000);
    std::thread::scope(|s| {
        let source = Pieces::new(trace.clone(), &[100_000, 5, 0, 70_000], false);
        let mut stream = SourceStream::new(Producer::spawn(s, source));
        assert_eq!(collect_windows(&mut stream, mixed_sizes()), trace);
    });
}

/// Several producers in one scope, read in turn one window at a time,
/// each deliver their own source's trace.
#[test]
fn producers_in_one_scope_stay_independent() {
    let a = graph(GraphKernel::Bfs, 10, 9);
    let b = small_synth(9);
    let c = graph(GraphKernel::PageRank, 9, 9);
    let workloads = [&a as &(dyn Workload + Sync), &b, &c];
    let expected: Vec<Vec<MemoryAccess>> = workloads.iter().map(|w| w.trace().collect()).collect();
    std::thread::scope(|s| {
        let mut streams: Vec<_> = workloads
            .iter()
            .map(|w| SourceStream::new(Producer::spawn(s, w.thread_source(0, 1))))
            .collect();
        let mut got = vec![Vec::new(); streams.len()];
        let mut open = streams.len();
        let mut sizes = mixed_sizes();
        while open > 0 {
            open = 0;
            for (stream, out) in streams.iter_mut().zip(&mut got) {
                let max = sizes();
                let w = stream.next_window(max);
                out.extend_from_slice(w);
                if w.len() == max {
                    open += 1;
                }
            }
        }
        assert!(got == expected);
    });
}

/// A reader that stops early lets its producer, midway through a long
/// trace, end with the scope.
#[test]
fn a_reader_that_stops_early_releases_its_producer() {
    let w = instantiate(AppId::Canneal, Dataset::Kronecker, SCALE, 1);
    let first: Vec<MemoryAccess> = w.trace().take(1000).collect();
    std::thread::scope(|s| {
        let mut stream = SourceStream::new(Producer::spawn(s, w.thread_source(0, 1)));
        assert_eq!(stream.next_window(1000), &first[..]);
    });
}

/// A generator's panic reaches the reader of its producer with its own
/// payload, after the accesses generated before it.
#[test]
fn a_producer_forwards_its_generators_panic() {
    struct Bursting(u32);
    impl TraceSource for Bursting {
        fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
            self.0 += 1;
            if self.0 > 3 {
                panic!("generator failed at piece {}", self.0);
            }
            out.extend(accesses(10));
            true
        }
    }
    let caught = panic::catch_unwind(|| {
        std::thread::scope(|s| {
            let mut stream = SourceStream::new(Producer::spawn(s, Bursting(0)));
            let first = stream.next_window(30).to_vec();
            assert_eq!(first.len(), 30, "the pieces before the panic arrive");
            stream.next_window(1);
        })
    });
    let payload = caught.expect_err("the panic reached the reader");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert_eq!(msg, "generator failed at piece 4");
}

// ---- HPT2 replay ----------------------------------------------------

/// A recorded trace replays access for access, for graph kernels and
/// synthetic presets alike.
#[test]
fn hpt2_replay_reproduces_the_recorded_trace() {
    let kernels = [
        GraphKernel::Bfs,
        GraphKernel::Sssp,
        GraphKernel::PageRank,
        GraphKernel::Components,
    ];
    for (i, kernel) in kernels.into_iter().enumerate() {
        let w = graph(kernel, 9, 11);
        let replay = hpt2(&format!("replay{i}"), w.trace(), 4096);
        let expected = hash_windows(&mut *w.thread_stream(0, 1), || 4096);
        assert_eq!(
            hash_windows(&mut *replay.thread_stream(0, 1), mixed_sizes()),
            expected
        );
        assert_eq!(replay.records(), expected.len);
    }
    let synth = small_synth(11);
    let replay = hpt2("replay-synth", synth.trace(), 4096);
    assert!(replay.trace().eq(synth.trace()));
}

/// The block size a trace was recorded with does not show in its
/// replay.
#[test]
fn hpt2_block_size_is_invisible_to_the_replay() {
    let trace: Vec<MemoryAccess> = small_synth(12).trace().collect();
    for block in [1, 7, 256, 1000, hpage::trace::DEFAULT_BLOCK_RECORDS] {
        let replay = hpt2(&format!("block{block}"), trace.iter().copied(), block);
        let back = collect_windows(&mut *replay.thread_stream(0, 1), mixed_sizes());
        assert!(back == trace, "block size {block}");
    }
}

/// Replayed over `threads` cores, core `t` replays records
/// `t, t + threads, …`: the cores partition the recorded trace.
#[test]
fn hpt2_threads_partition_the_records() {
    let trace: Vec<MemoryAccess> = small_synth(13).trace().collect();
    let replay = hpt2("partition", trace.iter().copied(), 333);
    for threads in [1u32, 2, 3, 5] {
        for t in 0..threads {
            let expected: Vec<MemoryAccess> = trace
                .iter()
                .copied()
                .skip(t as usize)
                .step_by(threads as usize)
                .collect();
            let got = collect_windows(&mut *replay.thread_stream(t, threads), mixed_sizes());
            assert!(got == expected, "thread {t} of {threads}");
        }
    }
}

// ---- What a simulation sees ----------------------------------------

/// How a trace is cut into pieces never shows in a simulation's report,
/// single- or multi-threaded.
#[test]
fn piece_length_is_invisible_to_the_simulation() {
    let bfs = graph(GraphKernel::Bfs, 10, 21);
    for (threads, sim_threads) in [(1, 1), (2, 2)] {
        let baseline = run(&bfs, threads, sim_threads);
        assert!(baseline.aggregate.accesses > 0);
        for piece in [1, 7, 4096] {
            let repieced = Repieced { inner: &bfs, piece };
            assert!(
                run(&repieced, threads, sim_threads) == baseline,
                "pieces of {piece} at {threads} threads"
            );
        }
    }
}

/// A simulation of a recorded trace reports the same as a simulation of
/// the same trace generated in place, once the regions agree.
#[test]
fn a_replayed_trace_simulates_like_the_generated_one() {
    let synth = small_synth(22);
    let replay = hpt2("simulate", synth.trace(), 1000);
    let generated = Repieced {
        inner: &synth,
        piece: 256,
    };
    struct WithRegions<'w> {
        inner: &'w (dyn Workload + Sync),
        regions: Vec<Region>,
    }
    impl Workload for WithRegions<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn regions(&self) -> Vec<Region> {
            self.regions.clone()
        }
        fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
            self.inner.thread_source(thread, threads)
        }
    }
    let generated = WithRegions {
        inner: &generated,
        regions: replay.regions(),
    };
    let a = run(&generated, 1, 1);
    let b = run(&replay, 1, 1);
    assert_eq!(a.aggregate, b.aggregate);
}
