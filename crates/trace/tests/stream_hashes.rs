//! Pins a 64-bit hash of every generator's access stream (address and
//! kind of each access, in order): the four graph kernels, a synthetic
//! preset, a synthetic workload that runs every [`Pattern`] arm, and an
//! HPT2 replay, each per thread.
//!
//! Every stream is read through its workload's own windows and again
//! through a [`Producer`], at several window sizes, and must give
//! the same hash both ways. A change to how accesses are generated,
//! buffered or handed over that moves a single access fails here.

use hpage_trace::{
    generate_rmat, omnetpp, GraphKernel, GraphWorkload, Hpt2Writer, MmapTrace, Pattern, Producer,
    RmatParams, SourceStream, SynthScale, SyntheticBuilder, SyntheticWorkload, TraceStream,
    Workload,
};
use hpage_types::{AccessKind, MemoryAccess};

/// FNV-1a over each access's address (little-endian) and a kind byte,
/// plus the access count.
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
        let kind = match a.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1u8,
        };
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
    let mut state = 1u64;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize % 300 + 1
    }
}

/// Hashes every window of `stream` for the sizes `sizes` yields, until
/// the first short one, checking on the way that `window` re-borrows
/// each window and that the stream stays exhausted.
fn hash_windows(stream: &mut dyn TraceStream, mut sizes: impl FnMut() -> usize) -> StreamHash {
    let mut h = StreamHash::new();
    loop {
        let max = sizes();
        let got = stream.next_window(max).len();
        let window = stream.window();
        assert_eq!(window.len(), got, "window re-borrows the current window");
        window.iter().for_each(|a| h.add(a));
        if got < max {
            assert!(stream.next_window(max).is_empty(), "stays exhausted");
            return h;
        }
    }
}

/// The hash of `w`'s `thread`/`threads` stream read through a producer
/// thread.
fn produced(
    w: &(dyn Workload + Sync),
    thread: u32,
    threads: u32,
    sizes: impl FnMut() -> usize,
) -> StreamHash {
    std::thread::scope(|scope| {
        let producer = Producer::spawn(scope, w.thread_source(thread, threads));
        let mut stream = SourceStream::new(producer);
        hash_windows(&mut stream, sizes)
    })
}

/// Checks `w`'s `thread`/`threads` stream against `expect`: through
/// the workload's own windows at several sizes, and through a producer
/// at every size and at mixed sizes.
fn check(label: &str, w: &(dyn Workload + Sync), thread: u32, threads: u32, expect: (u64, u64)) {
    let expect = StreamHash {
        hash: expect.0,
        len: expect.1,
    };
    for size in [1, 7, 256, 4096] {
        let bare = hash_windows(&mut *w.thread_stream(thread, threads), || size);
        assert_eq!(
            bare, expect,
            "{label} {thread}/{threads}, windows of {size}"
        );
        let via_producer = produced(w, thread, threads, || size);
        assert_eq!(
            via_producer, expect,
            "{label} {thread}/{threads}, producer, windows of {size}"
        );
    }
    let bare = hash_windows(&mut *w.thread_stream(thread, threads), mixed_sizes());
    assert_eq!(bare, expect, "{label} {thread}/{threads}, mixed windows");
    let via_producer = produced(w, thread, threads, mixed_sizes());
    assert_eq!(
        via_producer, expect,
        "{label} {thread}/{threads}, producer, mixed windows"
    );
}

fn graph_workload(kernel: GraphKernel) -> GraphWorkload {
    GraphWorkload::new(kernel, generate_rmat(&RmatParams::kronecker(10), 5), "k")
}

#[test]
fn graph_kernel_streams_are_pinned() {
    let pinned = [
        (
            GraphKernel::Bfs,
            [
                (0x2e04_348c_d7f1_0e1b, 35_631),
                (0x4aad_03f8_a6e5_a369, 8_428),
            ],
        ),
        (
            GraphKernel::Sssp,
            [
                (0x5f40_d2d5_c8bb_b4ec, 155_245),
                (0x1b2d_aa84_a94a_6f65, 22_996),
            ],
        ),
        (
            GraphKernel::PageRank,
            [
                (0x216c_9821_a90d_30cc, 179_200),
                (0x5b9f_fd6d_ccd7_b4e0, 41_170),
            ],
        ),
        (
            GraphKernel::Components,
            [
                (0xbedd_c2a7_a17e_31c2, 70_532),
                (0x87c2_973a_d39b_d50d, 33_005),
            ],
        ),
    ];
    for (kernel, expect) in pinned {
        let w = graph_workload(kernel);
        for ((thread, threads), expect) in [(0, 1), (1, 3)].into_iter().zip(expect) {
            check(&format!("{kernel:?}"), &w, thread, threads, expect);
        }
    }
}

#[test]
fn synthetic_streams_are_pinned() {
    let w = omnetpp(SynthScale::TEST, 3);
    for (thread, expect) in [
        (0, (0xc5e9_9938_5b49_65ff, 8_000_000)),
        (1, (0xbaa2_ec7c_a0ce_831d, 8_000_000)),
    ] {
        check("omnetpp", &w, thread, 2, expect);
    }
}

/// Every [`Pattern`] arm in one small workload: Zipf below, at and
/// above θ = 1, uniform, pointer chase, sequential at strides 1 and 3
/// (wrapping a 1000-element array), a one-element array, an empty array
/// and an empty budget, at write ratios 0, 37 and 100. Budgets that tie,
/// and ones whose remaining fractions meet, exercise the phase pick.
fn every_pattern_arm() -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("arms", 11);
    let big = b.array(64, 1 << 16);
    let ring = b.array(16, 1000);
    let one = b.array(8, 1);
    let none = b.array(8, 0);
    let zipf = |count, exponent| Pattern::Zipf { count, exponent };
    let seq = |stride, count| Pattern::Sequential { stride, count };
    b.phase(big, zipf(24_000, 0.6), 37)
        .phase(big, zipf(12_000, 1.0), 0)
        .phase(big, zipf(12_000, 1.3), 100)
        .phase(big, Pattern::UniformRandom { count: 9_000 }, 37)
        .phase(big, Pattern::PointerChase { count: 6_000 }, 0)
        .phase(ring, seq(1, 3_000), 100)
        .phase(ring, seq(3, 7_001), 37)
        .phase(one, zipf(2_000, 0.8), 37)
        .phase(one, Pattern::UniformRandom { count: 1_000 }, 100)
        .phase(none, seq(1, 500), 37)
        .phase(big, Pattern::UniformRandom { count: 0 }, 0);
    b.build()
}

#[test]
fn every_synthetic_pattern_arm_is_pinned() {
    let w = every_pattern_arm();
    for (thread, expect) in [
        (0, (0xd234_9f4f_208c_3210, 76_001)),
        (1, (0x2727_9ce5_29eb_96fa, 76_001)),
    ] {
        check("arms", &w, thread, 2, expect);
    }
}

#[test]
fn hpt2_replay_streams_are_pinned() {
    // The BFS stream recorded in blocks of 1000 records, so windows and
    // producer blocks straddle block restarts.
    let bfs = graph_workload(GraphKernel::Bfs);
    let mut path = std::env::temp_dir();
    path.push(format!("hpage-stream-hashes-{}.hpt2", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let mut writer = Hpt2Writer::with_block_records(file, 1000).unwrap();
    writer.write_all(bfs.trace()).unwrap();
    writer.finish().unwrap();
    let replay = MmapTrace::open("bfs-replay", &path);
    std::fs::remove_file(&path).unwrap();
    let replay = replay.unwrap();
    for (thread, expect) in [
        (0, (0xe0b3_79df_02ee_8820, 11_877)),
        (1, (0x23fa_b8e0_6933_7ede, 11_877)),
        (2, (0xdca4_6b13_db2b_660f, 11_877)),
    ] {
        check("hpt2", &replay, thread, 3, expect);
    }
}
