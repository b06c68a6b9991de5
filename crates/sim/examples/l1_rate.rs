//! TLB probe rate: host nanoseconds per access through a core's TLB
//! hierarchy, driven the way the engine drives it.
//!
//! Each stream's first `ACCESSES` accesses are read into memory once and
//! then replayed through a fresh Table 2 hierarchy (`TlbConfig::paper`)
//! per pass, in windows of 256: `l1_hits` consumes the leading L1 hits,
//! the access that ends the run goes through `lookup`, and a miss is
//! filled with the access's page at the stream's fill size. Only the
//! replay is timed. The table reports the fastest of several passes, the
//! L1 hits by page size, L2 hits, walks, and a hash of the hierarchy's
//! final `stats()`, so two builds that print different rates can be seen
//! to reach the same TLB outcomes.
//!
//! * `bfs` on Kronecker at graph scale 20, every page filled at 2 MiB:
//!   the state `bfs_pcc` reaches once its hot regions are promoted,
//!   where almost every hit is a 2 MiB hit.
//! * `bfs` on the same graph, pages in even-numbered 2 MiB regions
//!   filled at 2 MiB and the rest at 4 KiB: both L1s hit, and the
//!   regions of the two sizes interleave.
//! * `mcf` at `SynthScale::TEST`, every page filled at 4 KiB: every hit
//!   is a 4 KiB hit.
//!
//! ```text
//! cargo run --release -p hpage-sim --example l1_rate [-- PASSES [ACCESSES]]
//! ```

use std::hash::Hasher;
use std::time::Instant;

use hpage_tlb::{TlbHierarchy, TlbOutcome, Translation};
use hpage_trace::{instantiate, AppId, Dataset, SynthScale, Workload, WorkloadScale};
use hpage_types::{MemoryAccess, PageSize, Pfn, TlbConfig, VirtAddr};

/// Accesses per window, one engine chunk.
const WINDOW: usize = 256;

/// Workload seed.
const SEED: u64 = 42;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The page size a stream's misses are filled at.
#[derive(Clone, Copy)]
enum Fill {
    Base,
    Huge,
    /// 2 MiB in even-numbered 2 MiB regions, 4 KiB in odd ones.
    Mixed,
}

impl Fill {
    fn size(self, addr: VirtAddr) -> PageSize {
        match self {
            Fill::Base => PageSize::Base4K,
            Fill::Huge => PageSize::Huge2M,
            Fill::Mixed if addr.vpn(PageSize::Huge2M).index().is_multiple_of(2) => PageSize::Huge2M,
            Fill::Mixed => PageSize::Base4K,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Fill::Base => "4K",
            Fill::Huge => "2M",
            Fill::Mixed => "mix",
        }
    }
}

/// Up to `limit` accesses of `w`'s single-thread stream.
fn materialize(w: &dyn Workload, limit: usize) -> Vec<MemoryAccess> {
    let mut accesses = Vec::new();
    let mut stream = w.thread_stream(0, 1);
    while accesses.len() < limit {
        let window = stream.next_window(WINDOW.min(limit - accesses.len()));
        if window.is_empty() {
            break;
        }
        accesses.extend_from_slice(window);
    }
    accesses
}

/// One pass over `accesses`, filling misses at `fill`: (seconds, the
/// hierarchy it leaves).
fn pass(accesses: &[MemoryAccess], fill: Fill) -> (f64, TlbHierarchy) {
    let mut tlb = TlbHierarchy::new(TlbConfig::paper());
    let t0 = Instant::now();
    for window in accesses.chunks(WINDOW) {
        let mut pos = 0;
        loop {
            pos += tlb.l1_hits(&window[pos..], |_, _| {});
            let Some(access) = window.get(pos) else {
                break;
            };
            if tlb.lookup(access.addr) == TlbOutcome::Miss {
                let size = fill.size(access.addr);
                let vpn = access.addr.vpn(size);
                tlb.fill(Translation {
                    vpn,
                    pfn: Pfn::new(vpn.index(), size),
                });
            }
            pos += 1;
        }
    }
    (t0.elapsed().as_secs_f64(), tlb)
}

/// Parses the optional positive integer argument at `index`.
fn arg(index: usize, default: usize) -> usize {
    match std::env::args().nth(index) {
        None => default,
        Some(arg) => match arg.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "usage: l1_rate [PASSES [ACCESSES]]  \
                     (both >= 1; defaults 5 and 8388608)"
                );
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let passes = arg(1, 5);
    let limit = arg(2, 8 << 20);
    let streams = [
        (
            "bfs/kronecker-20",
            AppId::Bfs,
            20,
            &[Fill::Huge, Fill::Mixed][..],
        ),
        ("mcf/test", AppId::Mcf, 12, &[Fill::Base]),
    ];
    println!(
        "{:<17} {:<4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}  stats hash (min of {passes} passes)",
        "stream", "fill", "accesses", "ns/access", "l1 4K", "l1 2M", "l2", "walks"
    );
    for (name, app, graph_scale, fills) in streams {
        let scale = WorkloadScale {
            graph_scale,
            synth: SynthScale::TEST,
            dbg_sorted: false,
        };
        let accesses = materialize(&instantiate(app, Dataset::Kronecker, scale, SEED), limit);
        for &fill in fills {
            report(name, &accesses, fill, passes);
        }
    }
}

/// Times `passes` passes over `accesses` and prints the stream's row.
fn report(name: &str, accesses: &[MemoryAccess], fill: Fill, passes: usize) {
    let mut best = f64::INFINITY;
    let mut first = None;
    for _ in 0..passes {
        let (secs, tlb) = pass(accesses, fill);
        let stats = tlb.stats();
        assert_eq!(*first.get_or_insert(stats), stats, "{name}: passes differ");
        best = best.min(secs);
    }
    let stats = first.expect("at least one pass");
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for word in [stats.accesses, stats.l1_hits, stats.l2_hits, stats.walks]
        .into_iter()
        .chain(stats.l1_hits_by_size)
        .chain(stats.l2_hits_by_size)
    {
        hash.write_u64(word);
    }
    println!(
        "{:<17} {:<4} {:>9} {:>9.2} {:>9} {:>9} {:>8} {:>8}  {:#018x}",
        name,
        fill.label(),
        accesses.len(),
        best * 1e9 / accesses.len().max(1) as f64,
        stats.l1_hits_by_size[0],
        stats.l1_hits_by_size[1],
        stats.l2_hits,
        stats.walks,
        hash.finish()
    );
}
