//! Trace-feed rate: host nanoseconds per generated access, for every
//! catalog app.
//!
//! Each app's whole single-thread stream (`thread_stream(0, 1)`) is
//! read in windows of 256 accesses, as the engine reads it, and timed;
//! the table reports the fastest of several passes, and a hash of the
//! stream (address and kind of every access, one multiply each), so two
//! builds that print different rates can be seen to generate the same
//! accesses.
//! Graph apps run at scale 18 (PageRank on Twitter, the rest on
//! Kronecker); the synthetic stand-ins at `SynthScale::TEST`.
//!
//! ```text
//! cargo run --release -p hpage-trace --example gen_rate [-- PASSES]
//! ```

use std::hint::black_box;
use std::time::Instant;

use hpage_trace::{instantiate, AppId, Dataset, SynthScale, Workload, WorkloadScale};
use hpage_types::AccessKind;

/// Accesses per window, one engine chunk.
const WINDOW: usize = 256;

/// Workload seed.
const SEED: u64 = 42;

/// One pass over `w`'s stream: (accesses, seconds, stream hash).
fn pass(w: &dyn Workload) -> (u64, f64, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0u64;
    let t0 = Instant::now();
    let mut stream = w.thread_stream(0, 1);
    loop {
        let window = stream.next_window(WINDOW);
        for a in black_box(window) {
            let kind = u64::from(a.kind == AccessKind::Write);
            hash = (hash ^ a.addr.raw() ^ kind << 63).wrapping_mul(0x0000_0100_0000_01b3);
        }
        len += window.len() as u64;
        if window.len() < WINDOW {
            break;
        }
    }
    (len, t0.elapsed().as_secs_f64(), hash)
}

fn main() {
    let passes: usize = match std::env::args().nth(1) {
        None => 3,
        Some(arg) => match arg.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("usage: gen_rate [PASSES]  (PASSES >= 1, default 3)");
                std::process::exit(2);
            }
        },
    };
    let scale = WorkloadScale {
        graph_scale: 18,
        synth: SynthScale::TEST,
        dbg_sorted: false,
    };
    println!(
        "{:<10} {:<10} {:>11} {:>10}  stream hash (min of {passes} passes)",
        "app", "input", "accesses", "ns/access"
    );
    for app in AppId::ALL {
        let dataset = if app == AppId::PageRank {
            Dataset::Twitter
        } else {
            Dataset::Kronecker
        };
        let w = instantiate(app, dataset, scale, SEED);
        let input = if app.is_graph() { dataset.name() } else { "-" };
        let mut best = f64::INFINITY;
        let mut first = None;
        for _ in 0..passes {
            let (len, secs, hash) = pass(&w);
            assert_eq!(
                *first.get_or_insert((len, hash)),
                (len, hash),
                "{app}: passes differ"
            );
            best = best.min(secs);
        }
        let (len, hash) = first.expect("at least one pass");
        println!(
            "{:<10} {:<10} {:>11} {:>10.2}  {hash:#018x}",
            app.name(),
            input,
            len,
            best * 1e9 / len.max(1) as f64
        );
    }
}
