//! Exact pin of a data-cache-model run.
//!
//! With the cache model on, every translated access also probes the
//! physically indexed data caches, so the engine's per-access loop
//! feeds the cache hierarchy as well as the TLBs. The unit tests in
//! `simulation.rs` check only bounds on the cache counters, and the
//! ablation golden only a two-decimal speedup row, so a change to how
//! the loop feeds the caches (order, skipped or doubled accesses) could
//! pass both. This test pins every cache counter and every TLB level's
//! count of a `SystemConfig::tiny()` run to the values the per-access
//! engine produced.

use hpage_cache::CacheConfig;
use hpage_sim::{PolicyChoice, ProcessSpec, SimReport, Simulation};
use hpage_trace::{Pattern, SyntheticBuilder, SyntheticWorkload};
use hpage_types::SystemConfig;

/// A Zipf phase over 8 MiB then a sequential sweep: hot pages the PCC
/// promotes (L1 hits at 2 MiB), a cold tail that walks, and a stream
/// that misses the data caches line by line.
fn workload(seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("cache-pin", seed);
    let arr = b.array(8, (8 << 20) / 8);
    b.phase(
        arr,
        Pattern::Zipf {
            count: 150_000,
            exponent: 0.9,
        },
        0,
    );
    b.phase(
        arr,
        Pattern::Sequential {
            stride: 1,
            count: 50_000,
        },
        0,
    );
    b.build()
}

fn run(policy: PolicyChoice, threads: u32) -> SimReport {
    let mut cfg = SystemConfig::tiny();
    cfg.timing = cfg.timing.with_cache_model();
    let w = workload(11);
    Simulation::new(cfg, policy)
        .with_cache(CacheConfig::tiny())
        .run(&[ProcessSpec::with_threads(&w, threads)])
}

/// `[cache_l2_hits, cache_llc_hits, cache_memory, l1_hits, l2_hits, walks]`.
fn counters(r: &SimReport) -> [u64; 6] {
    let a = &r.aggregate;
    [
        a.cache_l2_hits,
        a.cache_llc_hits,
        a.cache_memory,
        a.l1_hits,
        a.l2_hits,
        a.walks,
    ]
}

#[test]
fn pcc_cache_model_run_is_pinned() {
    let r = run(PolicyChoice::pcc_default(), 1);
    assert!(r.aggregate.promotions > 0, "the run must promote");
    assert_eq!(counters(&r), PCC_ONE_CORE);
}

#[test]
fn base_pages_two_core_cache_model_run_is_pinned() {
    let r = run(PolicyChoice::BasePages, 2);
    assert_eq!(counters(&r), BASE_TWO_CORES);
}

// Captured from the per-access engine loop, before L1 hits were batched.
const PCC_ONE_CORE: [u64; 6] = [8057, 17894, 78084, 180954, 4949, 14097];
const BASE_TWO_CORES: [u64; 6] = [16193, 40618, 151424, 245478, 40817, 113705];
