//! Property-based tests over the workload substrate: graph invariants,
//! synthetic-trace budgets, reuse-distance accounting, and PWC bounds.

use hpage::tlb::PageWalkCache;
use hpage::trace::{
    degree_based_grouping, generate_rmat, CsrGraph, Pattern, ReuseAnalyzer, RmatParams,
    SyntheticBuilder, Workload,
};
use hpage::types::{PwcConfig, VirtAddr};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR construction: offsets are monotonic, end at the edge count,
    /// and each vertex's neighbour slice length equals its degree.
    #[test]
    fn csr_offsets_consistent(
        n in 2u32..64,
        edges in prop::collection::vec((0u32..64, 0u32..64), 0..256),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.vertex_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len() as u64);
        prop_assert!(g.offsets().windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*g.offsets().last().unwrap(), edges.len() as u64);
        let degree_sum: u64 = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, edges.len() as u64);
        for u in 0..n {
            prop_assert_eq!(g.neighbors_of(u).len() as u64, g.degree(u));
        }
    }

    /// DBG relabeling preserves the degree multiset and edge count.
    #[test]
    fn dbg_preserves_degree_multiset(scale in 4u32..9, seed in 0u64..1000) {
        let g = generate_rmat(&RmatParams::kronecker(scale), seed);
        let (sorted, perm) = degree_based_grouping(&g);
        prop_assert_eq!(g.edge_count(), sorted.edge_count());
        let mut d1: Vec<u64> = (0..g.vertex_count()).map(|u| g.degree(u)).collect();
        let mut d2: Vec<u64> = (0..sorted.vertex_count()).map(|u| sorted.degree(u)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        // perm maps each old vertex's degree onto the same new degree.
        for u in 0..g.vertex_count() {
            prop_assert_eq!(g.degree(u), sorted.degree(perm[u as usize]));
        }
    }

    /// A synthetic workload emits exactly the sum of its phase budgets,
    /// every access inside its declared regions.
    #[test]
    fn synth_trace_budget_and_bounds(
        counts in prop::collection::vec(1u64..200, 1..4),
        seed in 0u64..100,
    ) {
        let mut b = SyntheticBuilder::new("prop", seed);
        let a = b.array(8, 4096);
        for (i, &c) in counts.iter().enumerate() {
            let pattern = match i % 4 {
                0 => Pattern::Sequential { stride: 1, count: c },
                1 => Pattern::UniformRandom { count: c },
                2 => Pattern::Zipf { count: c, exponent: 0.8 },
                _ => Pattern::PointerChase { count: c },
            };
            b.phase(a, pattern, 20);
        }
        let w = b.build();
        let total: u64 = counts.iter().sum();
        let regions = w.regions();
        let mut n = 0u64;
        for acc in w.trace() {
            prop_assert!(regions.iter().any(|r| r.contains(acc.addr)));
            n += 1;
        }
        prop_assert_eq!(n, total);
    }

    /// Reuse-distance bookkeeping: per-page access counts sum to the
    /// total, and no mean distance can exceed the trace length.
    #[test]
    fn reuse_accounting(addrs in prop::collection::vec(0u64..64, 1..500)) {
        let mut a = ReuseAnalyzer::new();
        for &p in &addrs {
            a.observe_addr(VirtAddr::new(p * 0x1000));
        }
        let profiles = a.profiles();
        let total: u64 = profiles.iter().map(|p| p.accesses).sum();
        prop_assert_eq!(total, addrs.len() as u64);
        for p in &profiles {
            if let Some(d) = p.reuse_4k {
                prop_assert!(d >= 0.0 && d < addrs.len() as f64);
            }
        }
        let (f, h, l) = a.class_counts();
        prop_assert_eq!(f + h + l, profiles.len() as u64);
    }

    /// The PWC never reports more references than the raw walk needs,
    /// never fewer than 1, and its stats counters add up.
    #[test]
    fn pwc_reference_bounds(
        walks in prop::collection::vec((0u64..(1 << 34), 3u8..5), 1..300),
    ) {
        let mut pwc = PageWalkCache::new(PwcConfig::typical());
        for &(addr, leaf) in &walks {
            let refs = pwc.walk(VirtAddr::new(addr), leaf);
            prop_assert!(refs >= 1 && refs <= leaf);
        }
        let s = *pwc.stats();
        prop_assert_eq!(s.walks, walks.len() as u64);
        prop_assert_eq!(
            s.pde_hits + s.pdpte_hits + s.pml4e_hits + s.misses,
            s.walks
        );
        prop_assert!(s.levels_referenced >= s.walks);
    }
}
