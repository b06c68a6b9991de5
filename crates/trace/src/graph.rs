//! Graph substrate: CSR storage, synthetic network generators, and
//! degree-based grouping (DBG) reordering.
//!
//! The paper evaluates BFS/SSSP/PageRank on a synthetic power-law network
//! (Kronecker scale 25), a social network (Twitter) and a web crawl
//! (Sd1 Arc), each in DBG-sorted and unsorted variants. We generate
//! R-MAT/Kronecker graphs with tunable skew to stand in for all three
//! (see DESIGN.md), at configurable scale.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A directed graph in Compressed Sparse Row form.
///
/// `offsets` has `n + 1` entries; the out-neighbours of vertex `u` are
/// `neighbors[offsets[u]..offsets[u+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list over `n` vertices.
    /// Self-loops are kept; duplicate edges are kept (multigraph), which
    /// matches how R-MAT generators feed the GAP kernels.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u64; n as usize];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            degree[u as usize] += 1;
        }
        let offsets = offsets_from_degrees(&degree);
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            neighbors[*c as usize] = v;
            *c += 1;
        }
        CsrGraph { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// Out-degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: u32) -> u64 {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The CSR offset array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The CSR neighbour array.
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Out-neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors_of(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Relabels vertices with `perm` (new id = `perm[old id]`), returning
    /// the renumbered graph. Used by [`degree_based_grouping`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[u32]) -> CsrGraph {
        let n = self.vertex_count();
        assert_eq!(perm.len(), n as usize, "perm length must equal n");
        let mut seen = vec![false; n as usize];
        for &p in perm {
            assert!(p < n && !seen[p as usize], "perm must be a permutation");
            seen[p as usize] = true;
        }
        // New vertex `perm[u]` gets old vertex `u`'s degree and its
        // neighbours, renamed, in the same order: the CSR `from_edges`
        // would build from the relabelled edges in source order.
        let mut degree = vec![0u64; n as usize];
        for u in 0..n {
            degree[perm[u as usize] as usize] = self.degree(u);
        }
        let offsets = offsets_from_degrees(&degree);
        let mut neighbors = vec![0u32; self.neighbors.len()];
        for u in 0..n {
            let old = self.neighbors_of(u);
            let lo = offsets[perm[u as usize] as usize] as usize;
            for (slot, &v) in neighbors[lo..lo + old.len()].iter_mut().zip(old) {
                *slot = perm[v as usize];
            }
        }
        CsrGraph { offsets, neighbors }
    }
}

/// CSR offsets for the given out-degrees: their prefix sums, from 0.
fn offsets_from_degrees(degree: &[u64]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(degree.len() + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for d in degree {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

/// Parameters of the R-MAT (recursive matrix) generator, the standard
/// Kronecker-graph construction used by Graph500 and the GAP suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// `log2` of the vertex count.
    pub scale: u32,
    /// Average directed edges per vertex.
    pub edge_factor: u32,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// Graph500/GAP Kronecker parameters (A=0.57, B=C=0.19): a heavily
    /// skewed power-law network, the paper's "Kronecker 25" at smaller
    /// scales.
    pub fn kronecker(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A milder skew approximating social networks (the Twitter stand-in).
    pub fn social(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 24,
            a: 0.50,
            b: 0.23,
            c: 0.23,
        }
    }

    /// Skew with locality bias approximating web crawls (the Sd1 Web
    /// stand-in): stronger diagonal, so ids cluster.
    pub fn web(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 20,
            a: 0.62,
            b: 0.15,
            c: 0.15,
        }
    }

    /// Uniform Erdős–Rényi-style edges (no skew); used to contrast
    /// power-law behaviour in tests.
    pub fn uniform(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.25,
            b: 0.25,
            c: 0.25,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn vertex_count(&self) -> u32 {
        1u32 << self.scale
    }

    /// Number of generated directed edges.
    pub fn edge_count(&self) -> u64 {
        u64::from(self.vertex_count()) * u64::from(self.edge_factor)
    }
}

/// `2^53`: `rng.random::<f64>()` is `k · 2⁻⁵³` for `k = next_u64() >> 11`,
/// one of this many values.
const DRAW_VALUES: u64 = 1 << 53;

/// The integer form of the draw test `r < p`: `r < p` exactly when
/// `k < draw_threshold(p)`. Both sides are exact in `f64`: `k · 2⁻⁵³` for
/// an integer `k < 2⁵³`, and `p · 2⁵³` (a power-of-two scaling). So
/// `r < p ⇔ k < p · 2⁵³ ⇔ k < ⌈p · 2⁵³⌉`; the cast saturates `p ≤ 0` to
/// "never" and the clamp keeps `p ≥ 1` at "always".
fn draw_threshold(p: f64) -> u64 {
    ((p * DRAW_VALUES as f64).ceil() as u64).min(DRAW_VALUES)
}

/// Generates an R-MAT graph deterministically from `seed`.
///
/// Each edge draws `scale` uniforms `r` and descends one quadrant per
/// draw: top-left if `r < a`, top-right if `r < a + b`, bottom-left if
/// `r < a + b + c`, else bottom-right. The draws are compared as
/// integers against [`draw_threshold`]s, which decides every draw
/// exactly as the `f64` comparisons would.
///
/// # Panics
///
/// Panics if `scale` is 0 or ≥ 31, if `a`, `b` or `c` is negative or
/// NaN, or if they sum to more than 1.
pub fn generate_rmat(params: &RmatParams, seed: u64) -> CsrGraph {
    assert!(
        params.scale > 0 && params.scale < 31,
        "scale must be 1..=30"
    );
    for (name, p) in [("a", params.a), ("b", params.b), ("c", params.c)] {
        assert!(
            p >= 0.0,
            "quadrant probability {name} must be a non-negative number, got {p}"
        );
    }
    let d = 1.0 - params.a - params.b - params.c;
    assert!(d >= -1e-9, "quadrant probabilities must sum to <= 1");
    // Non-negative parameters make the thresholds non-decreasing, so the
    // number of thresholds a draw reaches is its quadrant `q` in 0..4
    // (top-left, top-right, bottom-left, bottom-right), and `q` is
    // `2 · source bit + target bit`: the source bit is `q >= 2`, the
    // target bit is `q`'s parity.
    let t_a = draw_threshold(params.a);
    let t_ab = draw_threshold(params.a + params.b);
    let t_abc = draw_threshold(params.a + params.b + params.c);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(params.edge_count() as usize);
    for _ in 0..params.edge_count() {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..params.scale {
            let k = rng.next_u64() >> 11;
            let (ge_a, ge_ab, ge_abc) = (k >= t_a, k >= t_ab, k >= t_abc);
            u = u << 1 | u32::from(ge_ab);
            v = v << 1 | u32::from(ge_a ^ ge_ab ^ ge_abc);
        }
        edges.push((u, v));
    }
    CsrGraph::from_edges(params.vertex_count(), &edges)
}

/// Degree-Based Grouping (Faldu et al., IISWC'19): coarsely reorders
/// vertices so that similarly-hot (high-degree) vertices share pages,
/// improving cache and TLB locality. Vertices are bucketed by
/// `floor(log2(degree + 1))`, buckets ordered hottest-first, original
/// order preserved within a bucket. Returns the relabeled graph and the
/// permutation used (`perm[old] = new`).
pub fn degree_based_grouping(graph: &CsrGraph) -> (CsrGraph, Vec<u32>) {
    let n = graph.vertex_count();
    let bucket_of = |u: u32| 64 - (graph.degree(u) + 1).leading_zeros(); // ~log2
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&u| core::cmp::Reverse(bucket_of(u)));
    let mut perm = vec![0u32; n as usize];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as u32;
    }
    (graph.relabel(&perm), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_types::FxHasher;
    use proptest::prelude::*;
    use rand::Rng;
    use std::hash::Hasher;

    /// R-MAT with float draws: one `f64` per level through a three-way
    /// comparison chain, then `from_edges`. The reference
    /// `generate_rmat` must match bit for bit.
    fn generate_rmat_float_oracle(params: &RmatParams, seed: u64) -> CsrGraph {
        let n = params.vertex_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(params.edge_count() as usize);
        for _ in 0..params.edge_count() {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..params.scale {
                u <<= 1;
                v <<= 1;
                let r: f64 = rng.random();
                if r < params.a {
                    // top-left: neither bit set
                } else if r < params.a + params.b {
                    v |= 1;
                } else if r < params.a + params.b + params.c {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            edges.push((u % n, v % n));
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Relabelling through an explicit edge list and `from_edges`: the
    /// reference `relabel` must match.
    fn relabel_via_edges(g: &CsrGraph, perm: &[u32]) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..g.vertex_count() {
            for &v in g.neighbors_of(u) {
                edges.push((perm[u as usize], perm[v as usize]));
            }
        }
        CsrGraph::from_edges(g.vertex_count(), &edges)
    }

    /// The four presets and the parameter edges of the threshold
    /// mapping, at `scale`.
    fn params_under_test(scale: u32) -> Vec<RmatParams> {
        let with = |a: f64, b: f64, c: f64| RmatParams {
            scale,
            edge_factor: 8,
            a,
            b,
            c,
        };
        vec![
            RmatParams::kronecker(scale),
            RmatParams::social(scale),
            RmatParams::web(scale),
            RmatParams::uniform(scale),
            with(0.0, 0.4, 0.3),           // a = 0
            with(0.7, 0.0, 0.0),           // b = c = 0
            with(0.5, 0.25, 0.25),         // a + b + c = 1 exactly
            with(0.5, 0.25, 0.25 + 1e-10), // d = -1e-10
            with(0.0, 0.0, 0.0),           // every draw bottom-right
            with(1.0, 0.0, 0.0),           // every draw top-left
        ]
    }

    fn path_graph() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3, plus hub 0 -> {2, 3}
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)])
    }

    #[test]
    fn csr_construction() {
        let g = path_graph();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 0);
        let mut n0 = g.neighbors_of(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2, 3]);
        assert_eq!(g.offsets().len(), 5);
        assert_eq!(*g.offsets().last().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn rmat_is_deterministic() {
        let p = RmatParams::kronecker(8);
        let g1 = generate_rmat(&p, 42);
        let g2 = generate_rmat(&p, 42);
        assert_eq!(g1, g2);
        let g3 = generate_rmat(&p, 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_counts_match_params() {
        let p = RmatParams::kronecker(10);
        let g = generate_rmat(&p, 1);
        assert_eq!(g.vertex_count(), 1024);
        assert_eq!(g.edge_count(), 1024 * 16);
    }

    #[test]
    fn kronecker_is_skewed_uniform_is_not() {
        let gk = generate_rmat(&RmatParams::kronecker(12), 7);
        let gu = generate_rmat(&RmatParams::uniform(12), 7);
        let max_deg = |g: &CsrGraph| (0..g.vertex_count()).map(|u| g.degree(u)).max().unwrap();
        // Power-law: the hottest vertex is far above the mean degree (16);
        // uniform: it stays near the mean.
        assert!(max_deg(&gk) > 10 * 16, "kronecker max degree too low");
        assert!(max_deg(&gu) < 5 * 16, "uniform max degree too high");
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = path_graph();
        let perm = vec![3, 2, 1, 0]; // reverse ids
        let r = g.relabel(&perm);
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.degree(3), 3); // old vertex 0
        let mut n3 = r.neighbors_of(3).to_vec();
        n3.sort_unstable();
        assert_eq!(n3, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        let g = path_graph();
        let _ = g.relabel(&[0, 0, 1, 2]);
    }

    #[test]
    fn dbg_sorts_hot_vertices_first() {
        let g = generate_rmat(&RmatParams::kronecker(10), 3);
        let (sorted, perm) = degree_based_grouping(&g);
        assert_eq!(sorted.edge_count(), g.edge_count());
        // The new id 0 vertex must come from the hottest bucket.
        let old_of_new0 = perm.iter().position(|&p| p == 0).unwrap() as u32;
        let hottest = (0..g.vertex_count()).map(|u| g.degree(u)).max().unwrap();
        let bucket = |d: u64| 64 - (d + 1).leading_zeros();
        assert_eq!(bucket(g.degree(old_of_new0)), bucket(hottest));
        // Degrees are non-increasing at bucket granularity.
        let degs: Vec<u64> = (0..sorted.vertex_count())
            .map(|u| sorted.degree(u))
            .collect();
        let buckets: Vec<u32> = degs.iter().map(|&d| bucket(d)).collect();
        assert!(buckets.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn dbg_is_involution_safe() {
        // Applying DBG to an already-sorted graph keeps it sorted.
        let g = generate_rmat(&RmatParams::kronecker(9), 11);
        let (s1, _) = degree_based_grouping(&g);
        let (s2, _) = degree_based_grouping(&s1);
        let degs = |g: &CsrGraph| {
            (0..g.vertex_count())
                .map(|u| g.degree(u))
                .collect::<Vec<_>>()
        };
        assert_eq!(degs(&s1), degs(&s2));
    }

    #[test]
    fn draw_threshold_decides_every_draw_as_the_float_compare() {
        let unit = 1.0 / DRAW_VALUES as f64;
        let ps = [
            0.0,
            unit,
            0.19,
            0.5,
            0.57,
            0.76,
            0.95,
            1.0 - unit,
            1.0,
            1.0 + 1e-10,
        ];
        for p in ps {
            let t = draw_threshold(p);
            for k in [t.saturating_sub(1), t, t + 1] {
                let k = k.min(DRAW_VALUES - 1);
                assert_eq!(
                    (k as f64 * unit) < p,
                    k < t,
                    "p = {p}, k = {k}, threshold = {t}"
                );
            }
        }
    }

    proptest! {
        /// The integer-threshold generator builds exactly the graph the
        /// float-branch oracle builds, for every parameter set under test.
        #[test]
        fn rmat_matches_float_oracle(scale in 1u32..15, seed in any::<u64>()) {
            for p in params_under_test(scale) {
                prop_assert_eq!(generate_rmat(&p, seed), generate_rmat_float_oracle(&p, seed));
            }
        }
    }

    /// FxHash of a graph's offsets and neighbours.
    fn graph_digest(g: &CsrGraph) -> u64 {
        let mut h = FxHasher::default();
        for &o in g.offsets() {
            h.write_u64(o);
        }
        for &v in g.neighbors() {
            h.write_u32(v);
        }
        h.finish()
    }

    #[test]
    fn kronecker_16_digest_is_pinned() {
        // A change here changes every graph workload's trace, and with it
        // every pinned digest and golden downstream.
        let g = generate_rmat(&RmatParams::kronecker(16), 0xC0FFEE);
        assert_eq!(graph_digest(&g), 1_726_299_722_890_978_864);
    }

    #[test]
    fn relabel_matches_the_edge_list_construction() {
        for (params, seed) in [
            (RmatParams::kronecker(10), 3),
            (RmatParams::social(9), 5),
            (RmatParams::uniform(8), 8),
        ] {
            let g = generate_rmat(&params, seed);
            let (sorted, perm) = degree_based_grouping(&g);
            assert_eq!(sorted, relabel_via_edges(&g, &perm));
            // A permutation that moves every vertex.
            let n = g.vertex_count();
            let rotate: Vec<u32> = (0..n).map(|u| (u + 1) % n).collect();
            assert_eq!(g.relabel(&rotate), relabel_via_edges(&g, &rotate));
        }
    }

    #[test]
    #[should_panic(expected = "quadrant probability a must be a non-negative number")]
    fn negative_a_is_rejected() {
        let p = RmatParams {
            a: -0.1,
            b: 0.6,
            c: 0.5,
            ..RmatParams::kronecker(4)
        };
        let _ = generate_rmat(&p, 1);
    }

    #[test]
    #[should_panic(expected = "quadrant probability c must be a non-negative number")]
    fn negative_c_is_rejected() {
        let p = RmatParams {
            c: -1e-12,
            ..RmatParams::kronecker(4)
        };
        let _ = generate_rmat(&p, 1);
    }

    #[test]
    #[should_panic(expected = "quadrant probability b must be a non-negative number, got NaN")]
    fn nan_b_is_rejected() {
        let p = RmatParams {
            b: f64::NAN,
            ..RmatParams::kronecker(4)
        };
        let _ = generate_rmat(&p, 1);
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn oversized_sum_is_rejected() {
        let p = RmatParams {
            a: 0.6,
            b: 0.3,
            c: 0.2,
            ..RmatParams::kronecker(4)
        };
        let _ = generate_rmat(&p, 1);
    }
}
