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
    /// matches how R-MAT generators feed the GAP kernels. Each vertex's
    /// neighbours keep their order in `edges`. Large edge lists are
    /// filed on several threads, one per 2^20 edges and at most one per
    /// core; the graph is the same at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        Self::from_edges_cut(n, edges, &setup_cuts(edges.len()))
    }

    /// [`from_edges`](Self::from_edges) with the edge list filed in
    /// parts, one per thread, that start at 0 and at each of the sorted
    /// `cuts`.
    fn from_edges_cut(n: u32, edges: &[(u32, u32)], cuts: &[usize]) -> Self {
        build_csr(n, edges.len(), cuts, |range, buckets| {
            for &(u, v) in &edges[range] {
                assert!(u < n && v < n, "edge endpoint out of range");
                buckets.push(u, v);
            }
        })
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
        // would build from the relabelled edges in source order. Each
        // permuted degree lands one past its vertex's offset, so a
        // prefix sum in place turns the degrees into the offsets.
        let mut offsets = vec![0u64; n as usize + 1];
        for u in 0..n {
            offsets[perm[u as usize] as usize + 1] = self.degree(u);
        }
        prefix_sum(&mut offsets);
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

/// Turns `counts` into their running sums in place.
fn prefix_sum(counts: &mut [u64]) {
    let mut acc = 0;
    for c in counts {
        acc += *c;
        *c = acc;
    }
}

/// Edges below which one more set-up thread does not pay for itself.
/// Every test-profile graph stays on the calling thread.
const MIN_RANGE_EDGES: usize = 1 << 20;

/// The cuts that split `m` edges into ranges of about equal length, one
/// per set-up thread: one per [`MIN_RANGE_EDGES`], at most one per
/// available core. The graph never depends on them, only its set-up
/// time does.
fn setup_cuts(m: usize) -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parts = cores.min(m.div_ceil(MIN_RANGE_EDGES).max(1));
    (1..parts).map(|k| k * m / parts).collect()
}

/// The ranges of `0..m` that start at 0 and at each of the sorted `cuts`.
fn part_ranges(m: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    let ends = cuts.iter().copied().chain([m]);
    starts.zip(ends).map(|(start, end)| start..end).collect()
}

/// Runs `work` on every item and returns the results in item order: the
/// first on the calling thread, the rest on scoped threads. A panic in
/// any of them is re-raised here with its own payload. Nothing is
/// allocated on the calling thread while `work` runs there.
fn on_threads<I: Send, R: Send>(items: Vec<I>, work: impl Fn(I) -> R + Sync) -> Vec<R> {
    let work = &work;
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let first = items.next();
        let workers: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        results.extend(first.map(work));
        for worker in workers {
            match worker.join() {
                Ok(result) => results.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

/// `log2` of the sources per block: the CSR is built one block of 4096
/// sources at a time.
const BLOCK_BITS: u32 = 12;

/// Records per full segment (6 MiB). A block's records are freed one
/// segment at a time as the block is scattered.
const SEGMENT_RECORDS: usize = 1 << 20;

/// A run of edge records of one source block, in edge order: 6 bytes
/// per edge, held in parallel arrays.
#[derive(Debug, Default)]
struct Segment {
    /// The source's offset within its block (`u & 4095`).
    low: Vec<u16>,
    /// The target.
    target: Vec<u32>,
}

/// One consecutive part of an edge list, filed by source block: the
/// part's edges whose source lies in block `b` (`b · 4096 ..
/// (b + 1) · 4096`) are the sealed segments tagged `b`, in the order
/// they filled, then `open[b]`.
#[derive(Debug)]
struct EdgeBuckets {
    /// Each block's segment that is filling. A block's first segment
    /// is allocated by its first edge, and every segment at its full
    /// capacity, so it never moves; pages it never reaches are never
    /// touched.
    open: Vec<Segment>,
    /// Full segments with their block, in the order they filled. Never
    /// grows past its initial capacity, so filing allocates nothing but
    /// segments.
    sealed: Vec<(usize, Segment)>,
    /// Records per segment: [`SEGMENT_RECORDS`], or the part's edge
    /// count if that is smaller.
    capacity: usize,
}

impl EdgeBuckets {
    /// Empty buckets for a part of `m` edges of a graph of `n` vertices.
    fn new(n: u32, m: usize) -> Self {
        let capacity = m.min(SEGMENT_RECORDS);
        let blocks = (n as usize).div_ceil(1 << BLOCK_BITS);
        EdgeBuckets {
            open: (0..blocks).map(|_| Segment::default()).collect(),
            sealed: Vec::with_capacity(m.checked_div(capacity).unwrap_or(0)),
            capacity,
        }
    }

    /// Files the edge `u → v` after every edge filed before it.
    #[inline]
    fn push(&mut self, u: u32, v: u32) {
        let block = (u >> BLOCK_BITS) as usize;
        if self.open[block].low.len() == self.open[block].low.capacity() {
            self.open_segment(block);
        }
        let open = &mut self.open[block];
        open.low.push((u & ((1 << BLOCK_BITS) - 1)) as u16);
        open.target.push(v);
    }

    /// Seals `block`'s open segment, if it has any room at all, and
    /// opens a new one.
    #[cold]
    fn open_segment(&mut self, block: usize) {
        let open = Segment {
            low: Vec::with_capacity(self.capacity),
            target: Vec::with_capacity(self.capacity),
        };
        let full = std::mem::replace(&mut self.open[block], open);
        if full.low.capacity() > 0 {
            self.sealed.push((block, full));
        }
    }

    /// `block`'s segments, in edge order.
    fn segments(&self, block: usize) -> impl Iterator<Item = &Segment> {
        let sealed = self.sealed.iter().filter(move |(b, _)| *b == block);
        sealed.map(|(_, s)| s).chain([&self.open[block]])
    }

    /// Takes `block`'s segments out, in edge order.
    fn take_segments(&mut self, block: usize) -> impl Iterator<Item = Segment> + '_ {
        let open = std::mem::take(&mut self.open[block]);
        let sealed = self.sealed.iter_mut().filter(move |(b, _)| *b == block);
        sealed.map(|(_, s)| std::mem::take(s)).chain([open])
    }
}

/// The CSR of an edge list of `m` edges over `n` vertices, filed in
/// parts, one per thread, that start at edge 0 and at each of the
/// sorted `cuts`: `file(range, buckets)` files edges `range`, in order.
///
/// Blocks are then filled in ascending order. A block's out-degrees are
/// counted from its records and prefix-summed into `offsets`; then its
/// targets are scattered into `neighbors` through one cursor per
/// source, reading part 0's segments first, then part 1's, and so on.
/// That is edge order, so each vertex's neighbours keep their order in
/// the edge list. Each segment is freed as soon as it is scattered, and
/// `neighbors` is touched only inside the current block's range, so the
/// records and the filled part of `neighbors` together stay near the
/// size of the records: about 6.5 bytes per edge with the offsets.
///
/// The CSR's arrays are allocated before any record, and the calling
/// thread allocates nothing else while the records live: an allocator
/// that keeps small blocks on a heap can then return every freed
/// segment to the system, as nothing is left on the heap above them.
fn build_csr(
    n: u32,
    m: usize,
    cuts: &[usize],
    file: impl Fn(std::ops::Range<usize>, &mut EdgeBuckets) + Sync,
) -> CsrGraph {
    let mut offsets = vec![0u64; n as usize + 1];
    let mut neighbors = vec![0u32; m];
    let mut parts = on_threads(part_ranges(m, cuts), |range| {
        let mut buckets = EdgeBuckets::new(n, range.len());
        file(range, &mut buckets);
        buckets
    });
    let n = n as usize;
    let mut cursor = [0usize; 1 << BLOCK_BITS];
    for (b, lo) in (0..n).step_by(1 << BLOCK_BITS).enumerate() {
        let hi = (lo + (1 << BLOCK_BITS)).min(n);
        // `offsets[lo + 1 + i]` counts the edges out of `lo + i`, then
        // becomes the running sum.
        let degree = &mut offsets[lo + 1..=hi];
        for segment in parts.iter().flat_map(|p| p.segments(b)) {
            for &low in &segment.low {
                degree[usize::from(low)] += 1;
            }
        }
        let mut start = offsets[lo];
        for (c, o) in cursor.iter_mut().zip(&mut offsets[lo + 1..=hi]) {
            *c = start as usize;
            start += *o;
            *o = start;
        }
        for part in &mut parts {
            for segment in part.take_segments(b) {
                for (&low, &v) in segment.low.iter().zip(&segment.target) {
                    let c = &mut cursor[usize::from(low) & ((1 << BLOCK_BITS) - 1)];
                    neighbors[*c] = v;
                    *c += 1;
                }
            }
        }
    }
    CsrGraph { offsets, neighbors }
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

    /// The largest `scale` [`generate_rmat`] accepts.
    pub const MAX_SCALE: u32 = 30;

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

/// R-MAT's per-edge descent with its draws decided on integers: the
/// validated [`draw_threshold`]s of one parameter set.
#[derive(Debug, Clone, Copy)]
struct Quadrants {
    scale: u32,
    t_a: u64,
    t_ab: u64,
    t_abc: u64,
}

impl Quadrants {
    /// # Panics
    ///
    /// Panics if `scale` is outside `1..=`[`RmatParams::MAX_SCALE`], if
    /// `a`, `b` or `c` is negative or NaN, or if they sum to more than 1.
    fn new(params: &RmatParams) -> Self {
        assert!(
            (1..=RmatParams::MAX_SCALE).contains(&params.scale),
            "scale must be 1..={}",
            RmatParams::MAX_SCALE
        );
        for (name, p) in [("a", params.a), ("b", params.b), ("c", params.c)] {
            assert!(
                p >= 0.0,
                "quadrant probability {name} must be a non-negative number, got {p}"
            );
        }
        let d = 1.0 - params.a - params.b - params.c;
        assert!(d >= -1e-9, "quadrant probabilities must sum to <= 1");
        Quadrants {
            scale: params.scale,
            t_a: draw_threshold(params.a),
            t_ab: draw_threshold(params.a + params.b),
            t_abc: draw_threshold(params.a + params.b + params.c),
        }
    }

    /// One edge from the next `scale` draws of `rng`.
    fn edge(&self, rng: &mut StdRng) -> (u32, u32) {
        // Non-negative parameters make the thresholds non-decreasing, so
        // the number of thresholds a draw reaches is its quadrant `q` in
        // 0..4 (top-left, top-right, bottom-left, bottom-right), and `q`
        // is `2 · source bit + target bit`: the source bit is `q >= 2`,
        // the target bit is `q`'s parity.
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..self.scale {
            let k = rng.next_u64() >> 11;
            let (ge_a, ge_ab, ge_abc) = (k >= self.t_a, k >= self.t_ab, k >= self.t_abc);
            u = u << 1 | u32::from(ge_ab);
            v = v << 1 | u32::from(ge_a ^ ge_ab ^ ge_abc);
        }
        (u, v)
    }
}

/// Generates an R-MAT graph deterministically from `seed`.
///
/// Each edge draws `scale` uniforms `r` and descends one quadrant per
/// draw: top-left if `r < a`, top-right if `r < a + b`, bottom-left if
/// `r < a + b + c`, else bottom-right. The draws are compared as
/// integers against [`draw_threshold`]s, which decides every draw
/// exactly as the `f64` comparisons would. Large graphs are drawn on
/// several threads; the graph is the same at any count. The edges are
/// filed by source block as they are drawn and never held as one list.
///
/// # Panics
///
/// Panics if `scale` is outside `1..=`[`RmatParams::MAX_SCALE`], if
/// `a`, `b` or `c` is negative or NaN, or if they sum to more than 1.
pub fn generate_rmat(params: &RmatParams, seed: u64) -> CsrGraph {
    rmat_cut(params, seed, setup_cuts)
}

/// [`generate_rmat`] drawn in parts, one per thread, that start at edge
/// 0 and at each of the sorted cuts `cuts(m)` returns for `m` edges.
/// Edge `i` always takes draws `i · scale` onward, so a part starting
/// at edge `lo` jumps its copy of the seeded generator `lo · scale`
/// draws ahead, and the graph is the same for any cuts.
fn rmat_cut(params: &RmatParams, seed: u64, cuts: impl FnOnce(usize) -> Vec<usize>) -> CsrGraph {
    let quadrants = Quadrants::new(params);
    let seeded = StdRng::seed_from_u64(seed);
    let m = params.edge_count() as usize;
    build_csr(params.vertex_count(), m, &cuts(m), |range, buckets| {
        let mut rng = seeded.clone();
        rng.jump(range.start as u64 * u64::from(quadrants.scale));
        for _ in range {
            let (u, v) = quadrants.edge(&mut rng);
            buckets.push(u, v);
        }
    })
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

    /// R-MAT's edge list with float draws: one `f64` per level through a
    /// three-way comparison chain.
    fn rmat_float_edges(params: &RmatParams, seed: u64) -> Vec<(u32, u32)> {
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
        edges
    }

    /// R-MAT with float draws, built by a stable sort: the reference
    /// `generate_rmat` must match bit for bit.
    fn generate_rmat_float_oracle(params: &RmatParams, seed: u64) -> CsrGraph {
        csr_by_stable_sort(params.vertex_count(), &rmat_float_edges(params, seed))
    }

    /// CSR from an edge list by a stable sort on the source, which keeps
    /// each vertex's neighbours in edge order: the reference for
    /// `from_edges` at any thread count.
    fn csr_by_stable_sort(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|&(u, _)| u);
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _) in &sorted {
            offsets[u as usize + 1] += 1;
        }
        prefix_sum(&mut offsets);
        CsrGraph {
            offsets,
            neighbors: sorted.iter().map(|&(_, v)| v).collect(),
        }
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
    fn kronecker_18_digest_is_pinned() {
        // Large enough that set-up splits it across threads by default
        // (4M edges), so this pins the multi-range path on any host with
        // more than one core.
        let g = generate_rmat(&RmatParams::kronecker(18), 0xC0FFEE);
        assert_eq!(graph_digest(&g), 5_675_821_594_307_235_066);
    }

    /// `raw` mapped to sorted cuts of `0..=m`.
    fn cuts_in(raw: &[u64], m: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = raw.iter().map(|&c| (c % (m as u64 + 1)) as usize).collect();
        cuts.sort_unstable();
        cuts
    }

    proptest! {
        /// Drawing the edges in parts that start anywhere, and filing
        /// the drawn edge list in parts cut anywhere, each give the
        /// float oracle's graph.
        #[test]
        fn graph_does_not_depend_on_ranges_or_threads(
            scale in 1u32..15,
            seed in any::<u64>(),
            raw_cuts in prop::collection::vec(any::<u64>(), 0..8),
        ) {
            for p in [
                RmatParams::kronecker(scale),
                RmatParams::social(scale),
                RmatParams::web(scale),
                RmatParams::uniform(scale),
            ] {
                let (n, m) = (p.vertex_count(), p.edge_count() as usize);
                let cuts = cuts_in(&raw_cuts, m);
                let oracle = generate_rmat_float_oracle(&p, seed);
                prop_assert_eq!(&rmat_cut(&p, seed, |_| cuts.clone()), &oracle);
                let filed = CsrGraph::from_edges_cut(n, &rmat_float_edges(&p, seed), &cuts);
                prop_assert_eq!(&filed, &oracle);
            }
        }
    }

    #[test]
    fn empty_ranges_and_more_threads_than_vertices_are_fine() {
        let p = RmatParams::social(2); // 4 vertices, 96 edges
        let oracle = generate_rmat_float_oracle(&p, 9);
        let edges = rmat_float_edges(&p, 9);
        let m = p.edge_count() as usize;
        for cuts in [vec![0, 0, m, m], vec![m; 7], vec![1, 2, 3, 95]] {
            assert_eq!(rmat_cut(&p, 9, |_| cuts.clone()), oracle);
            assert_eq!(CsrGraph::from_edges_cut(4, &edges, &cuts), oracle);
        }
        let empty = CsrGraph::from_edges_cut(3, &[], &[0; 7]);
        assert_eq!(empty.offsets(), &[0, 0, 0, 0]);
        assert_eq!(empty.edge_count(), 0);
        let no_vertices = CsrGraph::from_edges(0, &[]);
        assert_eq!(no_vertices.offsets(), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics_on_every_thread_count() {
        let _ = CsrGraph::from_edges_cut(2, &[(0, 1), (1, 0), (2, 0)], &[1, 2, 2]);
    }

    /// Sources per block, as a vertex count.
    const BLOCK: u32 = 1 << BLOCK_BITS;

    proptest! {
        /// The bucketed builder, fed in 1..=8 parts cut anywhere, gives
        /// the stable-sort CSR for edge lists whose sources spread over
        /// up to six 4096-source blocks (the last one partial), with
        /// some blocks empty and sometimes one block holding every edge.
        #[test]
        fn from_edges_matches_stable_sort_in_any_parts(
            blocks in 1u32..7,
            tail in 1u32..BLOCK + 1,
            used in any::<u64>(),
            raw_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..4000),
            raw_cuts in prop::collection::vec(any::<u64>(), 0..8),
        ) {
            let n = (blocks - 1) * BLOCK + tail;
            // The blocks that get edges: the set bits of `used` below
            // `blocks`, or one block if none is set.
            let mut live: Vec<u32> = (0..blocks).filter(|b| used >> b & 1 == 1).collect();
            if live.is_empty() {
                live.push((used % u64::from(blocks)) as u32);
            }
            let edges: Vec<(u32, u32)> = raw_edges
                .iter()
                .map(|&(a, v)| {
                    let b = live[a as usize % live.len()];
                    let width = (n - b * BLOCK).min(BLOCK);
                    (b * BLOCK + (a >> 8) % width, v % n)
                })
                .collect();
            let cuts = cuts_in(&raw_cuts, edges.len());
            let g = CsrGraph::from_edges_cut(n, &edges, &cuts);
            prop_assert_eq!(g, csr_by_stable_sort(n, &edges));
        }
    }

    #[test]
    fn full_segments_are_sealed_and_scattered_in_edge_order() {
        // More than two segments' worth of edges out of block 1, cut so
        // that one part seals a segment and the next starts mid-block.
        let m = 2 * SEGMENT_RECORDS + 3;
        let edges: Vec<(u32, u32)> = (0..m as u32)
            .map(|i| (BLOCK + i % 7, i.wrapping_mul(2_654_435_761) % (3 * BLOCK)))
            .collect();
        let oracle = csr_by_stable_sort(3 * BLOCK, &edges);
        for cuts in [vec![], vec![1, SEGMENT_RECORDS + 1]] {
            assert_eq!(CsrGraph::from_edges_cut(3 * BLOCK, &edges, &cuts), oracle);
        }
    }

    #[test]
    fn an_out_of_range_endpoint_panics_in_any_part() {
        let edges: Vec<(u32, u32)> = (0..64).map(|i| (i * 97 % 9000, i)).collect();
        for (at, bad) in [(0, (9000, 0)), (63, (0, 9000)), (40, (u32::MAX, 1))] {
            let mut edges = edges.clone();
            edges[at] = bad;
            for cuts in [vec![], vec![10, 20, 50], vec![63, 63, 64]] {
                let built =
                    std::panic::catch_unwind(|| CsrGraph::from_edges_cut(9000, &edges, &cuts));
                assert!(built.is_err(), "edge {bad:?} at {at}, cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn rmat_matches_float_oracle_over_many_blocks() {
        // Scale 17 is 32 source blocks; the proptest above stops at one.
        for p in params_under_test(17) {
            let p = RmatParams {
                edge_factor: 2,
                ..p
            };
            assert_eq!(
                generate_rmat(&p, 0x5EED),
                generate_rmat_float_oracle(&p, 0x5EED)
            );
        }
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
