//! Graph-kernel workloads: BFS, SSSP, and PageRank.
//!
//! Each kernel executes the real algorithm over a [`CsrGraph`] while
//! emitting the virtual-address stream its data-structure accesses would
//! produce (GAP-style array layouts):
//!
//! * `offsets[u]`, `offsets[u+1]` — 8-byte CSR index reads (sequential-ish,
//!   TLB-friendly);
//! * `neighbors[e]` — 4-byte edge reads (streaming within a vertex's list);
//! * per-vertex property arrays (`parent`, `dist`, `rank`) — indexed by
//!   *neighbour id*, the scattered, degree-correlated accesses the paper
//!   identifies as HUBs.
//!
//! Multithreaded variants partition vertices across threads the way the
//! OpenMP GAP kernels do (contiguous vertex ranges per thread).

use crate::graph::CsrGraph;
use crate::layout::{AddressSpaceBuilder, ArrayLayout};
use crate::workload::{TraceSource, Workload, PIECE_LEN};
use hpage_types::{MemoryAccess, Region};
use std::collections::VecDeque;

/// Which graph kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKernel {
    /// Breadth-First Search from vertex 0 (parent array).
    Bfs,
    /// Single-Source Shortest Paths from vertex 0 (Bellman-Ford rounds
    /// over an 8-byte `dist` + 4-byte `weights` array — the extra arrays
    /// give SSSP its ~2× BFS footprint, as in Table 1).
    Sssp,
    /// PageRank (default 5 power iterations over two 8-byte rank arrays).
    PageRank,
    /// Connected Components via label propagation (Shiloach-Vishkin-style
    /// sweeps). **Extension**: in the GAP suite but not in the paper's
    /// evaluation set.
    Components,
}

impl core::fmt::Display for GraphKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphKernel::Bfs => write!(f, "BFS"),
            GraphKernel::Sssp => write!(f, "SSSP"),
            GraphKernel::PageRank => write!(f, "PR"),
            GraphKernel::Components => write!(f, "CC"),
        }
    }
}

/// A graph workload: a kernel bound to a graph and a laid-out address
/// space.
#[derive(Debug, Clone)]
pub struct GraphWorkload {
    kernel: GraphKernel,
    graph: CsrGraph,
    name: String,
    offsets: ArrayLayout,
    neighbors: ArrayLayout,
    props_a: ArrayLayout,
    props_b: Option<ArrayLayout>,
    weights: Option<ArrayLayout>,
    regions: Vec<Region>,
    pr_iterations: u32,
}

impl GraphWorkload {
    /// Binds `kernel` to `graph`, laying out the kernel's arrays in a
    /// fresh address space. `dataset` names the input for reports
    /// ("Kronecker", "Twitter", …).
    pub fn new(kernel: GraphKernel, graph: CsrGraph, dataset: &str) -> Self {
        let n = u64::from(graph.vertex_count());
        let m = graph.edge_count();
        let mut asb = AddressSpaceBuilder::new();
        let offsets = asb.array(8, n + 1);
        let neighbors = asb.array(4, m);
        let (props_a, props_b, weights) = match kernel {
            GraphKernel::Bfs => (asb.array(4, n), None, None),
            GraphKernel::Sssp => (asb.array(8, n), None, Some(asb.array(4, m))),
            GraphKernel::PageRank => (asb.array(8, n), Some(asb.array(8, n)), None),
            GraphKernel::Components => (asb.array(4, n), None, None),
        };
        let regions = asb.regions().to_vec();
        GraphWorkload {
            name: format!("{kernel}-{dataset}"),
            kernel,
            graph,
            offsets,
            neighbors,
            props_a,
            props_b,
            weights,
            regions,
            pr_iterations: 5,
        }
    }

    /// Overrides the number of PageRank iterations (default 5).
    #[must_use]
    pub fn with_pr_iterations(mut self, iterations: u32) -> Self {
        self.pr_iterations = iterations.max(1);
        self
    }

    /// The kernel this workload runs.
    pub fn kernel(&self) -> GraphKernel {
        self.kernel
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The layout of the per-vertex property array the kernel scatters
    /// into — the region family where HUBs live.
    pub fn property_layout(&self) -> ArrayLayout {
        self.props_a
    }

    /// Appends the accesses of scanning vertex `u`'s out-edges to `out`:
    /// the offsets pair, then per edge the neighbour read, after which
    /// `visit(out, edge, neighbour)` appends the kernel's own property
    /// accesses.
    fn scan_vertex(
        &self,
        u: u32,
        out: &mut Vec<MemoryAccess>,
        mut visit: impl FnMut(&mut Vec<MemoryAccess>, u64, u32),
    ) {
        out.push(MemoryAccess::read(self.offsets.addr_of(u as u64)));
        out.push(MemoryAccess::read(self.offsets.addr_of(u as u64 + 1)));
        let lo = self.graph.offsets()[u as usize];
        for (k, &v) in self.graph.neighbors_of(u).iter().enumerate() {
            let e = lo + k as u64;
            out.push(MemoryAccess::read(self.neighbors.addr_of(e)));
            visit(out, e, v);
        }
    }

    fn vertex_range(&self, thread: u32, threads: u32) -> (u32, u32) {
        assert!(threads > 0 && thread < threads, "bad thread index");
        let n = self.graph.vertex_count();
        let per = n.div_ceil(threads);
        let lo = per.saturating_mul(thread).min(n);
        let hi = per.saturating_mul(thread + 1).min(n);
        (lo, hi)
    }
}

impl Workload for GraphWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        let (lo, hi) = self.vertex_range(thread, threads);
        match self.kernel {
            GraphKernel::Bfs => {
                let mut k = BfsTrace::new(self, lo, hi);
                steps(move |out| k.step(out))
            }
            GraphKernel::Sssp => {
                let mut k = SsspTrace::new(self, lo, hi);
                steps(move |out| k.step(out))
            }
            GraphKernel::PageRank => {
                let mut k = PrTrace::new(self, lo, hi);
                steps(move |out| k.step(out))
            }
            GraphKernel::Components => {
                let mut k = CcTrace::new(self, lo, hi);
                steps(move |out| k.step(out))
            }
        }
    }
}

/// A kernel's `step` as a [`TraceSource`]. Each step scans one more
/// vertex into the buffer, `false` once the kernel is done; a refill
/// steps until it has appended [`PIECE_LEN`] accesses, so the kernel
/// writes straight into the buffer its reader cuts windows from.
struct Steps<F>(F);

impl<F: FnMut(&mut Vec<MemoryAccess>) -> bool> TraceSource for Steps<F> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        let full = out.len() + PIECE_LEN;
        while out.len() < full {
            if !(self.0)(out) {
                return false;
            }
        }
        true
    }
}

fn steps<'g>(
    step: impl FnMut(&mut Vec<MemoryAccess>) -> bool + Send + 'g,
) -> Box<dyn TraceSource + Send + 'g> {
    Box::new(Steps(step))
}

/// Label-propagation connected components over the thread's partition:
/// repeated sweeps reading `labels[v]` for every neighbour and writing
/// back the minimum, until a sweep makes no change (or a sweep cap).
struct CcTrace<'g> {
    w: &'g GraphWorkload,
    labels: Vec<u32>,
    lo: u32,
    hi: u32,
    cursor: u32,
    changed: bool,
    sweeps: u32,
    max_sweeps: u32,
}

impl<'g> CcTrace<'g> {
    fn new(w: &'g GraphWorkload, lo: u32, hi: u32) -> Self {
        let n = w.graph.vertex_count();
        CcTrace {
            w,
            labels: (0..n).collect(),
            lo,
            hi,
            cursor: lo,
            changed: false,
            sweeps: 0,
            max_sweeps: 4,
        }
    }

    fn step(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        if self.cursor >= self.hi {
            self.sweeps += 1;
            if self.sweeps >= self.max_sweeps || !self.changed {
                return false;
            }
            self.cursor = self.lo;
            self.changed = false;
        }
        if self.lo >= self.hi {
            return false;
        }
        let u = self.cursor;
        self.cursor += 1;
        let w = self.w;
        let my_label = self.labels[u as usize];
        let labels = &mut self.labels;
        let changed = &mut self.changed;
        w.scan_vertex(u, out, |out, _e, v| {
            out.push(MemoryAccess::read(w.props_a.addr_of(v as u64)));
            let lv = labels[v as usize];
            let min = my_label.min(lv);
            if lv > min {
                labels[v as usize] = min;
                *changed = true;
                out.push(MemoryAccess::write(w.props_a.addr_of(v as u64)));
            }
            if labels[u as usize] > min {
                labels[u as usize] = min;
                *changed = true;
                out.push(MemoryAccess::write(w.props_a.addr_of(u as u64)));
            }
        });
        true
    }
}

/// BFS from vertex 0 restricted to vertices in `[lo, hi)` (a thread's
/// partition). Emits parent-array reads for every edge and writes on
/// discovery.
struct BfsTrace<'g> {
    w: &'g GraphWorkload,
    parent: Vec<bool>,
    queue: VecDeque<u32>,
    lo: u32,
    hi: u32,
    /// Seed vertices not yet tried (restart BFS from unvisited vertices so
    /// the whole partition's structure is traversed, like GAP's trials).
    next_seed: u32,
}

impl<'g> BfsTrace<'g> {
    fn new(w: &'g GraphWorkload, lo: u32, hi: u32) -> Self {
        let n = w.graph.vertex_count() as usize;
        let mut t = BfsTrace {
            w,
            parent: vec![false; n],
            queue: VecDeque::new(),
            lo,
            hi,
            next_seed: lo,
        };
        t.seed();
        t
    }

    fn seed(&mut self) {
        while self.next_seed < self.hi {
            let s = self.next_seed;
            self.next_seed += 1;
            if !self.parent[s as usize] {
                self.parent[s as usize] = true;
                self.queue.push_back(s);
                return;
            }
        }
    }

    fn step(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        loop {
            let Some(u) = self.queue.pop_front() else {
                self.seed();
                if self.queue.is_empty() {
                    return false;
                }
                continue;
            };
            let w = self.w;
            let parent = &mut self.parent;
            let queue = &mut self.queue;
            let (lo, hi) = (self.lo, self.hi);
            w.scan_vertex(u, out, |out, _e, v| {
                // Read parent[v]; write + enqueue when newly discovered.
                out.push(MemoryAccess::read(w.props_a.addr_of(v as u64)));
                if !parent[v as usize] {
                    parent[v as usize] = true;
                    out.push(MemoryAccess::write(w.props_a.addr_of(v as u64)));
                    if v >= lo && v < hi {
                        queue.push_back(v);
                    }
                }
            });
            return true;
        }
    }
}

/// Bellman-Ford-style SSSP over the thread's partition: `rounds` sweeps
/// relaxing every out-edge, reading `weights[e]` and `dist[v]`.
struct SsspTrace<'g> {
    w: &'g GraphWorkload,
    dist: Vec<u32>,
    lo: u32,
    hi: u32,
    round: u32,
    rounds: u32,
    cursor: u32,
    improved: bool,
}

impl<'g> SsspTrace<'g> {
    fn new(w: &'g GraphWorkload, lo: u32, hi: u32) -> Self {
        let n = w.graph.vertex_count() as usize;
        let mut dist = vec![u32::MAX / 2; n];
        dist[lo.min(n.saturating_sub(1) as u32) as usize] = 0;
        SsspTrace {
            w,
            dist,
            lo,
            hi,
            round: 0,
            rounds: 3,
            cursor: lo,
            improved: false,
        }
    }

    fn step(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        if self.cursor >= self.hi {
            // End of a sweep.
            self.round += 1;
            if self.round >= self.rounds || !self.improved {
                return false;
            }
            self.cursor = self.lo;
            self.improved = false;
        }
        if self.lo >= self.hi {
            return false;
        }
        let u = self.cursor;
        self.cursor += 1;
        let w = self.w;
        let du = self.dist[u as usize];
        let dist = &mut self.dist;
        let improved = &mut self.improved;
        let weights = w.weights.expect("sssp has weights");
        w.scan_vertex(u, out, |out, e, v| {
            out.push(MemoryAccess::read(weights.addr_of(e)));
            out.push(MemoryAccess::read(w.props_a.addr_of(v as u64)));
            // Deterministic pseudo-weight derived from the edge index.
            let wgt = (e % 16 + 1) as u32;
            let cand = du.saturating_add(wgt);
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                *improved = true;
                out.push(MemoryAccess::write(w.props_a.addr_of(v as u64)));
            }
        });
        true
    }
}

/// PageRank power iterations over the thread's partition: for each vertex,
/// gather `rank_prev[v]` from every in-edge (we use out-edges as a
/// symmetric approximation, as pull-style GAP PR does on the transpose)
/// and write `rank_next[u]`.
struct PrTrace<'g> {
    w: &'g GraphWorkload,
    lo: u32,
    hi: u32,
    iter: u32,
    iters: u32,
    cursor: u32,
}

impl<'g> PrTrace<'g> {
    fn new(w: &'g GraphWorkload, lo: u32, hi: u32) -> Self {
        PrTrace {
            w,
            lo,
            hi,
            iter: 0,
            iters: w.pr_iterations,
            cursor: lo,
        }
    }

    fn step(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        if self.cursor >= self.hi {
            self.iter += 1;
            if self.iter >= self.iters {
                return false;
            }
            self.cursor = self.lo;
        }
        if self.lo >= self.hi {
            return false;
        }
        let u = self.cursor;
        self.cursor += 1;
        let w = self.w;
        let rank_next = w.props_b.expect("pagerank has two rank arrays");
        w.scan_vertex(u, out, |out, _e, v| {
            out.push(MemoryAccess::read(w.props_a.addr_of(v as u64)));
        });
        out.push(MemoryAccess::write(rank_next.addr_of(u as u64)));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{generate_rmat, RmatParams};
    use crate::workload::StreamIter;
    use hpage_types::VirtAddr;

    fn small_graph() -> CsrGraph {
        generate_rmat(&RmatParams::kronecker(8), 5)
    }

    fn in_regions(w: &GraphWorkload, a: VirtAddr) -> bool {
        w.regions().iter().any(|r| r.contains(a))
    }

    #[test]
    fn bfs_trace_stays_in_layout() {
        let w = GraphWorkload::new(GraphKernel::Bfs, small_graph(), "Kron8");
        let mut count = 0u64;
        for acc in w.trace() {
            assert!(in_regions(&w, acc.addr), "stray access {}", acc.addr);
            count += 1;
        }
        // BFS touches every edge once from its owning vertex: at least
        // 2 offsets + 1 neighbor + 1 prop read per edge of nonzero-degree
        // vertices.
        assert!(count >= w.graph().edge_count() * 2);
    }

    #[test]
    fn bfs_visits_every_vertex() {
        let g = small_graph();
        let n = g.vertex_count();
        let w = GraphWorkload::new(GraphKernel::Bfs, g, "Kron8");
        // Every vertex's offsets slot is eventually read (seeded restarts).
        let offsets_base = w.regions()[0].start();
        let mut seen = vec![false; n as usize + 1];
        for acc in w.trace() {
            if w.regions()[0].contains(acc.addr) {
                let idx = (acc.addr.raw() - offsets_base.raw()) / 8;
                seen[idx as usize] = true;
            }
        }
        assert!(seen.iter().take(n as usize).all(|&s| s));
    }

    #[test]
    fn sssp_has_weights_and_bigger_footprint() {
        let g = small_graph();
        let bfs = GraphWorkload::new(GraphKernel::Bfs, g.clone(), "k");
        let sssp = GraphWorkload::new(GraphKernel::Sssp, g, "k");
        assert!(sssp.footprint_bytes() > bfs.footprint_bytes());
        assert!(sssp.trace().count() > 0);
    }

    #[test]
    fn pagerank_iterations_scale_trace_length() {
        let g = small_graph();
        let pr1 = GraphWorkload::new(GraphKernel::PageRank, g.clone(), "k").with_pr_iterations(1);
        let pr3 = GraphWorkload::new(GraphKernel::PageRank, g, "k").with_pr_iterations(3);
        let c1 = pr1.trace().count();
        let c3 = pr3.trace().count();
        assert_eq!(c3, 3 * c1);
    }

    #[test]
    fn traces_are_deterministic() {
        let w = GraphWorkload::new(GraphKernel::Bfs, small_graph(), "k");
        let t1: Vec<_> = w.trace().take(10_000).collect();
        let t2: Vec<_> = w.trace().take(10_000).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn thread_partitions_cover_all_vertices() {
        let g = small_graph();
        let w = GraphWorkload::new(GraphKernel::PageRank, g, "k").with_pr_iterations(1);
        // Across 4 threads, PR writes rank_next[u] exactly once per vertex.
        let rank_next = w.props_b.unwrap();
        let mut writes = 0u64;
        for t in 0..4 {
            for acc in StreamIter::new(w.thread_stream(t, 4)) {
                if acc.kind == hpage_types::AccessKind::Write
                    && rank_next.region().contains(acc.addr)
                {
                    writes += 1;
                }
            }
        }
        assert_eq!(writes, u64::from(w.graph().vertex_count()));
    }

    #[test]
    #[should_panic(expected = "bad thread index")]
    fn bad_thread_panics() {
        let w = GraphWorkload::new(GraphKernel::Bfs, small_graph(), "k");
        let _ = w.thread_stream(2, 2);
    }

    #[test]
    fn cc_converges_and_stays_in_layout() {
        let g = small_graph();
        let w = GraphWorkload::new(GraphKernel::Components, g, "Kron8");
        let mut count = 0u64;
        for acc in w.trace() {
            assert!(in_regions(&w, acc.addr), "stray access {}", acc.addr);
            count += 1;
        }
        // At least one full sweep over all edges.
        assert!(count >= w.graph().edge_count());
        assert_eq!(w.name(), "CC-Kron8");
    }

    /// Concatenates every window of thread `thread`/`threads`, pulling
    /// `max` at a time and checking the window protocol on the way.
    fn concat_windows(
        w: &GraphWorkload,
        thread: u32,
        threads: u32,
        max: usize,
    ) -> Vec<MemoryAccess> {
        let mut s = w.thread_stream(thread, threads);
        let mut got = Vec::new();
        loop {
            let win = s.next_window(max).to_vec();
            assert_eq!(win, s.window(), "window() must re-borrow");
            got.extend_from_slice(&win);
            if win.len() < max {
                assert!(s.next_window(max).is_empty(), "short window = end");
                return got;
            }
        }
    }

    #[test]
    fn streams_are_independent_of_window_size() {
        // Window sizes from one access to a whole piece: 7 straddles
        // the per-vertex bursts, and 7 and 256 leave a piece's tail to
        // be stitched to the next piece's head.
        for kernel in [
            GraphKernel::Bfs,
            GraphKernel::Sssp,
            GraphKernel::PageRank,
            GraphKernel::Components,
        ] {
            let w = GraphWorkload::new(kernel, small_graph(), "k").with_pr_iterations(1);
            for (thread, threads) in [(0, 1), (1, 3)] {
                let expect = concat_windows(&w, thread, threads, 1);
                assert!(!expect.is_empty(), "{kernel:?} {thread}/{threads}");
                for max in [7, 256, 4096] {
                    assert_eq!(
                        concat_windows(&w, thread, threads, max),
                        expect,
                        "{kernel:?} thread {thread}/{threads}, window {max}"
                    );
                }
            }
        }
    }

    #[test]
    fn names_include_kernel_and_dataset() {
        let w = GraphWorkload::new(GraphKernel::Sssp, small_graph(), "Twitter");
        assert_eq!(w.name(), "SSSP-Twitter");
    }

    #[test]
    fn property_accesses_follow_degree_skew() {
        // On a power-law graph, property reads concentrate on hot 2MB
        // regions — the foundation of the whole paper. Verify the skew.
        let g = generate_rmat(&RmatParams::kronecker(10), 9);
        let w = GraphWorkload::new(GraphKernel::PageRank, g, "k").with_pr_iterations(1);
        let props = w.property_layout();
        use std::collections::HashMap;
        let mut per_page: HashMap<u64, u64> = HashMap::new();
        for acc in w.trace() {
            if props.region().contains(acc.addr) {
                *per_page
                    .entry(acc.addr.vpn(hpage_types::PageSize::Base4K).index())
                    .or_default() += 1;
            }
        }
        let mut counts: Vec<u64> = per_page.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts.iter().take(counts.len().div_ceil(10)).sum();
        // The hottest 10% of pages should draw well over 10% of accesses.
        assert!(
            top10 * 3 > total,
            "expected skew: top-decile pages got {top10}/{total}"
        );
    }
}
