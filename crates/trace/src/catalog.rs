//! The evaluation-workload catalog (the paper's Table 1), plus factory
//! functions that instantiate each workload at a configurable scale.

use crate::graph::{degree_based_grouping, generate_rmat, RmatParams};
use crate::kernels::{GraphKernel, GraphWorkload};
use crate::synth::{self, SynthScale, SyntheticWorkload};
use crate::workload::{TraceSource, Workload};

/// The eight applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Breadth-First Search (GAP).
    Bfs,
    /// Single-Source Shortest Paths (GAP).
    Sssp,
    /// PageRank (GAP).
    PageRank,
    /// canneal (PARSEC).
    Canneal,
    /// omnetpp (SPEC CPU2017).
    Omnetpp,
    /// xalancbmk (SPEC CPU2017).
    Xalancbmk,
    /// dedup (PARSEC).
    Dedup,
    /// mcf (SPEC CPU2017).
    Mcf,
}

impl AppId {
    /// All applications in the paper's figure order.
    pub const ALL: [AppId; 8] = [
        AppId::Bfs,
        AppId::Sssp,
        AppId::PageRank,
        AppId::Canneal,
        AppId::Omnetpp,
        AppId::Xalancbmk,
        AppId::Dedup,
        AppId::Mcf,
    ];

    /// The three graph workloads (the paper's most TLB-sensitive set,
    /// used in Figs. 6–8).
    pub const GRAPH: [AppId; 3] = [AppId::Bfs, AppId::Sssp, AppId::PageRank];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Bfs => "BFS",
            AppId::Sssp => "SSSP",
            AppId::PageRank => "PR",
            AppId::Canneal => "canneal",
            AppId::Omnetpp => "omnetpp",
            AppId::Xalancbmk => "xalancbmk",
            AppId::Dedup => "dedup",
            AppId::Mcf => "mcf",
        }
    }

    /// Whether this is one of the graph kernels.
    pub fn is_graph(self) -> bool {
        matches!(self, AppId::Bfs | AppId::Sssp | AppId::PageRank)
    }
}

impl core::fmt::Display for AppId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The graph datasets of Table 1, approximated by R-MAT parameterisations
/// (see DESIGN.md's substitution table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Graph500 Kronecker parameters (the paper's "Kronecker 25" at a
    /// smaller scale).
    Kronecker,
    /// Social-network-like skew (the "Twitter" stand-in).
    Twitter,
    /// Web-crawl-like skew (the "Sd1 Web" stand-in).
    Web,
}

impl Dataset {
    /// All datasets.
    pub const ALL: [Dataset; 3] = [Dataset::Kronecker, Dataset::Twitter, Dataset::Web];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Kronecker => "Kronecker",
            Dataset::Twitter => "Twitter",
            Dataset::Web => "Sd1Web",
        }
    }

    /// R-MAT parameters at `scale`.
    pub fn rmat(self, scale: u32) -> RmatParams {
        match self {
            Dataset::Kronecker => RmatParams::kronecker(scale),
            Dataset::Twitter => RmatParams::social(scale),
            Dataset::Web => RmatParams::web(scale),
        }
    }
}

impl core::fmt::Display for Dataset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One row of the paper's Table 1 (applications, inputs, footprints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogRow {
    /// The application.
    pub app: AppId,
    /// Input description as printed in the paper.
    pub input: &'static str,
    /// The paper's reported footprint, bytes.
    pub paper_footprint_bytes: u64,
}

const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

/// The paper's Table 1 contents (one row per app/input pair).
pub fn paper_table1() -> Vec<CatalogRow> {
    vec![
        CatalogRow {
            app: AppId::Bfs,
            input: "Kronecker 25",
            paper_footprint_bytes: 10 * GB,
        },
        CatalogRow {
            app: AppId::Bfs,
            input: "Twitter",
            paper_footprint_bytes: 17 * GB,
        },
        CatalogRow {
            app: AppId::Bfs,
            input: "Sd1 Web",
            paper_footprint_bytes: 19 * GB,
        },
        CatalogRow {
            app: AppId::Sssp,
            input: "Kronecker 25",
            paper_footprint_bytes: 19 * GB,
        },
        CatalogRow {
            app: AppId::Sssp,
            input: "Twitter",
            paper_footprint_bytes: 34 * GB,
        },
        CatalogRow {
            app: AppId::Sssp,
            input: "Sd1 Web",
            paper_footprint_bytes: 38 * GB,
        },
        CatalogRow {
            app: AppId::PageRank,
            input: "Kronecker 25",
            paper_footprint_bytes: 10 * GB,
        },
        CatalogRow {
            app: AppId::PageRank,
            input: "Twitter",
            paper_footprint_bytes: 17 * GB,
        },
        CatalogRow {
            app: AppId::PageRank,
            input: "Sd1 Web",
            paper_footprint_bytes: 19 * GB,
        },
        CatalogRow {
            app: AppId::Canneal,
            input: "native (98MB)",
            paper_footprint_bytes: 860 * MB,
        },
        CatalogRow {
            app: AppId::Dedup,
            input: "native (672MB)",
            paper_footprint_bytes: 838 * MB,
        },
        CatalogRow {
            app: AppId::Mcf,
            input: "native (3.2MB)",
            paper_footprint_bytes: 5 * GB,
        },
        CatalogRow {
            app: AppId::Omnetpp,
            input: "native (18MB)",
            paper_footprint_bytes: 252 * MB,
        },
        CatalogRow {
            app: AppId::Xalancbmk,
            input: "native (56MB)",
            paper_footprint_bytes: 427 * MB,
        },
    ]
}

/// Scale knob for workload instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadScale {
    /// `log2` vertex count for graph workloads.
    pub graph_scale: u32,
    /// Scale for the synthetic PARSEC/SPEC stand-ins.
    pub synth: SynthScale,
    /// Whether graph inputs are DBG-sorted (the paper reports the geomean
    /// of sorted and unsorted variants).
    pub dbg_sorted: bool,
}

impl WorkloadScale {
    /// Tiny scale for unit tests (sub-second traces).
    pub const TEST: WorkloadScale = WorkloadScale {
        graph_scale: 12,
        synth: SynthScale::TEST,
        dbg_sorted: false,
    };

    /// Default benchmark scale.
    pub const BENCH: WorkloadScale = WorkloadScale {
        graph_scale: 18,
        synth: SynthScale::BENCH,
        dbg_sorted: false,
    };
}

/// A workload instance, either graph or synthetic.
#[derive(Debug, Clone)]
pub enum AnyWorkload {
    /// A graph-kernel workload.
    Graph(GraphWorkload),
    /// A synthetic PARSEC/SPEC stand-in.
    Synth(SyntheticWorkload),
}

impl Workload for AnyWorkload {
    fn name(&self) -> &str {
        match self {
            AnyWorkload::Graph(w) => w.name(),
            AnyWorkload::Synth(w) => w.name(),
        }
    }

    fn regions(&self) -> Vec<hpage_types::Region> {
        match self {
            AnyWorkload::Graph(w) => w.regions(),
            AnyWorkload::Synth(w) => w.regions(),
        }
    }

    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        match self {
            AnyWorkload::Graph(w) => w.thread_source(thread, threads),
            AnyWorkload::Synth(w) => w.thread_source(thread, threads),
        }
    }
}

/// Instantiates an application on a dataset at the given scale. The
/// `dataset` is ignored for non-graph apps. Deterministic in `seed`.
pub fn instantiate(app: AppId, dataset: Dataset, scale: WorkloadScale, seed: u64) -> AnyWorkload {
    match app {
        AppId::Bfs | AppId::Sssp | AppId::PageRank => {
            let kernel = match app {
                AppId::Bfs => GraphKernel::Bfs,
                AppId::Sssp => GraphKernel::Sssp,
                _ => GraphKernel::PageRank,
            };
            let mut graph = generate_rmat(&dataset.rmat(scale.graph_scale), seed);
            let mut name = dataset.name().to_string();
            if scale.dbg_sorted {
                graph = degree_based_grouping(&graph).0;
                name.push_str("-dbg");
            }
            AnyWorkload::Graph(GraphWorkload::new(kernel, graph, &name))
        }
        AppId::Canneal => AnyWorkload::Synth(synth::canneal(scale.synth, seed)),
        AppId::Omnetpp => AnyWorkload::Synth(synth::omnetpp(scale.synth, seed)),
        AppId::Xalancbmk => AnyWorkload::Synth(synth::xalancbmk(scale.synth, seed)),
        AppId::Dedup => AnyWorkload::Synth(synth::dedup(scale.synth, seed)),
        AppId::Mcf => AnyWorkload::Synth(synth::mcf(scale.synth, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let rows = paper_table1();
        assert_eq!(rows.len(), 14);
        // Spot-check the paper's numbers.
        let bfs_kron = rows
            .iter()
            .find(|r| r.app == AppId::Bfs && r.input == "Kronecker 25")
            .unwrap();
        assert_eq!(bfs_kron.paper_footprint_bytes, 10 * GB);
        let sssp_web = rows
            .iter()
            .find(|r| r.app == AppId::Sssp && r.input == "Sd1 Web")
            .unwrap();
        assert_eq!(sssp_web.paper_footprint_bytes, 38 * GB);
    }

    #[test]
    fn all_apps_instantiate() {
        for app in AppId::ALL {
            let w = instantiate(app, Dataset::Kronecker, WorkloadScale::TEST, 1);
            assert!(w.footprint_bytes() > 0, "{app} has no footprint");
            assert!(w.trace().next().is_some(), "{app} trace is empty");
        }
    }

    #[test]
    fn graph_datasets_differ() {
        let a = instantiate(AppId::Bfs, Dataset::Kronecker, WorkloadScale::TEST, 1);
        let b = instantiate(AppId::Bfs, Dataset::Twitter, WorkloadScale::TEST, 1);
        // Social preset has a higher edge factor, so a bigger footprint.
        assert!(b.footprint_bytes() > a.footprint_bytes());
    }

    #[test]
    fn dbg_variant_changes_trace_not_footprint() {
        let mut scale = WorkloadScale::TEST;
        let plain = instantiate(AppId::PageRank, Dataset::Kronecker, scale, 1);
        scale.dbg_sorted = true;
        let sorted = instantiate(AppId::PageRank, Dataset::Kronecker, scale, 1);
        assert_eq!(plain.footprint_bytes(), sorted.footprint_bytes());
        assert!(sorted.name().contains("dbg"));
        let t1: Vec<_> = plain.trace().take(1000).collect();
        let t2: Vec<_> = sorted.trace().take(1000).collect();
        assert_ne!(t1, t2);
    }

    #[test]
    fn names_and_classification() {
        assert_eq!(AppId::PageRank.name(), "PR");
        assert!(AppId::Bfs.is_graph());
        assert!(!AppId::Mcf.is_graph());
        assert_eq!(AppId::GRAPH.len(), 3);
        assert_eq!(Dataset::Web.to_string(), "Sd1Web");
    }
}
