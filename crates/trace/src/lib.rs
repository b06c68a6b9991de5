//! Workload substrate: graph generators and kernels, synthetic
//! application stand-ins, deterministic address-space layout, and the
//! page-reuse-distance analysis of the paper's §3.1.
//!
//! Every workload implements [`Workload`]: it owns a laid-out virtual
//! address space and emits the memory-access stream its execution
//! produces. The streams feed the TLB+PCC simulation in `hpage-sim`.
//!
//! # Example
//!
//! ```
//! use hpage_trace::{instantiate, AppId, Dataset, Workload, WorkloadScale};
//!
//! let bfs = instantiate(AppId::Bfs, Dataset::Kronecker, WorkloadScale::TEST, 42);
//! let first_thousand: Vec<_> = bfs.trace().take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
//! ```

// `deny` rather than `forbid`: the mmap module opts back in (each
// unsafe block carries its SAFETY argument); everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod graph;
mod hpt2;
mod kernels;
mod layout;
mod mmap;
mod reuse;
mod synth;
mod wcache;
mod workload;

pub use catalog::{
    instantiate, paper_table1, AnyWorkload, AppId, CatalogRow, Dataset, WorkloadScale,
};
pub use graph::{degree_based_grouping, generate_rmat, CsrGraph, RmatParams};
pub use hpt2::{Hpt2Writer, MmapTrace, DEFAULT_BLOCK_RECORDS};
pub use kernels::{GraphKernel, GraphWorkload};
pub use layout::{AddressSpaceBuilder, ArrayLayout, HEAP_BASE};
pub use mmap::{Advice, Mmap};
pub use reuse::{PageProfile, ReuseAnalyzer, ReuseClass};
pub use synth::{
    canneal, dedup, gups, hashjoin, mcf, omnetpp, xalancbmk, Pattern, SynthScale, SyntheticBuilder,
    SyntheticWorkload,
};
pub use wcache::{CacheStats, WorkloadCache, WorkloadKey};
pub use workload::{
    IterSource, Producer, SourceStream, StreamIter, TraceSource, TraceStream, Workload,
};
