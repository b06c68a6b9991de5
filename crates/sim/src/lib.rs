//! End-to-end simulation of the paper's system: workload traces through
//! per-core TLB hierarchies and PCCs, OS promotion policies, and the
//! experiment drivers that regenerate every figure of the evaluation.
//!
//! # Example
//!
//! ```
//! use hpage_sim::{PolicyChoice, ProcessSpec, Simulation};
//! use hpage_trace::{Pattern, SyntheticBuilder, Workload};
//! use hpage_types::SystemConfig;
//!
//! // A TLB-hostile workload: random accesses over 8 MiB.
//! let mut b = SyntheticBuilder::new("demo", 7);
//! let arr = b.array(8, (8 << 20) / 8);
//! b.phase(arr, Pattern::UniformRandom { count: 200_000 }, 0);
//! let workload = b.build();
//!
//! let base = Simulation::new(SystemConfig::tiny(), PolicyChoice::BasePages)
//!     .run(&[ProcessSpec::new(&workload)]);
//! let pcc = Simulation::new(SystemConfig::tiny(), PolicyChoice::pcc_default())
//!     .run(&[ProcessSpec::new(&workload)]);
//! assert!(pcc.aggregate.walks < base.aggregate.walks);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpus;
mod experiments;
mod profile;
mod runner;
mod shard;
mod simulation;

pub use cpus::{claim_busy, cover_thread, producer_fed_cores, CpuClaim};
pub use experiments::{
    ablation_design_choices_on, consolidation_on, dataset_geomean, dataset_sweep_on,
    fig1_geomean_2m, fig1_page_sizes_on, fig2_reuse_on, fig5_utility_on, fig6_pcc_size_on,
    fig7_fragmentation_on, fig8_multithread_on, fig9_multiprocess_on, virt_on, AblationRow,
    ConsolidationConfig, ConsolidationReport, ConsolidationTenantRow, DatasetRow, Fig1Row,
    Fig2Summary, Fig6Row, Fig7Row, Fig8Row, Fig9Config, Fig9Row, VirtConfig, VirtPlacementRow,
    VirtReport, VirtVmRow,
};
pub use profile::SimProfile;
pub use runner::{
    catch_quietly, panic_message, Cell, CellFailure, Harness, SharedWorkload, EXPERIMENT_SEED,
};
pub use simulation::{PolicyChoice, ProcessSpec, SimReport, Simulation};

// Re-export the flight-recorder surface so simulator users need not
// depend on `hpage-obs` directly.
pub use hpage_obs::{
    CellTiming, Event, FailureRecord, HarnessLog, IntervalRow, IntervalSeries, JsonlSink,
    MemoryRecorder, NullRecorder, Recorder, SectionTiming, Tee,
};

// Likewise the promotion ledger, which [`SimReport::ledger`] carries.
pub use hpage_os::{LedgerEntry, LedgerSummary, PromotionLedger};
