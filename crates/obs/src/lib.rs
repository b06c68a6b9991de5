//! Flight recorder: a zero-overhead structured event and metrics layer.
//!
//! The paper's whole argument is about *visibility* — the PCC exists
//! because the OS cannot see which regions cause page-table walks. This
//! crate gives the simulator the same courtesy: every decision point
//! (TLB hits and walks, PCC updates, promotions, demotions, shootdowns,
//! interval snapshots) can emit a typed [`Event`] into a [`Recorder`].
//!
//! Three recorders ship:
//!
//! - [`NullRecorder`] — the default; every method is an inlined no-op so
//!   an uninstrumented simulation pays nothing (the simulator is generic
//!   over `R: Recorder`, so the null case monomorphizes to dead code).
//! - [`MemoryRecorder`] — buffers `(timestamp, Event)` pairs in memory
//!   for tests and programmatic inspection.
//! - [`JsonlSink`] — streams events as JSON Lines to any writer, and
//!   flushes on `Drop` so truncated runs still leave whole lines.
//! - [`Tee`] — fans one event stream out to two recorders (e.g. a raw
//!   JSONL dump plus the `hpage-telemetry` aggregator in one pass).
//!
//! Timestamps are simulation time (total accesses issued), never wall
//! clock, so recordings of a fixed-seed run are byte-stable.
//!
//! The crate is dependency-free apart from `hpage-types` (the build
//! environment is offline): JSON is emitted by the tiny hand-rolled
//! helpers in [`json`], shared with the bench crate's report writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod event;
mod harness;
mod metrics;
mod recorder;

pub use event::{
    Event, FailureReason, IntervalSnapshot, PccAction, TlbLevel, EVENT_KINDS,
    FREQ_HISTOGRAM_BUCKETS,
};
pub use harness::{CellTiming, FailureRecord, HarnessLog, SectionTiming};
pub use metrics::{IntervalRow, IntervalSeries};
pub use recorder::{JsonlSink, MemoryRecorder, NullRecorder, Recorder, Tee};
