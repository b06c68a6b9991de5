//! Telemetry: metrics, span tracing, and ledger reporting on top of
//! the flight recorder.
//!
//! `hpage-obs` gives the simulator a typed event stream; this crate
//! gives that stream *meaning*:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and log-linear
//!   [`Histogram`]s (walk latency, shootdown size, promotion
//!   latency-to-benefit, PCC occupancy), deterministic to render;
//! * [`SpanBook`] — parent/child spans of OS operations (page walk →
//!   PCC update, promotion → shootdown → compaction), emitted as
//!   chrome-trace-viewer JSON for `chrome://tracing` / Perfetto;
//! * [`TelemetryRecorder`] — the [`Recorder`](hpage_obs::Recorder)
//!   implementation that builds both from the event stream in one
//!   pass and folds in the promotion ledger's predicted-vs-realized
//!   accounting.
//!
//! The hot loop stays free: the simulator is generic over the recorder,
//! so `NullRecorder` builds compile all instrumentation away; this
//! crate is only on the code path when telemetry was asked for.
//! Everything here is keyed by simulation time and static names — no
//! wall clock, no randomness — so all rendered output is byte-stable
//! for a fixed seed, at any `--jobs` level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod recorder;
mod span;

pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{TelemetryRecorder, DEFAULT_SPAN_CAPACITY};
pub use span::{Span, SpanBook, PID_HW, PID_OS};
