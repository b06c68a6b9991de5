//! [`TelemetryRecorder`]: the aggregating [`Recorder`] that turns the
//! flight-recorder event stream into metrics, causally-linked spans,
//! and a per-interval text summary — in one pass, with no intermediate
//! event buffer.

use hpage_obs::{Event, FailureReason, PccAction, Recorder, TlbLevel};
use hpage_os::PromotionLedger;
use hpage_types::{FxHashMap, PageSize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::MetricsRegistry;
use crate::span::{SpanBook, PID_HW, PID_OS};

/// Counter values captured at the last interval boundary, for
/// per-interval deltas in the text summary.
#[derive(Debug, Clone, Copy, Default)]
struct SummaryMark {
    walks: u64,
    hits: u64,
    promotions: u64,
    demotions: u64,
    shootdowns: u64,
    faults: u64,
}

/// Aggregates the event stream into a [`MetricsRegistry`] and a
/// [`SpanBook`] as the simulation runs.
///
/// Causality links (parent/child spans):
///
/// * a `pcc_update` span is a child of the page `walk` span that fed it
///   (same core, same timestamp);
/// * `compact` and `shootdown` spans are children of the `promote`
///   span that caused them (same region, same interval boundary);
/// * the region→promotion map is cleared at each `interval` span, so
///   links never cross a boundary.
///
/// The span book is capped by default (hot runs emit one span per page
/// walk); dropped spans are counted and surfaced as the
/// `telemetry.spans_dropped` gauge in [`metrics_snapshot`]
/// (Self::metrics_snapshot).
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    metrics: MetricsRegistry,
    spans: SpanBook,
    /// Per-core id+timestamp of the most recent walk span, for linking
    /// the PCC update the same access produces.
    last_walk_span: FxHashMap<u32, (u64, u64)>,
    /// Promotion span ids by `(process, region index)`, this boundary.
    promote_spans: FxHashMap<(u32, u64), u64>,
    /// Timestamp of the previous interval boundary.
    last_boundary_at: u64,
    mark: SummaryMark,
    summary_rows: Vec<String>,
    /// Shared I/O-error counter of the JSONL sink this recorder rides
    /// alongside (see `JsonlSink::with_error_counter`), mirrored into
    /// the snapshot as the `sink.io_errors` gauge.
    sink_errors: Option<Arc<AtomicU64>>,
}

/// Model cycles per page-table level actually referenced, used to scale
/// walk spans and the `walk_cycles` histogram: `TimingConfig`'s
/// 120-cycle full 4-level walk.
const CYCLES_PER_LEVEL: u64 = 30;

/// Default span-book capacity: enough for every OS-side span of any
/// realistic run plus a long prefix of hot-path walk spans.
pub const DEFAULT_SPAN_CAPACITY: usize = 200_000;

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// A recorder with the default span capacity.
    pub fn new() -> Self {
        TelemetryRecorder {
            metrics: MetricsRegistry::new(),
            spans: SpanBook::with_capacity(DEFAULT_SPAN_CAPACITY),
            last_walk_span: FxHashMap::default(),
            promote_spans: FxHashMap::default(),
            last_boundary_at: 0,
            mark: SummaryMark::default(),
            summary_rows: Vec::new(),
            sink_errors: None,
        }
    }

    /// Attaches the shared I/O-error counter of a companion `JsonlSink`
    /// so sink failures surface in [`metrics_snapshot`]
    /// (Self::metrics_snapshot) as the `sink.io_errors` gauge.
    #[must_use]
    pub fn with_sink_error_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.sink_errors = Some(counter);
        self
    }

    /// Overrides the span-book capacity (0 disables span collection
    /// entirely — metrics only).
    #[must_use]
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.spans = SpanBook::with_capacity(capacity);
        self
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The live span book.
    pub fn spans(&self) -> &SpanBook {
        &self.spans
    }

    /// A snapshot of the registry with telemetry self-accounting
    /// (dropped-span gauge) folded in. Use this, not [`metrics`]
    /// (Self::metrics), when rendering final output.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut m = self.metrics.clone();
        m.set_gauge("telemetry.spans_dropped", self.spans.dropped());
        if let Some(errors) = &self.sink_errors {
            m.set_gauge("sink.io_errors", errors.load(Ordering::Relaxed));
        }
        m
    }

    /// Renders the collected spans as chrome-trace-viewer JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.spans.chrome_trace_json()
    }

    /// The per-interval text summary: one row per completed interval
    /// with event-count deltas for that interval.
    pub fn interval_summary(&self) -> String {
        let mut out = String::from(
            "interval  accesses  walks  tlb_hits  faults  promotes  demotes  shootdowns\n",
        );
        for row in &self.summary_rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Folds an event-buffer drop count (e.g. from a capped
    /// `MemoryRecorder` ring) into the registry, so lossy recordings
    /// are visible in the metrics output.
    pub fn note_dropped_events(&mut self, dropped: u64) {
        self.metrics.set_gauge("recorder.events_dropped", dropped);
    }

    /// Folds a finished run's promotion ledger into the registry: the
    /// promotion latency-to-benefit histogram, predicted/realized
    /// totals, and the run-level `prediction_accuracy` (scaled by 1e6,
    /// since gauges are integers — see `ledger.prediction_accuracy_ppm`).
    pub fn ingest_ledger(&mut self, ledger: &PromotionLedger) {
        for e in ledger.entries() {
            if let Some(ttb) = e.intervals_to_benefit {
                self.metrics.observe("ledger.intervals_to_benefit", ttb);
            }
            self.metrics
                .observe("ledger.predicted_walks", e.predicted_walks);
            self.metrics.observe(
                "ledger.realized_walks_saved",
                e.realized_walks_saved() as u64,
            );
        }
        let s = ledger.summary();
        self.metrics.set_gauge("ledger.promotions", s.promotions);
        self.metrics.set_gauge("ledger.demotions", s.demotions);
        self.metrics.set_gauge(
            "ledger.prediction_accuracy_ppm",
            (s.prediction_accuracy * 1e6).round() as u64,
        );
    }

    /// Merges another recorder's aggregates into this one (counters and
    /// histograms add, gauges take max, summary rows and spans append).
    /// Merging per-cell recorders in submission order yields output
    /// identical to a sequential run's, which is what keeps `--jobs N`
    /// byte-stable.
    pub fn merge(&mut self, other: &TelemetryRecorder) {
        self.metrics.merge(&other.metrics);
        self.summary_rows.extend(other.summary_rows.iter().cloned());
    }

    fn fault_counter(size: PageSize) -> &'static str {
        match size {
            PageSize::Base4K => "fault.4k",
            PageSize::Huge2M => "fault.2m",
            PageSize::Huge1G => "fault.1g",
        }
    }
}

impl Recorder for TelemetryRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: u64, event: Event) {
        match event {
            Event::TlbHit { level, .. } => {
                self.metrics.inc(match level {
                    TlbLevel::L1 => "tlb_hit.l1",
                    TlbLevel::L2 => "tlb_hit.l2",
                });
            }
            Event::Walk {
                core,
                levels,
                effective_levels,
                ..
            } => {
                self.metrics.inc("walk");
                let cycles = u64::from(effective_levels) * CYCLES_PER_LEVEL;
                self.metrics.observe("walk_cycles", cycles);
                let id = self.spans.push(
                    "walk",
                    "hw",
                    PID_HW,
                    core.0,
                    at,
                    cycles.max(1),
                    None,
                    vec![
                        ("levels", u64::from(levels)),
                        ("effective_levels", u64::from(effective_levels)),
                    ],
                );
                self.last_walk_span.insert(core.0, (id, at));
            }
            Event::Fault { size, .. } => {
                self.metrics.inc(Self::fault_counter(size));
            }
            Event::PccUpdate {
                core,
                action,
                decayed,
                ..
            } => {
                self.metrics.inc(match action {
                    PccAction::Hit(_) => "pcc.hit",
                    PccAction::Inserted => "pcc.insert",
                    PccAction::InsertedWithEviction(_) => "pcc.insert_evict",
                    PccAction::FilteredColdMiss => "pcc.cold_filtered",
                });
                if decayed {
                    self.metrics.inc("pcc.decay");
                }
                // The walk that fed this update is the span this core
                // pushed at the same timestamp.
                let parent = self
                    .last_walk_span
                    .get(&core.0)
                    .filter(|&&(_, walk_at)| walk_at == at)
                    .map(|&(id, _)| id);
                self.spans
                    .push("pcc_update", "hw", PID_HW, core.0, at, 1, parent, vec![]);
            }
            Event::PromotionDecision {
                process,
                region,
                rank,
                predicted_walks,
                ..
            } => {
                self.metrics.inc("promote");
                self.metrics
                    .observe("promotion_predicted_walks", predicted_walks);
                let id = self.spans.push(
                    "promote",
                    "os",
                    PID_OS,
                    0,
                    at,
                    1,
                    None,
                    vec![
                        ("process", u64::from(process.0)),
                        ("region", region.index()),
                        ("rank", u64::from(rank)),
                        ("predicted_walks", predicted_walks),
                    ],
                );
                self.promote_spans.insert((process.0, region.index()), id);
            }
            Event::PromotionFailure { reason } => {
                self.metrics.inc(match reason {
                    FailureReason::NoFrames => "promote_fail.no_frames",
                    FailureReason::BudgetExhausted => "promote_fail.budget",
                });
            }
            Event::Compaction {
                process,
                region,
                pages_migrated,
            } => {
                self.metrics.inc("compact");
                self.metrics
                    .observe("compaction_pages_migrated", pages_migrated);
                let parent = self
                    .promote_spans
                    .get(&(process.0, region.index()))
                    .copied();
                self.spans.push(
                    "compact",
                    "os",
                    PID_OS,
                    0,
                    at,
                    pages_migrated.max(1),
                    parent,
                    vec![("pages_migrated", pages_migrated)],
                );
            }
            Event::Demotion { process, region } => {
                self.metrics.inc("demote");
                self.spans.push(
                    "demote",
                    "os",
                    PID_OS,
                    0,
                    at,
                    1,
                    None,
                    vec![
                        ("process", u64::from(process.0)),
                        ("region", region.index()),
                    ],
                );
            }
            Event::Shootdown {
                process,
                region,
                entries_flushed,
            } => {
                self.metrics.inc("shootdown");
                self.metrics
                    .observe("shootdown_entries_flushed", entries_flushed);
                let parent = self
                    .promote_spans
                    .get(&(process.0, region.index()))
                    .copied();
                self.spans.push(
                    "shootdown",
                    "os",
                    PID_OS,
                    0,
                    at,
                    entries_flushed.max(1),
                    parent,
                    vec![("entries_flushed", entries_flushed)],
                );
            }
            Event::ShootdownStorm {
                core,
                entries_flushed,
            } => {
                // Storm flushes share the per-region histogram so chaos
                // runs account for every discarded translation, plus a
                // dedicated counter separating storms from promotion
                // shootdowns.
                self.metrics.inc("shootdown_storm");
                self.metrics
                    .observe("shootdown_entries_flushed", entries_flushed);
                self.spans.push(
                    "shootdown_storm",
                    "os",
                    PID_OS,
                    0,
                    at,
                    entries_flushed.max(1),
                    None,
                    vec![
                        ("core", u64::from(core.0)),
                        ("entries_flushed", entries_flushed),
                    ],
                );
            }
            Event::Interval(s) => {
                self.metrics.set_gauge("interval", s.interval);
                self.metrics.set_gauge("pcc_occupancy", s.pcc_occupancy);
                self.metrics.set_gauge("pcc_capacity", s.pcc_capacity);
                self.metrics.set_gauge("free_2m_blocks", s.free_huge_blocks);
                self.metrics
                    .set_gauge("huge_pages_resident", s.huge_pages_resident);
                self.metrics.set_gauge("bloat_bytes", s.bloat_bytes);
                self.metrics
                    .observe("pcc_occupancy_samples", s.pcc_occupancy);
                self.spans.push(
                    "interval",
                    "os",
                    PID_OS,
                    0,
                    self.last_boundary_at,
                    at.saturating_sub(self.last_boundary_at).max(1),
                    None,
                    vec![("index", s.interval)],
                );
                // Summary row: deltas since the previous boundary.
                let walks = self.metrics.counter("walk");
                let hits = self.metrics.counter("tlb_hit.l1") + self.metrics.counter("tlb_hit.l2");
                let promotions = self.metrics.counter("promote");
                let demotions = self.metrics.counter("demote");
                let shootdowns = self.metrics.counter("shootdown");
                let faults = self.metrics.counter("fault.4k")
                    + self.metrics.counter("fault.2m")
                    + self.metrics.counter("fault.1g");
                self.summary_rows.push(format!(
                    "{:<8}  {:<8}  {:<5}  {:<8}  {:<6}  {:<8}  {:<7}  {}",
                    s.interval,
                    at - self.last_boundary_at,
                    walks - self.mark.walks,
                    hits - self.mark.hits,
                    faults - self.mark.faults,
                    promotions - self.mark.promotions,
                    demotions - self.mark.demotions,
                    shootdowns - self.mark.shootdowns,
                ));
                self.mark = SummaryMark {
                    walks,
                    hits,
                    promotions,
                    demotions,
                    shootdowns,
                    faults,
                };
                self.last_boundary_at = at;
                // Causality never crosses an interval boundary.
                self.promote_spans.clear();
            }
            Event::FaultInjected { .. } => self.metrics.inc("fault_injected"),
            Event::PromotionDeferred { .. } => self.metrics.inc("defer"),
            Event::PressureEnter { .. } => self.metrics.inc("pressure_enter"),
            Event::PressureExit { .. } => self.metrics.inc("pressure_exit"),
            Event::BloatRecovered { bytes, .. } => {
                self.metrics.inc("bloat_recovered");
                self.metrics.inc_by("bloat_recovered_bytes", bytes);
            }
            Event::HostPromotion {
                process,
                region,
                predicted_walks,
            } => {
                self.metrics.inc("host_promote");
                self.metrics
                    .observe("promotion_predicted_walks", predicted_walks);
                self.spans.push(
                    "host_promote",
                    "os",
                    PID_OS,
                    0,
                    at,
                    1,
                    None,
                    vec![
                        ("vm", u64::from(process.0)),
                        ("gpa_region", region.index()),
                        ("predicted_walks", predicted_walks),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_obs::{IntervalSnapshot, FREQ_HISTOGRAM_BUCKETS};
    use hpage_types::{CoreId, ProcessId, Vpn};

    fn region(i: u64) -> Vpn {
        Vpn::new(i, PageSize::Huge2M)
    }

    fn walk(core: u32) -> Event {
        Event::Walk {
            core: CoreId(core),
            size: PageSize::Base4K,
            levels: 4,
            effective_levels: 2,
            a_bit_was_set: true,
        }
    }

    fn snapshot(interval: u64) -> Event {
        Event::Interval(IntervalSnapshot {
            interval,
            pcc_occupancy: 10,
            pcc_capacity: 64,
            freq_histogram: [0; FREQ_HISTOGRAM_BUCKETS],
            l1_hit_rate: 0.9,
            l2_hit_rate: 0.05,
            walk_rate: 0.05,
            free_huge_blocks: 3,
            huge_pages_resident: 5,
            bloat_bytes: 0,
        })
    }

    #[test]
    fn walk_feeds_metrics_and_spans() {
        let mut t = TelemetryRecorder::new();
        assert!(t.enabled());
        t.record(100, walk(2));
        assert_eq!(t.metrics().counter("walk"), 1);
        let h = t.metrics().histogram("walk_cycles").unwrap();
        assert_eq!(h.sum(), 60, "2 effective levels x 30 cycles");
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans().spans()[0].tid, 2);
    }

    #[test]
    fn pcc_update_links_to_its_walk() {
        let mut t = TelemetryRecorder::new();
        t.record(100, walk(0));
        t.record(
            100,
            Event::PccUpdate {
                core: CoreId(0),
                granularity: PageSize::Huge2M,
                region: region(7),
                action: PccAction::Inserted,
                decayed: false,
            },
        );
        // A different core's update at the same time must NOT link.
        t.record(100, walk(1));
        t.record(
            101,
            Event::PccUpdate {
                core: CoreId(1),
                granularity: PageSize::Huge2M,
                region: region(8),
                action: PccAction::Hit(3),
                decayed: false,
            },
        );
        let spans = t.spans().spans();
        assert_eq!(spans[1].name, "pcc_update");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[3].parent, None, "timestamp mismatch breaks the link");
        assert_eq!(t.metrics().counter("pcc.insert"), 1);
        assert_eq!(t.metrics().counter("pcc.hit"), 1);
    }

    #[test]
    fn promotion_chain_is_causally_linked() {
        let mut t = TelemetryRecorder::new();
        let promote = Event::PromotionDecision {
            process: ProcessId(0),
            region: region(5),
            rank: 0,
            policy: "pcc",
            predicted_walks: 40,
        };
        t.record(1_000, promote);
        t.record(
            1_000,
            Event::Compaction {
                process: ProcessId(0),
                region: region(5),
                pages_migrated: 12,
            },
        );
        t.record(
            1_000,
            Event::Shootdown {
                process: ProcessId(0),
                region: region(5),
                entries_flushed: 3,
            },
        );
        let spans = t.spans().spans();
        let promote_id = spans[0].id;
        assert_eq!(spans[1].name, "compact");
        assert_eq!(spans[1].parent, Some(promote_id));
        assert_eq!(spans[2].name, "shootdown");
        assert_eq!(spans[2].parent, Some(promote_id));
        assert_eq!(
            t.metrics()
                .histogram("promotion_predicted_walks")
                .unwrap()
                .max(),
            40
        );
        // The boundary clears the link map: a later shootdown of the
        // same region (e.g. a demotion's) has no promote parent.
        t.record(2_000, snapshot(0));
        t.record(
            2_000,
            Event::Shootdown {
                process: ProcessId(0),
                region: region(5),
                entries_flushed: 1,
            },
        );
        assert_eq!(t.spans().spans().last().unwrap().parent, None);
    }

    #[test]
    fn interval_rows_hold_deltas() {
        let mut t = TelemetryRecorder::new();
        t.record(1, walk(0));
        t.record(2, walk(0));
        t.record(1_000, snapshot(0));
        t.record(1_001, walk(0));
        t.record(2_000, snapshot(1));
        let summary = t.interval_summary();
        let rows: Vec<&str> = summary.lines().collect();
        assert_eq!(rows.len(), 3, "header + 2 intervals: {summary}");
        assert!(rows[1].starts_with('0'), "{summary}");
        let walks_row0: u64 = rows[1].split_whitespace().nth(2).unwrap().parse().unwrap();
        let walks_row1: u64 = rows[2].split_whitespace().nth(2).unwrap().parse().unwrap();
        assert_eq!(walks_row0, 2);
        assert_eq!(walks_row1, 1, "second row counts only its own interval");
        assert_eq!(t.metrics().gauge("pcc_occupancy"), Some(10));
    }

    #[test]
    fn snapshot_exposes_span_drops() {
        let mut t = TelemetryRecorder::new().with_span_capacity(1);
        t.record(1, walk(0));
        t.record(2, walk(0));
        t.record(3, walk(0));
        assert_eq!(t.spans().dropped(), 2);
        let m = t.metrics_snapshot();
        assert_eq!(m.gauge("telemetry.spans_dropped"), Some(2));
        assert_eq!(m.counter("walk"), 3, "metrics never drop");
        t.note_dropped_events(17);
        assert_eq!(t.metrics().gauge("recorder.events_dropped"), Some(17));
    }

    #[test]
    fn ledger_ingest_scales_accuracy_to_ppm() {
        use hpage_os::RegionWalks;
        let mut ledger = PromotionLedger::new();
        let mut walks: RegionWalks = RegionWalks::default();
        walks.insert((0, 5), 40);
        ledger.observe_interval(&walks);
        ledger.record_promotion(ProcessId(0), region(5), 1_000, 40);
        ledger.observe_interval(&RegionWalks::default());
        let mut t = TelemetryRecorder::new();
        t.ingest_ledger(&ledger);
        assert_eq!(
            t.metrics().gauge("ledger.prediction_accuracy_ppm"),
            Some(1_000_000)
        );
        assert_eq!(t.metrics().gauge("ledger.promotions"), Some(1));
        assert_eq!(
            t.metrics()
                .histogram("ledger.intervals_to_benefit")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn snapshot_mirrors_sink_error_counter() {
        let errors = Arc::new(AtomicU64::new(0));
        let t = TelemetryRecorder::new().with_sink_error_counter(errors.clone());
        assert_eq!(t.metrics_snapshot().gauge("sink.io_errors"), Some(0));
        errors.fetch_add(3, Ordering::Relaxed);
        assert_eq!(t.metrics_snapshot().gauge("sink.io_errors"), Some(3));
        // Without a counter attached the gauge is absent, not zero.
        assert_eq!(
            TelemetryRecorder::new()
                .metrics_snapshot()
                .gauge("sink.io_errors"),
            None
        );
    }

    #[test]
    fn merge_appends_rows_and_adds_counters() {
        let mut a = TelemetryRecorder::new();
        a.record(1, walk(0));
        a.record(1_000, snapshot(0));
        let mut b = TelemetryRecorder::new();
        b.record(5, walk(1));
        b.record(5, walk(1));
        b.record(1_000, snapshot(0));
        a.merge(&b);
        assert_eq!(a.metrics().counter("walk"), 3);
        assert_eq!(a.interval_summary().lines().count(), 3);
    }
}
