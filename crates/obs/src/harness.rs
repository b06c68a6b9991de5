//! Harness-level observability: wall-clock timings and warnings from the
//! experiment runner.
//!
//! The simulation's flight recorder ([`Event`](crate::Event)) is clocked
//! in *simulation time* (accesses issued) so recordings are byte-stable.
//! The experiment harness lives in a different domain — wall-clock
//! seconds per cell and per figure — which must never leak into figure
//! tables (it would break the byte-identical `-j 1` vs `-j N`
//! guarantee). This module is that separate channel: a thread-safe log
//! the runner's worker pool appends to, which the `repro` binary renders
//! as the `BENCH_repro.json` perf artifact.

use crate::json::{esc, num};
use std::sync::Mutex;

/// Wall-clock timing of one executed harness cell (one simulation run).
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// The cell's label, e.g. `fig7/BFS/pcc`.
    pub label: String,
    /// Wall-clock seconds the cell's simulation took.
    pub wall_s: f64,
}

/// Wall-clock timing of one harness section (one figure/table driver).
#[derive(Debug, Clone, PartialEq)]
pub struct SectionTiming {
    /// The section label, e.g. `figure 7`.
    pub label: String,
    /// Wall-clock seconds the whole section took.
    pub wall_s: f64,
}

/// A cell whose single attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// The failed cell's label.
    pub label: String,
    /// Human-readable failure reason (the panic message).
    pub reason: String,
}

/// Thread-safe log of harness timings and warnings.
///
/// Workers of the parallel runner append [`CellTiming`]s concurrently;
/// the driving binary appends [`SectionTiming`]s and warnings (e.g. a
/// geomean that had to exclude non-positive values). Everything here is
/// *observability only*: nothing read back from the log may influence
/// experiment results.
#[derive(Debug, Default)]
pub struct HarnessLog {
    cells: Mutex<Vec<CellTiming>>,
    sections: Mutex<Vec<SectionTiming>>,
    warnings: Mutex<Vec<String>>,
    failures: Mutex<Vec<FailureRecord>>,
}

impl HarnessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed cell's wall-clock time.
    pub fn record_cell(&self, label: impl Into<String>, wall_s: f64) {
        self.cells.lock().unwrap().push(CellTiming {
            label: label.into(),
            wall_s,
        });
    }

    /// Records one section's wall-clock time.
    pub fn record_section(&self, label: impl Into<String>, wall_s: f64) {
        self.sections.lock().unwrap().push(SectionTiming {
            label: label.into(),
            wall_s,
        });
    }

    /// Records a harness warning (rendered into the perf artifact and,
    /// verbosely, to stderr by the driving binary).
    pub fn warn(&self, message: impl Into<String>) {
        self.warnings.lock().unwrap().push(message.into());
    }

    /// Snapshot of all cell timings, in completion order.
    pub fn cells(&self) -> Vec<CellTiming> {
        self.cells.lock().unwrap().clone()
    }

    /// Snapshot of all section timings, in completion order.
    pub fn sections(&self) -> Vec<SectionTiming> {
        self.sections.lock().unwrap().clone()
    }

    /// Records a failed cell.
    pub fn record_failure(&self, label: impl Into<String>, reason: impl Into<String>) {
        self.failures.lock().unwrap().push(FailureRecord {
            label: label.into(),
            reason: reason.into(),
        });
    }

    /// Snapshot of all warnings.
    pub fn warnings(&self) -> Vec<String> {
        self.warnings.lock().unwrap().clone()
    }

    /// Snapshot of all cell failures, in occurrence order.
    pub fn failures(&self) -> Vec<FailureRecord> {
        self.failures.lock().unwrap().clone()
    }

    /// Total wall-clock seconds across all recorded cells (the *serial*
    /// cost of the grid; with `jobs > 1` this exceeds elapsed time).
    pub fn total_cell_seconds(&self) -> f64 {
        // A fold from +0.0: `sum()` of no floats is -0.0, which the
        // artifact would render as "-0.000000".
        self.cells
            .lock()
            .unwrap()
            .iter()
            .fold(0.0, |total, c| total + c.wall_s)
    }

    /// Renders the log as the body fields of the `BENCH_repro.json`
    /// artifact (callers wrap it with run-level metadata).
    pub fn to_json_fields(&self) -> String {
        let sections: Vec<String> = self
            .sections()
            .iter()
            .map(|s| {
                format!(
                    "{{\"label\":\"{}\",\"wall_s\":{}}}",
                    esc(&s.label),
                    num(s.wall_s)
                )
            })
            .collect();
        let cells: Vec<String> = self
            .cells()
            .iter()
            .map(|c| {
                format!(
                    "{{\"label\":\"{}\",\"wall_s\":{}}}",
                    esc(&c.label),
                    num(c.wall_s)
                )
            })
            .collect();
        let warnings: Vec<String> = self
            .warnings()
            .iter()
            .map(|w| format!("\"{}\"", esc(w)))
            .collect();
        let failures: Vec<String> = self
            .failures()
            .iter()
            .map(|f| {
                format!(
                    "{{\"label\":\"{}\",\"reason\":\"{}\"}}",
                    esc(&f.label),
                    esc(&f.reason)
                )
            })
            .collect();
        format!(
            "\"serial_cell_s\":{},\"sections\":[{}],\"cells\":[{}],\"warnings\":[{}],\
             \"failures\":[{}]",
            num(self.total_cell_seconds()),
            sections.join(","),
            cells.join(","),
            warnings.join(","),
            failures.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_json_shape;

    #[test]
    fn records_and_sums() {
        let log = HarnessLog::new();
        log.record_cell("fig1/BFS/base-4k", 0.25);
        log.record_cell("fig1/BFS/ideal-2m", 0.75);
        log.record_section("figure 1", 1.1);
        log.warn("geomean: 1 non-positive value excluded");
        assert_eq!(log.cells().len(), 2);
        assert_eq!(log.sections().len(), 1);
        assert_eq!(log.warnings().len(), 1);
        assert!((log.total_cell_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn an_empty_log_totals_positive_zero() {
        let log = HarnessLog::new();
        log.record_failure("c", "panicked: boom");
        assert!(log.total_cell_seconds().is_sign_positive());
        assert!(log
            .to_json_fields()
            .starts_with("\"serial_cell_s\":0.000000,"));
    }

    #[test]
    fn json_fields_are_valid_json() {
        let log = HarnessLog::new();
        log.record_cell("a\"b", 0.5);
        log.record_section("figure \\ 9", 2.0);
        log.warn("watch\nout");
        log.record_failure("fig7/BFS/pcc", "panicked: \"boom\"");
        let wrapped = format!("{{{}}}", log.to_json_fields());
        assert_json_shape(&wrapped);
        assert!(wrapped.contains("\"serial_cell_s\":0.500000"));
        assert!(wrapped.contains("\"failures\":[{\"label\":"));
        assert!(!wrapped.contains("retries"));
    }

    #[test]
    fn supervisor_records_round_trip() {
        let log = HarnessLog::new();
        log.record_failure("c", "panicked: boom");
        assert_eq!(
            log.failures(),
            vec![FailureRecord {
                label: "c".into(),
                reason: "panicked: boom".into()
            }]
        );
    }

    #[test]
    fn concurrent_appends_are_all_kept() {
        let log = HarnessLog::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..25 {
                        log.record_cell(format!("t{t}/c{i}"), 0.01);
                    }
                });
            }
        });
        assert_eq!(log.cells().len(), 100);
    }
}
