//! Supervised-execution suite: panic isolation and the failure surface
//! the harness exposes to drivers. These are the guarantees that make
//! long `repro` runs survivable: one bad cell degrades one row, never
//! the grid. Each cell gets exactly one attempt.

use hpage::sim::{Cell, CellFailure, Harness, PolicyChoice, SharedWorkload, Simulation};
use hpage::trace::{Pattern, SyntheticBuilder, SyntheticWorkload, TraceSource, Workload};
use hpage::types::{Region, SystemConfig};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn synthetic(seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("sup", seed);
    let a = b.array(8, (2 << 20) / 8);
    b.phase(a, Pattern::UniformRandom { count: 50_000 }, 0);
    b.build()
}

/// A synthetic workload that panics in `thread_source`, i.e. while the
/// cell running it sets up, and counts how often it was asked.
struct Faulty {
    inner: SyntheticWorkload,
    streams: AtomicU32,
}

impl Faulty {
    fn new(seed: u64) -> Arc<Self> {
        Arc::new(Faulty {
            inner: synthetic(seed),
            streams: AtomicU32::new(0),
        })
    }
}

impl Workload for Faulty {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn regions(&self) -> Vec<Region> {
        self.inner.regions()
    }

    fn thread_source(&self, _thread: u32, _threads: u32) -> Box<dyn TraceSource + Send + '_> {
        self.streams.fetch_add(1, Ordering::SeqCst);
        panic!("test workload panics")
    }
}

fn cell(i: u64, workload: SharedWorkload) -> Cell {
    Cell::new(
        format!("cell/{i}"),
        Simulation::new(SystemConfig::tiny(), PolicyChoice::pcc_default()),
        workload,
    )
}

/// `n` healthy cells, with cell `faulty` (if any) running `workload`.
fn cells(n: u64, faulty: Option<(u64, SharedWorkload)>) -> Vec<Cell> {
    (0..n)
        .map(|i| match &faulty {
            Some((at, w)) if *at == i => cell(i, Arc::clone(w)),
            _ => cell(i, Arc::new(synthetic(i))),
        })
        .collect()
}

#[test]
fn panicking_cell_fails_alone_while_the_grid_survives() {
    let h = Harness::new(2);
    let results = h.try_run_map(cells(3, Some((1, Faulty::new(1)))), Cell::run);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "cell 0 must survive cell 1's panic");
    assert!(results[2].is_ok(), "cell 2 must survive cell 1's panic");
    match &results[1] {
        Err(CellFailure::Panicked { message }) => {
            assert!(message.contains("test workload panics"), "{message}");
        }
        other => panic!("cell 1 should have panicked, got {other:?}"),
    }
    // The failure is on the log, once.
    let failures = h.log().failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].label, "cell/1");
    assert_eq!(failures[0].reason, "panicked: test workload panics");
    assert_eq!(h.log().cells().len(), 2, "only the healthy cells are timed");
}

#[test]
fn run_panics_with_an_aggregate_message_only_after_the_grid_completes() {
    let h = Harness::new(2);
    let grid = cells(2, Some((0, Faulty::new(0))));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.run(grid)));
    let msg = match out {
        Err(payload) => *payload.downcast::<String>().expect("aggregate message"),
        Ok(_) => panic!("run() must surface the failed cell"),
    };
    assert!(msg.contains("1 cell(s) failed"), "{msg}");
    assert!(
        msg.contains("cell/0: panicked: test workload panics"),
        "{msg}"
    );
    // The healthy cell still ran to completion before the panic.
    assert!(
        h.log().cells().iter().any(|c| c.label == "cell/1"),
        "surviving cell must complete before the aggregate panic"
    );
}

#[test]
fn panicking_cell_runs_once() {
    // A panic is final: the workload is asked for its trace once and the
    // log holds one failure.
    let h = Harness::new(2);
    let panicking = Faulty::new(0);
    let results = h.try_run_map(
        cells(2, Some((0, Arc::clone(&panicking) as SharedWorkload))),
        Cell::run,
    );
    assert!(matches!(results[0], Err(CellFailure::Panicked { .. })));
    assert!(results[1].is_ok());
    assert_eq!(panicking.streams.load(Ordering::SeqCst), 1);
    assert_eq!(h.log().failures().len(), 1);
}

#[test]
fn cell_failures_reach_the_artifact_fields() {
    let h = Harness::new(2);
    let _ = h.try_run_map(cells(3, Some((2, Faulty::new(2)))), Cell::run);
    let fields = h.log().to_json_fields();
    assert!(
        fields.contains(r#"{"label":"cell/2","reason":"panicked: test workload panics"}"#),
        "{fields}"
    );
    // A failure record is its label and reason; no retry bookkeeping.
    assert!(!fields.contains("attempts"), "{fields}");
    assert!(!fields.contains("retries"), "{fields}");
}
