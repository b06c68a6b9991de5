//! Deterministic parallel experiment runner.
//!
//! Every figure driver decomposes into independent *cells* — one fully
//! configured [`Simulation`] plus the workloads it runs — and submits
//! them to a [`Harness`]. The harness executes cells on a std-only
//! worker pool (`std::thread::scope`, no external dependencies) and
//! returns the reports **in submission order**, so the tables a driver
//! assembles are byte-identical whether the grid ran on one worker or
//! sixteen.
//!
//! Determinism survives the fan-out because of three properties:
//!
//! 1. Cells share nothing mutable. Workloads cross the pool boundary as
//!    `Arc<AnyWorkload>` (immutable once built; `Send + Sync` is pinned
//!    by compile-time asserts here and in `hpage-trace`), and each cell
//!    owns its `Simulation` outright.
//! 2. Every RNG stream is seeded from the cell's configuration, never
//!    from global state, time, or worker identity.
//! 3. Results are written into per-cell slots indexed by submission
//!    order; only wall-clock *observability* (the [`HarnessLog`]) sees
//!    completion order.
//!
//! Each cell gets exactly one attempt, on a pool worker. Cells are pure
//! over their configuration, so a cell that panicked would panic again;
//! the harness instead isolates the failure ([`catch_quietly`]), lets
//! the rest of the grid finish, and records the cell's timing or its
//! failure once, in the [`HarnessLog`]. A caught failure is reported
//! there and by the caller, never by the panic hook.
//!
//! The harness also owns the run's [`WorkloadCache`], so each workload
//! is instantiated once per `repro` invocation no matter how many
//! figures touch it.

use crate::cpus;
use crate::profile::SimProfile;
use crate::simulation::{ProcessSpec, SimReport, Simulation};
use hpage_obs::HarnessLog;
use hpage_trace::{AnyWorkload, AppId, Dataset, Workload, WorkloadCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A workload shared across the worker-pool boundary. `Arc<AnyWorkload>`
/// (what [`Harness::workload`] serves) coerces into this at any call
/// site; recorded traces and other [`Workload`] impls fit too.
pub type SharedWorkload = Arc<dyn Workload + Send + Sync>;

/// Default RNG seed for experiment workloads (shared by every figure
/// driver; per-purpose streams are derived via
/// [`hpage_types::derive_seed`], never by reusing this value raw).
pub const EXPERIMENT_SEED: u64 = 0xC0FFEE;

// Compile-time audit: cells cross the worker-pool boundary by reference,
// so everything inside one must be shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cell>();
    assert_send_sync::<Simulation>();
    assert_send_sync::<Harness>();
    assert_send_sync::<CellFailure>();
};

/// Why a cell failed. Carried in the cell's result slot (`Err` side of
/// [`Harness::try_run_map`]) instead of unwinding through — and
/// poisoning — the worker pool. Each cell runs once: cells are pure over
/// their configuration, so a second attempt would fail the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell panicked.
    Panicked {
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for CellFailure {
    /// The short reason `n/a (cell failed: …)` rows and the
    /// [`HarnessLog`] carry.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

thread_local! {
    /// How many [`catch_quietly`] calls enclose this thread's current
    /// code: while nonzero, a panic is on its way to a caller that
    /// reports it, so the panic hook stays silent.
    static QUIET: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// `catch_unwind` for failures the caller reports itself — as a
/// [`CellFailure`], an `n/a` row or a `failures[]` record. A panic on
/// this thread while `f` runs skips the panic hook, so it prints no
/// "panicked at" or backtrace; panics anywhere else still reach the
/// hook that was installed before the first call.
pub fn catch_quietly<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let outer = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.with(std::cell::Cell::get) == 0 {
                outer(info);
            }
        }));
    });
    QUIET.with(|q| q.set(q.get() + 1));
    let out = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(q.get() - 1));
    out
}

/// Best-effort extraction of a caught panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One independent unit of experiment work: a fully configured
/// simulation and the workloads it runs. Building a cell is cheap (the
/// workloads are shared `Arc`s); running it is the expensive part the
/// pool parallelises.
#[derive(Clone)]
pub struct Cell {
    /// Display label, e.g. `fig7/BFS/pcc` — used for per-cell timings in
    /// the perf artifact, never for results.
    pub label: String,
    /// The configured simulation (policy, sizing, fragmentation, budget,
    /// replacement, cache model — everything baked in).
    pub sim: Simulation,
    /// Processes to run: `(workload, thread count)` pairs.
    pub processes: Vec<(SharedWorkload, u32)>,
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Workloads are trait objects; show their names instead.
        let processes: Vec<(&str, u32)> = self
            .processes
            .iter()
            .map(|(w, threads)| (w.name(), *threads))
            .collect();
        f.debug_struct("Cell")
            .field("label", &self.label)
            .field("sim", &self.sim)
            .field("processes", &processes)
            .finish()
    }
}

impl Cell {
    /// Single-process, single-threaded cell.
    pub fn new(label: impl Into<String>, sim: Simulation, workload: SharedWorkload) -> Self {
        Cell {
            label: label.into(),
            sim,
            processes: vec![(workload, 1)],
        }
    }

    /// Single-process cell with `threads` threads.
    pub fn with_threads(
        label: impl Into<String>,
        sim: Simulation,
        workload: SharedWorkload,
        threads: u32,
    ) -> Self {
        Cell {
            label: label.into(),
            sim,
            processes: vec![(workload, threads)],
        }
    }

    /// Multi-process cell (one entry per process).
    pub fn multiprocess(
        label: impl Into<String>,
        sim: Simulation,
        processes: Vec<(SharedWorkload, u32)>,
    ) -> Self {
        Cell {
            label: label.into(),
            sim,
            processes,
        }
    }

    /// Runs the cell to completion. Pure in its configuration: equal
    /// cells produce equal reports on any thread at any time.
    pub fn run(&self) -> SimReport {
        self.run_recorded(&mut hpage_obs::NullRecorder)
    }

    /// Runs the cell with a flight recorder attached. The recorder only
    /// sees this cell's events; combining cells is the caller's job (see
    /// [`Harness::run_map`], which returns results in submission order).
    pub fn run_recorded<R: hpage_obs::Recorder>(&self, recorder: &mut R) -> SimReport {
        let specs: Vec<ProcessSpec<'_>> = self
            .processes
            .iter()
            .map(|(w, threads)| ProcessSpec::with_threads(w.as_ref(), *threads))
            .collect();
        self.sim
            .try_run_recorded(&specs, recorder)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }
}

/// The experiment harness: a worker pool plus the run-wide workload
/// cache and observability log. One harness drives one `repro`/`hpsim`
/// invocation; figure drivers borrow it.
#[derive(Debug)]
pub struct Harness {
    jobs: usize,
    cache: WorkloadCache,
    log: HarnessLog,
}

impl Harness {
    /// Creates a harness running up to `jobs` cells concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0` (binaries validate and reject this with a
    /// usage error before construction).
    pub fn new(jobs: usize) -> Self {
        assert!(jobs >= 1, "harness needs at least one worker");
        Harness {
            jobs,
            cache: WorkloadCache::new(),
            log: HarnessLog::new(),
        }
    }

    /// A single-worker harness — cells run inline, in order, exactly as
    /// the pre-harness sequential drivers did.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The run-wide workload cache.
    pub fn cache(&self) -> &WorkloadCache {
        &self.cache
    }

    /// The run's observability log (wall-clock timings + warnings).
    pub fn log(&self) -> &HarnessLog {
        &self.log
    }

    /// The figure drivers' standard workload: `app` on Kronecker at the
    /// profile's scale, seeded with [`EXPERIMENT_SEED`]; served from the
    /// cache.
    pub fn workload(&self, profile: &SimProfile, app: AppId) -> Arc<AnyWorkload> {
        self.cache
            .get_parts(app, Dataset::Kronecker, profile.workloads, EXPERIMENT_SEED)
    }

    /// Runs `cells` and returns their reports in submission order.
    ///
    /// With `jobs == 1` the cells run inline on the calling thread. With
    /// more, a scoped worker pool claims cells via an atomic cursor and
    /// writes each report into its submission-index slot, so the
    /// returned order — and therefore every table assembled from it —
    /// is independent of scheduling.
    ///
    /// Each cell runs once, under [`catch_quietly`]. A failed cell does
    /// **not** abort the grid: every other cell completes first, then
    /// this method panics with an aggregate message (the driving
    /// binary's per-section [`catch_quietly`] renders it as an
    /// `n/a (cell failed: …)` row). Callers that want the failures as
    /// values call [`try_run_map`](Self::try_run_map)`(cells, Cell::run)`.
    pub fn run(&self, cells: Vec<Cell>) -> Vec<SimReport> {
        self.run_map(cells, Cell::run)
    }

    /// Runs `f` over every cell and returns the results in submission
    /// order. [`run`](Self::run) is `run_map(cells, Cell::run)`;
    /// drivers that want per-cell telemetry pass a closure that attaches
    /// a recorder (e.g. via [`Cell::run_recorded`]) and returns the
    /// report *plus* whatever the recorder captured. Because results
    /// come back in submission order, folding them left-to-right
    /// (concatenating rendered metrics or ledgers) is deterministic at
    /// any `--jobs` level.
    ///
    /// Panics with an aggregate message if any cell fails — but only
    /// after every other cell has completed.
    pub fn run_map<T, F>(&self, cells: Vec<Cell>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
        unwrap_all(&labels, self.try_run_map(cells, f))
    }

    /// The fallible form of [`run_map`](Self::run_map): each cell runs
    /// once under [`catch_quietly`], and a cell that panics yields
    /// `Err(CellFailure)` in its slot while the rest of the grid
    /// completes normally.
    pub fn try_run_map<T, F>(&self, cells: Vec<Cell>, f: F) -> Vec<Result<T, CellFailure>>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        self.dispatch(cells.len(), |i| {
            let cell = &cells[i];
            let start = Instant::now();
            let result = catch_quietly(|| f(cell)).map_err(|payload| CellFailure::Panicked {
                message: panic_message(&*payload),
            });
            match &result {
                Ok(_) => self
                    .log
                    .record_cell(&cell.label, start.elapsed().as_secs_f64()),
                Err(failure) => self.log.record_failure(&cell.label, failure.to_string()),
            }
            result
        })
    }

    /// Claims indices `0..n` across the worker pool (inline when
    /// `jobs == 1` or `n <= 1`) and returns `exec(i)` results in index
    /// order. The result slots recover from poisoning: even if a
    /// recorder or log hook panicked through a worker, the remaining
    /// slots stay readable instead of wedging the whole grid.
    fn dispatch<T, E>(&self, n: usize, exec: E) -> Vec<T>
    where
        T: Send,
        E: Fn(usize) -> T + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(exec).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let workers = self.jobs.min(n);
        // Claimed up front, so no engine hands a producer the CPU of a
        // worker that has not started its first cell yet.
        let _cpus = cpus::claim_busy(workers);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    cpus::cover_thread();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = exec(i);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every claimed cell fills its slot")
            })
            .collect()
    }
}

/// Zips labels with per-cell results; if any cell failed, panics with
/// one aggregate message *after* the whole grid has completed.
fn unwrap_all<T>(labels: &[String], results: Vec<Result<T, CellFailure>>) -> Vec<T> {
    let failed: Vec<String> = labels
        .iter()
        .zip(&results)
        .filter_map(|(label, r)| r.as_ref().err().map(|e| format!("{label}: {e}")))
        .collect();
    if !failed.is_empty() {
        panic!("{} cell(s) failed: {}", failed.len(), failed.join("; "));
    }
    results
        .into_iter()
        .map(|r| r.expect("failures handled above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::PolicyChoice;

    fn profile() -> SimProfile {
        let mut p = SimProfile::test();
        p.max_accesses_per_core = Some(100_000);
        p
    }

    fn cells(h: &Harness, n: usize) -> Vec<Cell> {
        let p = profile();
        let w = h.workload(&p, AppId::Canneal);
        let sized = p
            .clone()
            .sized_for(hpage_trace::Workload::footprint_bytes(w.as_ref()));
        (0..n)
            .map(|i| {
                let policy = if i % 2 == 0 {
                    PolicyChoice::BasePages
                } else {
                    PolicyChoice::pcc_default()
                };
                let sim = Simulation::new(sized.system.clone(), policy)
                    .with_max_accesses_per_core(100_000);
                Cell::new(format!("cell/{i}"), sim, Arc::clone(&w) as SharedWorkload)
            })
            .collect()
    }

    #[test]
    fn parallel_results_equal_sequential_in_order() {
        let seq = Harness::sequential();
        let par = Harness::new(8);
        let expected = seq.run(cells(&seq, 7));
        let got = par.run(cells(&par, 7));
        assert_eq!(expected, got, "submission order must survive the pool");
        // Alternating policies prove slots didn't get shuffled.
        assert_eq!(got[0].policy, got[2].policy);
        assert_ne!(got[0].policy, got[1].policy);
    }

    #[test]
    fn timings_cover_every_cell() {
        let h = Harness::new(4);
        let n = 5;
        let _ = h.run(cells(&h, n));
        assert_eq!(h.log().cells().len(), n);
        assert!(h.log().total_cell_seconds() >= 0.0);
    }

    #[test]
    fn workload_is_cached_across_lookups() {
        let h = Harness::sequential();
        let p = profile();
        let a = h.workload(&p, AppId::Canneal);
        let b = h.workload(&p, AppId::Canneal);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(h.cache().len(), 1);
    }

    #[test]
    fn run_map_merges_recordings_deterministically() {
        use hpage_obs::MemoryRecorder;
        let record = |cell: &Cell| {
            let mut rec = MemoryRecorder::new();
            let report = cell.run_recorded(&mut rec);
            (report, rec.counts_by_kind())
        };
        let seq = Harness::sequential();
        let par = Harness::new(8);
        let expected = seq.run_map(cells(&seq, 6), record);
        let got = par.run_map(cells(&par, 6), record);
        // Submission-order slots make the fold of per-cell event counts
        // (and everything else derived left-to-right) jobs-invariant.
        assert_eq!(expected, got);
        assert!(got.iter().any(|(_, counts)| !counts.is_empty()));
    }

    #[test]
    fn catch_quietly_silences_only_its_own_extent() {
        assert!(catch_quietly(|| panic!("reported by the caller")).is_err());
        assert_eq!(catch_quietly(|| 7).ok(), Some(7));
        // Unwinding out of the closure still ends the quiet extent.
        assert_eq!(QUIET.with(std::cell::Cell::get), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_is_rejected() {
        let _ = Harness::new(0);
    }
}
