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
//! The harness also owns the run's [`WorkloadCache`], so each workload
//! is instantiated once per `repro` invocation no matter how many
//! figures touch it.

use crate::cpus;
use crate::journal::CellJournal;
use crate::profile::SimProfile;
use crate::simulation::{ProcessSpec, SimReport, Simulation};
use hpage_faults::{FaultKind, FaultPlan};
use hpage_obs::{Event, HarnessLog};
use hpage_trace::{AnyWorkload, AppId, Dataset, Workload, WorkloadCache};
use hpage_types::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

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

/// Why the supervisor gave up on a cell. Carried in the cell's result
/// slot (`Err` side of [`Harness::try_run_map`]) instead of unwinding
/// through — and poisoning — the worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// Every attempt panicked; `message` is the last panic's payload.
    Panicked {
        /// The last attempt's panic message.
        message: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The last attempt overran the supervisor's hard deadline and was
    /// abandoned.
    HardDeadline {
        /// The hard deadline, in milliseconds.
        limit_ms: u64,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
}

impl CellFailure {
    /// Attempts made before the supervisor gave up.
    pub fn attempts(&self) -> u32 {
        match self {
            CellFailure::Panicked { attempts, .. } | CellFailure::HardDeadline { attempts, .. } => {
                *attempts
            }
        }
    }

    /// Short human-readable reason, e.g. for `n/a (cell failed: …)` rows.
    pub fn reason(&self) -> String {
        match self {
            CellFailure::Panicked { message, .. } => format!("panicked: {message}"),
            CellFailure::HardDeadline { limit_ms, .. } => {
                format!("exceeded hard deadline of {limit_ms} ms")
            }
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked { message, attempts } => {
                write!(f, "panicked after {attempts} attempt(s): {message}")
            }
            CellFailure::HardDeadline { limit_ms, attempts } => write!(
                f,
                "exceeded hard deadline of {limit_ms} ms after {attempts} attempt(s)"
            ),
        }
    }
}

/// Supervisor policy for a [`Harness`]: retry budget, seeded backoff,
/// deadlines, and harness-level fault injection.
///
/// The default config is the pre-supervisor behaviour — no retries, no
/// deadlines, no injected faults — except that panics are *always*
/// isolated per cell rather than poisoning the pool.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Seed for the per-cell backoff schedule (derived, never used raw).
    pub retry_seed: u64,
    /// Upper bound on one backoff sleep, in milliseconds (0 disables
    /// sleeping entirely; retries are then immediate).
    pub max_backoff_ms: u64,
    /// Flag cells running longer than this into the [`HarnessLog`]
    /// (observability only; the cell keeps running).
    pub soft_deadline: Option<Duration>,
    /// Abandon attempts running longer than this and retry/fail the
    /// cell. Only enforced by report-shaped runs ([`Harness::run`] /
    /// [`Harness::run_supervised`]); `run_map` closures borrow local
    /// state and cannot be abandoned mid-flight.
    pub hard_deadline: Option<Duration>,
    /// Harness-level fault plan: `cell_panic` / `cell_stall` windows
    /// covering cell *submission indices* (other kinds are ignored
    /// here; they act inside simulations via `FaultInjector`).
    pub faults: Option<FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 0,
            retry_seed: EXPERIMENT_SEED,
            max_backoff_ms: 20,
            soft_deadline: None,
            hard_deadline: None,
            faults: None,
        }
    }
}

impl SupervisorConfig {
    /// Config with a retry budget and everything else default.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Overrides the backoff-schedule seed.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// Overrides the backoff upper bound (milliseconds).
    pub fn with_max_backoff_ms(mut self, ms: u64) -> Self {
        self.max_backoff_ms = ms;
        self
    }

    /// Sets the soft deadline in milliseconds.
    pub fn with_soft_deadline_ms(mut self, ms: u64) -> Self {
        self.soft_deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Sets the hard deadline in milliseconds.
    pub fn with_hard_deadline_ms(mut self, ms: u64) -> Self {
        self.hard_deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Attaches a harness-level fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The seeded backoff before `attempt` (1-based) of the cell with
    /// this label, in milliseconds. Pure: equal (seed, label, attempt)
    /// always sleep equally, so a retried run stays reproducible.
    pub fn backoff_ms(&self, label: &str, attempt: u32) -> u64 {
        if self.max_backoff_ms == 0 {
            return 0;
        }
        let per_cell = derive_seed(self.retry_seed, label);
        derive_seed(per_cell, &format!("retry/{attempt}")) % (self.max_backoff_ms + 1)
    }

    /// The harness fault plan's hook for cell `index`, which both
    /// attempt paths run first inside their `catch_unwind`: it sleeps the
    /// injected stall (the max over covering `cell_stall` windows), then
    /// panics each attempt up to the count of injected failures (the max
    /// over covering `cell_panic` windows). It owns its two numbers, so a
    /// detached attempt thread can take it along.
    fn injection(&self, index: usize) -> impl Fn(u32) + Send + 'static {
        let (mut stall_ms, mut injected) = (0, 0);
        let windows = self.faults.iter().flat_map(|plan| plan.cell_windows());
        for w in windows.filter(|w| w.covers(index as u64)) {
            match w.kind {
                FaultKind::CellStall { millis } => stall_ms = stall_ms.max(millis),
                FaultKind::CellPanic { failures } => injected = injected.max(failures),
                _ => {}
            }
        }
        move |attempt| {
            if stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            if attempt <= injected {
                panic!("injected cell panic (attempt {attempt} of {injected} injected failures)");
            }
        }
    }
}

/// Internal: how one attempt ended short of success.
enum AttemptError {
    Panicked(String),
    Deadline(u64),
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
    /// sees this cell's events; merging across cells is the caller's
    /// job (see [`Harness::run_map`], which keeps merges deterministic
    /// by folding in submission order).
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

    /// A stable 64-bit key over everything that determines this cell's
    /// result: label, full simulation config, and workload identities.
    /// The checkpoint journal uses it to decide which cells a resumed
    /// run may skip. Equal configurations hash equally across runs of
    /// the same build (FxHash, no per-process randomness).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = hpage_types::FxHasher::default();
        h.write(format!("{self:?}").as_bytes());
        h.finish()
    }
}

/// The experiment harness: a worker pool plus the run-wide workload
/// cache, observability log, and supervisor. One harness drives one
/// `repro`/`hpsim` invocation; figure drivers borrow it.
#[derive(Debug)]
pub struct Harness {
    jobs: usize,
    cache: WorkloadCache,
    log: Arc<HarnessLog>,
    supervisor: SupervisorConfig,
    /// Supervisor events (cell panics, retries, deadline flags), in
    /// occurrence order. Wall-clock domain — merge only into telemetry
    /// counters, never into figure output.
    events: Mutex<Vec<Event>>,
    journal: Option<Arc<CellJournal>>,
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
            log: Arc::new(HarnessLog::new()),
            supervisor: SupervisorConfig::default(),
            events: Mutex::new(Vec::new()),
            journal: None,
        }
    }

    /// Replaces the supervisor config (retries, deadlines, faults).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Attaches a checkpoint journal; completed cells are recorded as
    /// they finish.
    pub fn with_journal(mut self, journal: Arc<CellJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The active supervisor config.
    pub fn supervisor(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// The attached checkpoint journal, if any.
    pub fn journal(&self) -> Option<&Arc<CellJournal>> {
        self.journal.as_ref()
    }

    /// Snapshot of supervisor events so far (occurrence order).
    pub fn supervisor_events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn emit(&self, event: Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
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
    /// Cells run supervised (retries, deadlines, fault injection per
    /// [`SupervisorConfig`]). A cell that still fails after its retry
    /// budget does **not** abort the grid: every other cell completes
    /// first, then this method panics with an aggregate message (the
    /// driving binary's per-section `catch_unwind` renders it as an
    /// `n/a (cell failed: …)` row). Callers that want the failures as
    /// values use [`run_supervised`](Self::run_supervised).
    pub fn run(&self, cells: Vec<Cell>) -> Vec<SimReport> {
        let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
        unwrap_all(&labels, self.run_supervised(cells))
    }

    /// Runs `cells` supervised and returns per-cell results in
    /// submission order, failures as `Err` values. This is the
    /// deadline-capable path: attempts run on dedicated threads, so a
    /// hard-deadline overrun abandons the attempt instead of blocking
    /// the pool. (The abandoned thread finishes in the background; its
    /// result is discarded.)
    pub fn run_supervised(&self, cells: Vec<Cell>) -> Vec<Result<SimReport, CellFailure>> {
        let sup = &self.supervisor;
        if sup.soft_deadline.is_none() && sup.hard_deadline.is_none() {
            return self.try_run_map(cells, Cell::run);
        }
        let cells: Vec<Arc<Cell>> = cells.into_iter().map(Arc::new).collect();
        self.dispatch(cells.len(), |i| {
            let cell = &cells[i];
            self.supervise_loop(i, cell, |attempt| self.deadline_attempt(i, cell, attempt))
        })
    }

    /// Runs `f` over every cell and returns the results in submission
    /// order. [`run`](Self::run) routes here when no deadlines are set;
    /// drivers that want per-cell telemetry pass a closure that attaches
    /// a recorder (e.g. via [`Cell::run_recorded`]) and returns the
    /// report *plus* whatever the recorder captured. Because results
    /// come back in submission order, folding them left-to-right (metric
    /// merges, ledger concatenation) is deterministic at any `--jobs`
    /// level.
    ///
    /// Panics with an aggregate message if any cell fails after its
    /// retry budget — but only after every other cell has completed.
    pub fn run_map<T, F>(&self, cells: Vec<Cell>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
        unwrap_all(&labels, self.try_run_map(cells, f))
    }

    /// The fallible form of [`run_map`](Self::run_map): each cell runs
    /// under `catch_unwind` with the supervisor's retry budget, and a
    /// cell that exhausts it yields `Err(CellFailure)` in its slot
    /// while the rest of the grid completes normally. Deadlines are not
    /// enforced on this path (`f` borrows local state and cannot be
    /// abandoned); use [`run_supervised`](Self::run_supervised) for
    /// deadline coverage.
    pub fn try_run_map<T, F>(&self, cells: Vec<Cell>, f: F) -> Vec<Result<T, CellFailure>>
    where
        T: Send,
        F: Fn(&Cell) -> T + Sync,
    {
        self.dispatch(cells.len(), |i| {
            let cell = &cells[i];
            let inject = self.supervisor.injection(i);
            self.supervise_loop(i, cell, |attempt| {
                catch_unwind(AssertUnwindSafe(|| {
                    inject(attempt);
                    f(cell)
                }))
                .map_err(|payload| AttemptError::Panicked(panic_message(payload)))
            })
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

    /// The supervisor's attempt loop for one cell: seeded backoff
    /// between attempts, retry/failure bookkeeping into the log and
    /// event stream, cell timing and journal entry on success.
    fn supervise_loop<T>(
        &self,
        index: usize,
        cell: &Cell,
        mut attempt_fn: impl FnMut(u32) -> Result<T, AttemptError>,
    ) -> Result<T, CellFailure> {
        let sup = &self.supervisor;
        let start = Instant::now();
        let max_attempts = sup.max_retries.saturating_add(1);
        let mut attempt: u32 = 1;
        loop {
            if attempt > 1 {
                let backoff = sup.backoff_ms(&cell.label, attempt);
                self.log.record_retry(&cell.label, attempt, backoff);
                self.emit(Event::CellRetried {
                    cell: index as u64,
                    attempt,
                    backoff_ms: backoff,
                });
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            let error = match attempt_fn(attempt) {
                Ok(result) => {
                    let wall_s = start.elapsed().as_secs_f64();
                    self.log.record_cell(&cell.label, wall_s);
                    if let Some(journal) = &self.journal {
                        if let Err(e) = journal.record_cell(
                            cell.fingerprint(),
                            &cell.label,
                            attempt,
                            (wall_s * 1000.0) as u64,
                        ) {
                            self.log.warn(format!(
                                "journal {}: failed to record cell {}: {e}",
                                journal.path(),
                                cell.label
                            ));
                        }
                    }
                    return Ok(result);
                }
                Err(e) => e,
            };
            match &error {
                AttemptError::Panicked(_) => self.emit(Event::CellPanicked {
                    cell: index as u64,
                    attempt,
                }),
                AttemptError::Deadline(_) => self.emit(Event::CellHardDeadline {
                    cell: index as u64,
                    attempt,
                }),
            }
            if attempt >= max_attempts {
                let failure = match error {
                    AttemptError::Panicked(message) => CellFailure::Panicked {
                        message,
                        attempts: attempt,
                    },
                    AttemptError::Deadline(limit_ms) => CellFailure::HardDeadline {
                        limit_ms,
                        attempts: attempt,
                    },
                };
                self.log
                    .record_failure(&cell.label, failure.reason(), attempt);
                return Err(failure);
            }
            attempt += 1;
        }
    }

    /// One deadline-watched attempt: the cell runs on a dedicated
    /// thread while this worker plays watchdog over an mpsc channel.
    /// Soft-deadline overruns are flagged and waiting continues;
    /// hard-deadline overruns abandon the attempt (the thread finishes
    /// in the background and its send lands in a closed channel).
    fn deadline_attempt(
        &self,
        index: usize,
        cell: &Arc<Cell>,
        attempt: u32,
    ) -> Result<SimReport, AttemptError> {
        let sup = &self.supervisor;
        let inject = sup.injection(index);
        let (tx, rx) = mpsc::channel();
        let worker_cell = Arc::clone(cell);
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                inject(attempt);
                worker_cell.run()
            }));
            // A send into a closed channel means the watchdog abandoned
            // this attempt; the completed (or failed) result is dropped.
            let _ = tx.send(outcome.map_err(panic_message));
        });

        let started = Instant::now();
        let finish = |out: Result<SimReport, String>| out.map_err(AttemptError::Panicked);
        let disconnected = || AttemptError::Panicked("cell worker died without reporting".into());

        // Phase 1: wait out the soft deadline (when it precedes the
        // hard one) and flag the overrun.
        if let Some(soft) = sup.soft_deadline {
            if sup.hard_deadline.is_none_or(|h| soft < h) {
                match rx.recv_timeout(soft) {
                    Ok(out) => return finish(out),
                    Err(RecvTimeoutError::Timeout) => {
                        let elapsed = started.elapsed();
                        self.log
                            .record_deadline(&cell.label, false, elapsed.as_secs_f64());
                        self.emit(Event::CellSoftDeadline {
                            cell: index as u64,
                            elapsed_ms: elapsed.as_millis() as u64,
                        });
                    }
                    Err(RecvTimeoutError::Disconnected) => return Err(disconnected()),
                }
            }
        }

        // Phase 2: wait out the hard deadline, or forever without one.
        match sup.hard_deadline {
            Some(hard) => {
                let left = hard.saturating_sub(started.elapsed());
                match rx.recv_timeout(left) {
                    Ok(out) => finish(out),
                    Err(RecvTimeoutError::Timeout) => {
                        self.log.record_deadline(
                            &cell.label,
                            true,
                            started.elapsed().as_secs_f64(),
                        );
                        Err(AttemptError::Deadline(hard.as_millis() as u64))
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(disconnected()),
                }
            }
            None => match rx.recv() {
                Ok(out) => finish(out),
                Err(_) => Err(disconnected()),
            },
        }
    }
}

/// Zips labels with supervised results; if any cell failed, panics with
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
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_is_rejected() {
        let _ = Harness::new(0);
    }
}
