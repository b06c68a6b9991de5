//! The end-to-end simulation loop: workload traces drive per-core TLB
//! hierarchies; misses walk the page tables and update the per-core PCCs;
//! the OS promotion engine runs every interval; shootdowns flow back into
//! TLBs and PCCs (the full datapath of the paper's Figs. 3–4).

use hpage_cache::CacheConfig;
use hpage_faults::{FaultPlan, FaultStats};
use hpage_obs::{IntervalSeries, NullRecorder, Recorder};
use hpage_os::{
    AuditViolation, BasePagesPolicy, HawkEyePolicy, HugePagePolicy, IdealHugePolicy,
    LinuxThpPolicy, PccPolicy, PromotionBudget, PromotionLedger, PromotionSchedule, ReplayPolicy,
};
use hpage_pcc::{Candidate, ReplacementPolicy};
use hpage_perf::RunCounters;
use hpage_trace::Workload;
use hpage_types::{
    HpageError, NestedConfig, ProcessId, PromotionPolicyKind, SystemConfig, TimingConfig,
};

/// Which huge-page management policy a run uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyChoice {
    /// 4 KiB base pages only (the paper's baseline).
    BasePages,
    /// Everything huge at fault time (the "Max. Perf. with THPs" line).
    IdealHuge,
    /// Linux THP: greedy synchronous allocation + khugepaged.
    LinuxThp,
    /// HawkEye access-coverage promotion.
    HawkEye,
    /// The paper's PCC-driven promotion.
    Pcc {
        /// OS candidate-selection across per-core PCCs.
        selection: PromotionPolicyKind,
        /// Enable PCC-guided demotion under memory pressure (§3.3.3).
        demotion: bool,
        /// Processes to prioritise (`promotion_bias_process`).
        bias: Vec<ProcessId>,
    },
    /// Replay a promotion schedule recorded by an earlier (offline PCC)
    /// run — the second step of the paper's §4 methodology.
    Replay(PromotionSchedule),
    /// The §5.4.1 design alternative: identify candidates from L2-TLB
    /// *evictions* (a victim cache) instead of page-table walks. Uses a
    /// victim-fed candidate cache of `entries` entries per core with the
    /// same OS consumption path as the PCC.
    VictimCache {
        /// Victim-cache entries per core.
        entries: u32,
    },
}

impl PolicyChoice {
    /// The paper's default PCC configuration (highest frequency, no
    /// demotion, no bias).
    pub fn pcc_default() -> Self {
        PolicyChoice::Pcc {
            selection: PromotionPolicyKind::HighestFrequency,
            demotion: false,
            bias: Vec::new(),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            PolicyChoice::BasePages => "base-4k".into(),
            PolicyChoice::IdealHuge => "ideal-2m".into(),
            PolicyChoice::LinuxThp => "linux-thp".into(),
            PolicyChoice::HawkEye => "hawkeye".into(),
            PolicyChoice::Pcc {
                selection,
                demotion,
                ..
            } => {
                let mut s = format!("pcc-{selection}");
                if *demotion {
                    s.push_str("+demote");
                }
                s
            }
            PolicyChoice::Replay(_) => "replay".into(),
            PolicyChoice::VictimCache { entries } => format!("victim-cache-{entries}"),
        }
    }

    /// The policy engine for a run of `config`. `degradation` turns on
    /// the PCC engine's graceful degradation; other policies have none.
    pub(crate) fn build(
        &self,
        config: &SystemConfig,
        degradation: bool,
    ) -> Box<dyn HugePagePolicy> {
        match self {
            PolicyChoice::BasePages => Box::new(BasePagesPolicy),
            PolicyChoice::IdealHuge => Box::new(IdealHugePolicy),
            PolicyChoice::LinuxThp => Box::new(
                LinuxThpPolicy::new().with_pages_per_scan(config.scanner_pages_per_interval),
            ),
            PolicyChoice::HawkEye => Box::new(
                HawkEyePolicy::new().with_pages_per_scan(config.scanner_pages_per_interval),
            ),
            PolicyChoice::Pcc {
                selection,
                demotion,
                bias,
            } => Box::new(
                PccPolicy::new(*selection, config.regions_to_promote)
                    .with_bias(bias.clone())
                    .with_demotion(*demotion)
                    .with_degradation(degradation),
            ),
            PolicyChoice::Replay(schedule) => Box::new(ReplayPolicy::new(schedule.clone())),
            // The victim-cache alternative reuses the PCC's OS consumption
            // path; only the hardware feed differs.
            PolicyChoice::VictimCache { .. } => Box::new(
                PccPolicy::new(
                    PromotionPolicyKind::HighestFrequency,
                    config.regions_to_promote,
                )
                .with_degradation(degradation),
            ),
        }
    }

    pub(crate) fn uses_pcc(&self) -> bool {
        matches!(self, PolicyChoice::Pcc { .. })
    }

    pub(crate) fn uses_victim_cache(&self) -> Option<u32> {
        match self {
            PolicyChoice::VictimCache { entries } => Some(*entries),
            _ => None,
        }
    }
}

/// One process in a run: a workload executed by `threads` threads (one
/// core each).
pub struct ProcessSpec<'w> {
    /// The workload to execute.
    pub workload: &'w dyn Workload,
    /// Thread count (vertex/stream partitioning is the workload's).
    pub threads: u32,
}

impl<'w> ProcessSpec<'w> {
    /// Single-threaded process.
    pub fn new(workload: &'w dyn Workload) -> Self {
        ProcessSpec {
            workload,
            threads: 1,
        }
    }

    /// Multi-threaded process.
    pub fn with_threads(workload: &'w dyn Workload, threads: u32) -> Self {
        assert!(threads > 0, "a process needs at least one thread");
        ProcessSpec { workload, threads }
    }
}

/// Everything measured by one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Policy label.
    pub policy: String,
    /// Aggregate counters over all cores/processes.
    pub aggregate: RunCounters,
    /// Counters per process (promotions/faults attributed to the owning
    /// process; TLB events attributed via the cores it ran on).
    pub per_process: Vec<RunCounters>,
    /// 2 MiB frames in use when the run ended (the paper's "Number of
    /// THPs" axis in Fig. 9).
    pub huge_pages_at_end: u64,
    /// Huge-page promotion attempts that failed for lack of frames.
    pub promotion_failures: u64,
    /// Always empty: the 1 GiB PCC is not modelled. The field stays only
    /// because the benchmark's digest hashes this struct's `Debug` form.
    pub candidates_1g: Vec<Candidate>,
    /// The promotion schedule of this run (every promotion with its
    /// timestamp) — feed it to [`PolicyChoice::Replay`] to reproduce the
    /// paper's offline-simulate-then-replay methodology.
    pub schedule: PromotionSchedule,
    /// Page-table-walk rate per promotion interval, in interval order —
    /// the time-to-benefit curve (§5.4.2: "the PCC can identify HUBs
    /// within a few seconds"). Entry `i` covers the i-th interval of
    /// accesses. Filled from `interval_series.walk_rates()` when the run
    /// ends.
    pub interval_walk_rates: Vec<f64>,
    /// Full per-interval time series (walk/L1/L2 rates, promotions,
    /// demotions, PCC occupancy, huge-page residency, bloat) — the
    /// structured generalization of `interval_walk_rates`; the two are
    /// index-aligned.
    pub interval_series: IntervalSeries,
    /// Memory bloat at run end, per process: resident bytes beyond what
    /// faults touched (the §1 THP-bloat problem; greedy fault-time huge
    /// allocation inflates this, targeted promotion does not).
    pub bloat_bytes: Vec<u64>,
    /// Fault-injection counters when the run had a
    /// [`FaultPlan`](Simulation::with_faults) attached; `None` otherwise.
    pub fault_stats: Option<FaultStats>,
    /// Invariant-auditor findings, `(interval, violation)` pairs — empty
    /// on a clean run, and always empty unless
    /// [`with_audit`](Simulation::with_audit) was set.
    pub audit_violations: Vec<(u64, AuditViolation)>,
    /// The promotion ledger (predicted vs realized walk savings per
    /// promoted region); `Some` only when
    /// [`with_ledger`](Simulation::with_ledger) was set.
    pub ledger: Option<PromotionLedger>,
    /// The host-dimension promotion ledger of a nested run, keyed by
    /// `(VM pid, guest-physical 2 MiB region)`; `Some` only when both
    /// [`with_ledger`](Simulation::with_ledger) and
    /// [`with_nested`](Simulation::with_nested) were set.
    pub host_ledger: Option<PromotionLedger>,
}

impl SimReport {
    /// Aggregate speedup over a baseline run under `timing`.
    pub fn speedup_over(&self, baseline: &SimReport, timing: &TimingConfig) -> f64 {
        self.aggregate.speedup_over(&baseline.aggregate, timing)
    }

    /// Per-process speedup over the same process in a baseline run.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range in either report.
    pub fn process_speedup_over(
        &self,
        baseline: &SimReport,
        process: usize,
        timing: &TimingConfig,
    ) -> f64 {
        self.per_process[process].speedup_over(&baseline.per_process[process], timing)
    }
}

/// Configures and runs simulations.
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) config: SystemConfig,
    pub(crate) policy: PolicyChoice,
    pub(crate) fragmentation_pct: u8,
    pub(crate) fragmentation_seed: u64,
    pub(crate) budget: PromotionBudget,
    pub(crate) replacement: ReplacementPolicy,
    pub(crate) max_accesses_per_core: Option<u64>,
    pub(crate) cache: Option<CacheConfig>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) degradation: bool,
    pub(crate) audit: bool,
    pub(crate) ledger: bool,
    pub(crate) sim_threads: usize,
    pub(crate) nested: Option<NestedConfig>,
}

impl Simulation {
    /// Creates a simulation of `config` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: SystemConfig, policy: PolicyChoice) -> Self {
        config.validate().expect("invalid system config");
        Simulation {
            config,
            policy,
            fragmentation_pct: 0,
            fragmentation_seed: 0xF4A6,
            budget: PromotionBudget::UNLIMITED,
            replacement: ReplacementPolicy::default(),
            max_accesses_per_core: None,
            cache: None,
            faults: None,
            degradation: false,
            audit: false,
            ledger: false,
            sim_threads: 1,
            nested: None,
        }
    }

    /// Runs every process as a guest VM under nested (2D) paging: each
    /// guest page-table access is itself translated by a private per-VM
    /// host page table, through the nested TLB and split guest/host
    /// paging-structure caches of [`hpage_tlb::NestedPwc`]. The run's
    /// [`PolicyChoice`] drives the *guest* dimension as usual;
    /// `nested.placement` decides which dimension gets PCC-driven host
    /// promotion (host faults always start as base pages). Walk counters
    /// then measure 2D references per walk, and the policy label gains a
    /// `+nested-<placement>` suffix. The native `SystemConfig::pwc` is
    /// ignored in nested mode — the guest-side structure caches come
    /// from `nested.guest_pwc`.
    ///
    /// # Panics
    ///
    /// Panics if `nested` fails [`NestedConfig::validate`].
    #[must_use]
    pub fn with_nested(mut self, nested: NestedConfig) -> Self {
        nested.validate().expect("invalid nested config");
        self.nested = Some(nested);
        self
    }

    /// Shards the simulation loop across `n` OS threads: the calling
    /// thread runs the first shard and `n - 1` workers the rest. Every
    /// core of a process is pinned to the shard that owns the process's
    /// address space, so the effective shard count is capped at the
    /// process count (and forced to 1 when the shared-LLC data-cache
    /// model is on). Reports, recordings, and the promotion ledger are
    /// byte-identical at any thread count — see the engine docs in
    /// `shard.rs` for the determinism argument. `n == 0` is treated
    /// as 1.
    #[must_use]
    pub fn with_sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = n;
        self
    }

    /// Attaches a deterministic fault plan: at every promotion-interval
    /// boundary the injector is queried and the plan's active windows are
    /// applied (allocation gating, fragmentation shocks, PCC resets, TLB
    /// shootdown storms). The same plan and seed reproduce bit-identical
    /// runs.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables graceful degradation in policies that support it (the PCC
    /// engine and the victim cache that reuses it): per-region
    /// exponential backoff after failed promotions and
    /// pressure-triggered throttling/demotion.
    #[must_use]
    pub fn with_degradation(mut self) -> Self {
        self.degradation = true;
        self
    }

    /// Runs the invariant auditor at every interval boundary, collecting
    /// violations into [`SimReport::audit_violations`].
    #[must_use]
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Keeps a promotion ledger: per-2 MiB-region walk counts are
    /// tallied each interval, and every promotion records its
    /// policy-predicted walk savings alongside the realized
    /// post-promotion walk delta. The result lands in
    /// [`SimReport::ledger`]. Pure observation — it never changes what
    /// the simulation does — but the per-walk tally has a (small) cost,
    /// so it is off by default.
    #[must_use]
    pub fn with_ledger(mut self) -> Self {
        self.ledger = true;
        self
    }

    /// Fragments physical memory before the run (the paper's 50%/90%
    /// scenarios).
    #[must_use]
    pub fn with_fragmentation(mut self, percent: u8, seed: u64) -> Self {
        self.fragmentation_pct = percent;
        self.fragmentation_seed = seed;
        self
    }

    /// Caps total promotions (the utility-curve budget).
    #[must_use]
    pub fn with_budget(mut self, budget: PromotionBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the PCC replacement policy (ablation).
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Truncates each core's trace after `n` accesses (simulation
    /// window).
    #[must_use]
    pub fn with_max_accesses_per_core(mut self, n: u64) -> Self {
        self.max_accesses_per_core = Some(n);
        self
    }

    /// Enables the optional physically-indexed data-cache hierarchy
    /// (per-core L1D + L2, shared LLC). Pair with a timing config from
    /// [`TimingConfig::with_cache_model`] or memory time is charged
    /// twice.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the simulation over `processes`, assigning one core per
    /// thread in specification order.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or physical memory is exhausted
    /// (use [`try_run_recorded`](Self::try_run_recorded) with a
    /// [`NullRecorder`] for a fallible variant).
    pub fn run(&self, processes: &[ProcessSpec<'_>]) -> SimReport {
        match self.try_run_recorded(processes, &mut NullRecorder) {
            Ok(report) => report,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Fallible [`run`](Self::run) that streams a typed [`Event`] into
    /// `recorder` at every decision point (TLB hits, walks, faults, PCC
    /// updates, promotions, demotions, shootdowns, interval snapshots).
    ///
    /// The simulation is generic over the recorder, so a run with
    /// [`NullRecorder`] monomorphizes every instrumentation site to dead
    /// code — an unobserved run costs nothing. Timestamps are total
    /// accesses issued, so a fixed-seed recording is byte-stable.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::OutOfMemory`] when base-page allocation
    /// fails (huge-page failures degrade to base pages and injected
    /// faults never gate base allocation, so under any fault plan this
    /// only fires on genuine exhaustion).
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty.
    pub fn try_run_recorded<R: Recorder>(
        &self,
        processes: &[ProcessSpec<'_>],
        recorder: &mut R,
    ) -> Result<SimReport, HpageError> {
        crate::shard::run(self, processes, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_obs::{JsonlSink, MemoryRecorder};
    use hpage_trace::{Pattern, SyntheticBuilder, SyntheticWorkload};

    /// A TLB-hostile workload: uniform random accesses over `mb` MiB,
    /// far beyond the tiny TLB's reach.
    fn random_workload(mb: u64, accesses: u64, seed: u64) -> SyntheticWorkload {
        let mut b = SyntheticBuilder::new("rand", seed);
        let a = b.array(8, mb * (1 << 20) / 8);
        b.phase(a, Pattern::UniformRandom { count: accesses }, 0);
        b.build()
    }

    /// A TLB-friendly workload: pure sequential streaming.
    fn seq_workload(mb: u64, accesses: u64) -> SyntheticWorkload {
        let mut b = SyntheticBuilder::new("seq", 0);
        let a = b.array(8, mb * (1 << 20) / 8);
        b.phase(
            a,
            Pattern::Sequential {
                stride: 1,
                count: accesses,
            },
            0,
        );
        b.build()
    }

    fn tiny_sim(policy: PolicyChoice) -> Simulation {
        Simulation::new(hpage_types::SystemConfig::tiny(), policy)
    }

    #[test]
    fn baseline_counts_all_accesses() {
        let w = random_workload(8, 100_000, 1);
        let report = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        assert_eq!(report.aggregate.accesses, 100_000);
        assert!(report.aggregate.walks > 0);
        assert_eq!(report.aggregate.promotions, 0);
        assert_eq!(report.huge_pages_at_end, 0);
        // Hits + misses account for every access.
        let a = &report.aggregate;
        assert_eq!(a.l1_hits + a.l2_hits + a.walks, a.accesses);
    }

    #[test]
    fn sequential_workload_is_tlb_friendly() {
        let w = seq_workload(8, 100_000);
        let report = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        // One walk per new page (plus cold start), everything else hits.
        assert!(report.aggregate.walk_ratio() < 0.01);
    }

    #[test]
    fn ideal_huge_eliminates_most_walks() {
        let w = random_workload(8, 100_000, 1);
        let base = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        let ideal = tiny_sim(PolicyChoice::IdealHuge).run(&[ProcessSpec::new(&w)]);
        assert!(ideal.aggregate.walks * 5 < base.aggregate.walks);
        assert!(ideal.per_process[0].faults_huge > 0);
        assert!(ideal.huge_pages_at_end > 0);
        let t = TimingConfig::paper();
        assert!(ideal.speedup_over(&base, &t) > 1.05);
    }

    #[test]
    fn pcc_policy_promotes_hot_regions() {
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert!(report.aggregate.promotions > 0, "PCC should promote");
        assert!(report.huge_pages_at_end > 0);
        // Promotions reduce walks versus baseline.
        let base = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        assert!(report.aggregate.walks < base.aggregate.walks);
    }

    #[test]
    fn ledger_attributes_pcc_promotions() {
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default())
            .with_ledger()
            .with_audit()
            .run(&[ProcessSpec::new(&w)]);
        assert!(report.aggregate.promotions > 0, "PCC should promote");
        let ledger = report.ledger.as_ref().expect("ledger requested");
        assert_eq!(ledger.len() as u64, report.aggregate.promotions);
        // PCC promotions carry the candidate's frequency as the
        // prediction; every entry should be nonzero.
        assert!(ledger.entries().iter().all(|e| e.predicted_walks > 0));
        let summary = ledger.summary();
        assert!(summary.prediction_accuracy.is_finite());
        assert!((0.0..=1.0).contains(&summary.prediction_accuracy));
        // The hot regions keep getting hit after promotion via the
        // huge-page entry, so realized walk savings must show up.
        assert!(summary.total_realized > 0.0);
        assert!(
            report.audit_violations.is_empty(),
            "ledger must stay coherent with the page tables: {:?}",
            report.audit_violations
        );
    }

    #[test]
    fn ledger_is_pure_observation() {
        let w = random_workload(8, 400_000, 1);
        let plain = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        let mut ledgered = tiny_sim(PolicyChoice::pcc_default())
            .with_ledger()
            .run(&[ProcessSpec::new(&w)]);
        assert!(ledgered.ledger.is_some());
        ledgered.ledger = None;
        assert_eq!(plain, ledgered, "ledger must not perturb the simulation");
    }

    #[test]
    fn non_predictive_policies_ledger_zero_predictions() {
        let w = random_workload(16, 600_000, 3);
        let report = tiny_sim(PolicyChoice::HawkEye)
            .with_ledger()
            .run(&[ProcessSpec::new(&w)]);
        let ledger = report.ledger.as_ref().expect("ledger requested");
        assert!(!ledger.is_empty());
        assert!(ledger.entries().iter().all(|e| e.predicted_walks == 0));
        // Accuracy stays defined (and pessimal) for non-predictive
        // policies that nonetheless realize savings.
        assert!(ledger.summary().prediction_accuracy.is_finite());
    }

    #[test]
    fn budget_caps_promotions() {
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default())
            .with_budget(PromotionBudget::regions(2))
            .run(&[ProcessSpec::new(&w)]);
        assert!(report.aggregate.promotions <= 2);
    }

    #[test]
    fn fragmentation_blocks_linux_thp() {
        let w = random_workload(8, 200_000, 1);
        let free = tiny_sim(PolicyChoice::LinuxThp).run(&[ProcessSpec::new(&w)]);
        let frag = tiny_sim(PolicyChoice::LinuxThp)
            .with_fragmentation(100, 7)
            .run(&[ProcessSpec::new(&w)]);
        assert!(free.huge_pages_at_end > 0);
        assert_eq!(frag.huge_pages_at_end, 0);
        assert!(frag.aggregate.walks > free.aggregate.walks);
    }

    #[test]
    fn hawkeye_promotes_but_slower_than_pcc() {
        let w = random_workload(16, 600_000, 3);
        let hawkeye = tiny_sim(PolicyChoice::HawkEye).run(&[ProcessSpec::new(&w)]);
        let pcc = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert!(hawkeye.aggregate.promotions > 0);
        // The PCC identifies candidates faster (more promotions early,
        // fewer residual walks).
        assert!(pcc.aggregate.walks <= hawkeye.aggregate.walks);
    }

    #[test]
    fn multithread_run_places_cores() {
        let w = random_workload(8, 60_000, 2);
        let report = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::with_threads(&w, 4)]);
        // 4 threads × 60k accesses each.
        assert_eq!(report.aggregate.accesses, 240_000);
        assert_eq!(report.per_process.len(), 1);
    }

    #[test]
    fn multiprocess_reports_per_process() {
        let w1 = random_workload(8, 100_000, 2);
        let w2 = seq_workload(8, 100_000);
        let report = tiny_sim(PolicyChoice::pcc_default())
            .run(&[ProcessSpec::new(&w1), ProcessSpec::new(&w2)]);
        assert_eq!(report.per_process.len(), 2);
        assert_eq!(report.per_process[0].accesses, 100_000);
        assert_eq!(report.per_process[1].accesses, 100_000);
        // The random process walks far more than the sequential one.
        assert!(report.per_process[0].walks > 10 * report.per_process[1].walks);
    }

    #[test]
    fn max_accesses_truncates() {
        let w = random_workload(8, 100_000, 1);
        let report = tiny_sim(PolicyChoice::BasePages)
            .with_max_accesses_per_core(10_000)
            .run(&[ProcessSpec::new(&w)]);
        assert_eq!(report.aggregate.accesses, 10_000);
    }

    #[test]
    fn zero_access_budget_returns_an_empty_report() {
        // A zero budget gives no core any quota, so every core must be
        // retired before the first round or the round loop never ends.
        let w = random_workload(8, 100_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default())
            .with_max_accesses_per_core(0)
            .run(&[ProcessSpec::with_threads(&w, 2)]);
        assert_eq!(report.aggregate.accesses, 0);
        assert_eq!(report.aggregate.walks, 0);
        assert_eq!(report.per_process[0].accesses, 0);
    }

    #[test]
    fn deterministic_runs() {
        let w = random_workload(8, 150_000, 9);
        let r1 = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        let r2 = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert_eq!(r1, r2);
    }

    #[test]
    fn recording_does_not_perturb_the_simulation() {
        // The flight recorder must be pure observation: a run with a live
        // recorder produces a SimReport identical to an unobserved run.
        // Also under the PCC and under the victim cache with cores on two
        // shard threads.
        let w = random_workload(8, 150_000, 9);
        let w2 = random_workload(8, 150_000, 10);
        let one = [ProcessSpec::new(&w)];
        let two = [ProcessSpec::with_threads(&w, 2), ProcessSpec::new(&w2)];
        let cases: [(Simulation, &[ProcessSpec<'_>]); 3] = [
            (tiny_sim(PolicyChoice::pcc_default()), &one),
            (
                tiny_sim(PolicyChoice::pcc_default()).with_sim_threads(2),
                &two,
            ),
            (
                tiny_sim(PolicyChoice::VictimCache { entries: 128 }).with_sim_threads(2),
                &two,
            ),
        ];
        for (sim, specs) in cases {
            let silent = sim.run(specs);
            let mut rec = MemoryRecorder::new();
            let observed = sim.try_run_recorded(specs, &mut rec).unwrap();
            assert_eq!(silent, observed, "{}", silent.policy);
            assert!(!rec.is_empty());
        }
    }

    #[test]
    fn recorded_jsonl_is_byte_stable() {
        // Fixed seed => identical traces => identical event stream, byte
        // for byte (timestamps are simulation time, never wall clock).
        let w = random_workload(8, 150_000, 9);
        let jsonl: Vec<String> = (0..2)
            .map(|_| {
                let mut buf = Vec::new();
                let mut sink = JsonlSink::new(&mut buf);
                tiny_sim(PolicyChoice::pcc_default())
                    .try_run_recorded(&[ProcessSpec::new(&w)], &mut sink)
                    .unwrap();
                let counts = sink.finish().expect("stream to memory");
                assert!(!counts.is_empty());
                String::from_utf8(buf).unwrap()
            })
            .collect();
        assert!(!jsonl[0].is_empty());
        assert_eq!(jsonl[0], jsonl[1]);
        for line in jsonl[0].lines() {
            hpage_obs::json::assert_json_shape(line);
        }
    }

    #[test]
    fn recorder_captures_expected_event_kinds() {
        let w = random_workload(8, 400_000, 1);
        let mut rec = MemoryRecorder::new();
        tiny_sim(PolicyChoice::pcc_default())
            .try_run_recorded(&[ProcessSpec::new(&w)], &mut rec)
            .unwrap();
        let counts = rec.counts_by_kind();
        for kind in [
            "tlb_hit",
            "walk",
            "fault",
            "pcc",
            "promote",
            "shootdown",
            "interval",
        ] {
            assert!(
                counts.get(kind).copied().unwrap_or(0) > 0,
                "expected at least one {kind} event; got {counts:?}"
            );
        }
    }

    #[test]
    fn interval_series_aligns_with_walk_rates() {
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert!(!report.interval_series.is_empty());
        assert_eq!(
            report.interval_series.walk_rates(),
            report.interval_walk_rates
        );
        let total_promos: u64 = report
            .interval_series
            .rows()
            .iter()
            .map(|r| r.promotions)
            .sum();
        assert_eq!(total_promos, report.aggregate.promotions);
        // Rates are proper fractions.
        for row in report.interval_series.rows() {
            assert!(row.walk_rate + row.l1_hit_rate + row.l2_hit_rate <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyChoice::BasePages.label(), "base-4k");
        assert_eq!(
            PolicyChoice::pcc_default().label(),
            "pcc-highest-pcc-frequency"
        );
        let demote = PolicyChoice::Pcc {
            selection: PromotionPolicyKind::RoundRobin,
            demotion: true,
            bias: vec![],
        };
        assert_eq!(demote.label(), "pcc-round-robin+demote");
    }

    #[test]
    fn shootdowns_recorded_on_promotion() {
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert!(report.aggregate.shootdowns >= report.aggregate.promotions);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_run_panics() {
        let _ = tiny_sim(PolicyChoice::BasePages).run(&[]);
    }

    #[test]
    fn offline_record_then_replay_matches() {
        // The paper's two-step methodology: an offline PCC simulation
        // records the candidate trace; a second run without PCC hardware
        // replays it and gets the same promotions and TLB behaviour.
        let w = random_workload(8, 400_000, 1);
        let offline = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        assert!(!offline.schedule.is_empty());
        let replayed =
            tiny_sim(PolicyChoice::Replay(offline.schedule.clone())).run(&[ProcessSpec::new(&w)]);
        assert_eq!(replayed.policy, "replay");
        assert_eq!(replayed.aggregate.promotions, offline.aggregate.promotions);
        // Identical promotion schedule => identical regions promoted, so
        // the TLB behaviour matches exactly (same deterministic trace).
        assert_eq!(replayed.aggregate.walks, offline.aggregate.walks);
        assert_eq!(replayed.schedule, offline.schedule);
    }

    #[test]
    fn pwc_shortens_walks_but_not_misses() {
        // §5.4.1: PWCs reduce walk *latency* (levels referenced) yet do
        // not reduce TLB miss counts — the PCC is still needed.
        let w = random_workload(8, 200_000, 1);
        let mut cfg = hpage_types::SystemConfig::tiny();
        let no_pwc =
            Simulation::new(cfg.clone(), PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        cfg.pwc = Some(hpage_types::PwcConfig::typical());
        let with_pwc = Simulation::new(cfg, PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        assert_eq!(with_pwc.aggregate.walks, no_pwc.aggregate.walks);
        assert!(
            with_pwc.aggregate.walk_levels < no_pwc.aggregate.walk_levels / 2,
            "pwc {} vs no-pwc {}",
            with_pwc.aggregate.walk_levels,
            no_pwc.aggregate.walk_levels
        );
        let t = TimingConfig::paper();
        assert!(with_pwc.aggregate.cycles(&t) < no_pwc.aggregate.cycles(&t));
    }

    #[test]
    fn cache_model_counts_and_charges() {
        let w = random_workload(8, 150_000, 1);
        let mut cfg = hpage_types::SystemConfig::tiny();
        cfg.timing = cfg.timing.with_cache_model();
        let timing = cfg.timing;
        let no_cache =
            Simulation::new(cfg.clone(), PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        assert_eq!(no_cache.aggregate.cache_memory, 0);
        let cached = Simulation::new(cfg, PolicyChoice::BasePages)
            .with_cache(hpage_cache::CacheConfig::tiny())
            .run(&[ProcessSpec::new(&w)]);
        // Every access is classified; random over 8MiB >> tiny LLC means
        // plenty of memory accesses.
        let a = &cached.aggregate;
        assert!(a.cache_memory > 0);
        assert!(a.cache_l2_hits + a.cache_llc_hits + a.cache_memory <= a.accesses);
        assert!(a.cycles(&timing) > no_cache.aggregate.cycles(&timing));
    }

    #[test]
    fn cache_model_sees_streaming_vs_looping() {
        // Sequential streaming misses per line; looping in a small buffer
        // hits. This is the workload-dependent memory time the constant
        // base-cost model cannot express.
        let stream = seq_workload(8, 100_000);
        let mut b = hpage_trace::SyntheticBuilder::new("loop", 0);
        let arr = b.array(8, 128); // 1KB: fits L1D
        b.phase(
            arr,
            hpage_trace::Pattern::Sequential {
                stride: 1,
                count: 100_000,
            },
            0,
        );
        let looping = b.build();
        let run = |w: &dyn hpage_trace::Workload| {
            Simulation::new(hpage_types::SystemConfig::tiny(), PolicyChoice::BasePages)
                .with_cache(hpage_cache::CacheConfig::tiny())
                .run(&[ProcessSpec::new(w)])
        };
        let s = run(&stream);
        let l = run(&looping);
        assert!(
            s.aggregate.cache_memory * 5 > s.aggregate.accesses / 8,
            "streaming misses every line: {}",
            s.aggregate.cache_memory
        );
        assert!(
            l.aggregate.cache_memory < l.aggregate.accesses / 100,
            "looping should hit: {}",
            l.aggregate.cache_memory
        );
    }

    #[test]
    fn greedy_huge_faulting_bloats_sparse_workloads() {
        // A sparse touch pattern: one access per 2MB region stride.
        let mut b = hpage_trace::SyntheticBuilder::new("sparse", 1);
        let arr = b.array(1 << 21, 32); // 32 elements, one per region
        b.phase(
            arr,
            hpage_trace::Pattern::Sequential {
                stride: 1,
                count: 32,
            },
            0,
        );
        let w = b.build();
        let base = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        let greedy = tiny_sim(PolicyChoice::IdealHuge).run(&[ProcessSpec::new(&w)]);
        assert_eq!(
            base.bloat_bytes[0], 0,
            "base pages commit only touched memory"
        );
        // Greedy huge faulting commits ~2MB per touched page.
        assert!(
            greedy.bloat_bytes[0] > 30 * ((2 << 20) - 4096),
            "greedy bloat {} too small",
            greedy.bloat_bytes[0]
        );
    }

    #[test]
    fn interval_walk_rates_show_time_to_benefit() {
        // With the PCC, the walk rate drops sharply after the first
        // promotion interval — the paper's "identifies HUBs within a few
        // seconds" claim in timeline form.
        let w = random_workload(8, 400_000, 1);
        let report = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        let rates = &report.interval_walk_rates;
        assert!(
            rates.len() >= 4,
            "expected several intervals, got {}",
            rates.len()
        );
        let first = rates[0];
        let late = rates[rates.len() - 1];
        assert!(
            late < first / 2.0,
            "walk rate should collapse after early promotions: {first:.3} -> {late:.3}"
        );
        // The baseline's rate stays flat.
        let base = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        let b = &base.interval_walk_rates;
        assert!(b[b.len() - 1] > b[0] * 0.5);
    }

    #[test]
    fn victim_cache_alternative_promotes_but_less_precisely() {
        // §5.4.1: a victim cache can surface candidates, but a small one
        // gets polluted by sparsely-accessed data. Both sizes must
        // promote; the PCC must be at least as effective as the small
        // victim cache.
        let w = random_workload(16, 600_000, 5);
        let base = tiny_sim(PolicyChoice::BasePages).run(&[ProcessSpec::new(&w)]);
        let pcc = tiny_sim(PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        let vc_small =
            tiny_sim(PolicyChoice::VictimCache { entries: 4 }).run(&[ProcessSpec::new(&w)]);
        let vc_big =
            tiny_sim(PolicyChoice::VictimCache { entries: 128 }).run(&[ProcessSpec::new(&w)]);
        assert_eq!(vc_small.policy, "victim-cache-4");
        assert!(vc_big.aggregate.promotions > 0);
        assert!(pcc.aggregate.walks <= vc_small.aggregate.walks);
        assert!(vc_big.aggregate.walks <= base.aggregate.walks);
    }

    fn chaos_plan() -> hpage_faults::FaultPlan {
        use hpage_faults::{FaultKind, FaultPlan, FaultWindow};
        FaultPlan::new(
            "sim-chaos",
            vec![
                FaultWindow {
                    kind: FaultKind::OomWindow,
                    at: 1,
                    duration: 2,
                },
                FaultWindow {
                    kind: FaultKind::CompactionStall,
                    at: 2,
                    duration: 2,
                },
                FaultWindow {
                    kind: FaultKind::PccReset,
                    at: 3,
                    duration: 1,
                },
                FaultWindow {
                    kind: FaultKind::FragmentationShock {
                        percent: 40,
                        seed: 9,
                    },
                    at: 4,
                    duration: 1,
                },
                FaultWindow {
                    kind: FaultKind::ShootdownSpike,
                    at: 5,
                    duration: 1,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn faulted_runs_are_deterministic_and_audit_clean() {
        let w = random_workload(8, 400_000, 1);
        let run = || {
            tiny_sim(PolicyChoice::pcc_default())
                .with_faults(chaos_plan())
                .with_degradation()
                .with_audit()
                .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
                .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2, "same plan + same seed must be bit-identical");
        let stats = r1.fault_stats.expect("plan attached");
        assert!(
            stats.oom_intervals >= 1,
            "OOM window never fired: {stats:?}"
        );
        assert_eq!(stats.shocks_fired, 1);
        assert!(stats.pcc_resets >= 1);
        assert!(stats.shootdown_spike_intervals >= 1);
        assert_eq!(r1.audit_violations, Vec::new());
        // Despite the faults, the run completes with all accesses issued.
        assert_eq!(r1.aggregate.accesses, 400_000);
    }

    #[test]
    fn fault_events_reach_the_recorder() {
        let w = random_workload(8, 400_000, 1);
        let mut rec = MemoryRecorder::new();
        tiny_sim(PolicyChoice::pcc_default())
            .with_faults(chaos_plan())
            .with_degradation()
            .try_run_recorded(&[ProcessSpec::new(&w)], &mut rec)
            .unwrap();
        let counts = rec.counts_by_kind();
        assert!(
            counts.get("fault_injected").copied().unwrap_or(0) >= 4,
            "expected one fault_injected per distinct fault kind; got {counts:?}"
        );
    }

    #[test]
    fn auditor_is_clean_across_policies() {
        let w = random_workload(8, 200_000, 1);
        for policy in [
            PolicyChoice::BasePages,
            PolicyChoice::IdealHuge,
            PolicyChoice::LinuxThp,
            PolicyChoice::HawkEye,
            PolicyChoice::pcc_default(),
        ] {
            let report = tiny_sim(policy)
                .with_audit()
                .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
                .unwrap();
            assert_eq!(
                report.audit_violations,
                Vec::new(),
                "policy {} violated invariants",
                report.policy
            );
        }
    }

    #[test]
    fn unfaulted_runs_report_no_fault_stats() {
        let w = random_workload(8, 100_000, 1);
        let report = tiny_sim(PolicyChoice::BasePages)
            .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
            .unwrap();
        assert_eq!(report.fault_stats, None);
        assert!(report.audit_violations.is_empty());
    }

    #[test]
    fn interval_boundaries_are_exact_at_any_core_count() {
        // Regression for the boundary-drift bug: the old loop checked
        // `total_accesses >= next_interval` only after a full sweep of
        // all cores, so the interval block ran up to cores×CHUNK
        // accesses late and the drift depended on the core count. The
        // sharded engine truncates round quotas in core order, so every
        // boundary lands on an exact multiple of the interval.
        let interval = hpage_types::SystemConfig::tiny().promotion_interval_accesses;
        let total = 400_000u64;
        let mut series_lens = Vec::new();
        for n in [1u64, 2, 4, 8] {
            let workloads: Vec<SyntheticWorkload> = (0..n)
                .map(|i| random_workload(8, total / n, 100 + i))
                .collect();
            let specs: Vec<ProcessSpec<'_>> = workloads
                .iter()
                .map(|w| ProcessSpec::new(w as &dyn Workload))
                .collect();
            let mut rec = MemoryRecorder::new();
            let report = tiny_sim(PolicyChoice::pcc_default())
                .try_run_recorded(&specs, &mut rec)
                .unwrap();
            assert_eq!(report.aggregate.accesses, total);
            let boundaries: Vec<u64> = rec
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, hpage_obs::Event::Interval(_)))
                .map(|&(at, _)| at)
                .collect();
            assert_eq!(boundaries.len() as u64, total / interval, "{n} cores");
            for (i, at) in boundaries.iter().enumerate() {
                assert_eq!(
                    *at,
                    (i as u64 + 1) * interval,
                    "{n} cores: boundary {i} drifted off the interval grid"
                );
            }
            series_lens.push(report.interval_series.len());
        }
        assert!(
            series_lens.windows(2).all(|w| w[0] == w[1]),
            "interval_series stays index-aligned across core counts: {series_lens:?}"
        );
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_sequential() {
        // The determinism contract of the sharded engine: same report,
        // same event stream, same ledger at any `--sim-threads`, under
        // a fault plan that fragments memory and storms TLBs mid-run.
        let w0 = random_workload(8, 150_000, 11);
        let w1 = seq_workload(4, 120_000);
        let w2 = random_workload(6, 180_000, 13);
        for policy in [
            PolicyChoice::pcc_default(),
            PolicyChoice::LinuxThp,
            PolicyChoice::BasePages,
            PolicyChoice::VictimCache { entries: 128 },
        ] {
            let runs: Vec<(SimReport, String)> = [1usize, 2, 3, 8]
                .iter()
                .map(|&threads| {
                    let mut buf = Vec::new();
                    let mut sink = JsonlSink::new(&mut buf);
                    let report = tiny_sim(policy.clone())
                        .with_faults(chaos_plan())
                        .with_ledger()
                        .with_audit()
                        .with_sim_threads(threads)
                        .try_run_recorded(
                            &[
                                ProcessSpec::new(&w0),
                                ProcessSpec::new(&w1),
                                ProcessSpec::new(&w2),
                            ],
                            &mut sink,
                        )
                        .unwrap();
                    sink.finish().expect("stream to memory");
                    (report, String::from_utf8(buf).unwrap())
                })
                .collect();
            for (report, jsonl) in &runs[1..] {
                assert_eq!(report, &runs[0].0, "{}: report differs", policy.label());
                assert_eq!(
                    jsonl,
                    &runs[0].1,
                    "{}: event stream differs",
                    policy.label()
                );
                assert!(report.audit_violations.is_empty(), "{}", policy.label());
            }
        }
    }

    #[test]
    fn shootdown_spike_records_storm_flush_sizes() {
        // Satellite fix: the shootdown-spike fault used to flush every
        // TLB and PWC without emitting any event, so storm cost was
        // invisible downstream. Each core now reports its flush size.
        use hpage_faults::{FaultKind, FaultPlan, FaultWindow};
        let w0 = random_workload(8, 200_000, 21);
        let w1 = random_workload(8, 200_000, 22);
        let plan = FaultPlan::new(
            "storm-only",
            vec![FaultWindow {
                kind: FaultKind::ShootdownSpike,
                at: 2,
                duration: 1,
            }],
        )
        .expect("valid plan");
        let mut rec = MemoryRecorder::new();
        tiny_sim(PolicyChoice::pcc_default())
            .with_faults(plan)
            .try_run_recorded(&[ProcessSpec::new(&w0), ProcessSpec::new(&w1)], &mut rec)
            .unwrap();
        let storms: Vec<(u32, u64)> = rec
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                hpage_obs::Event::ShootdownStorm {
                    core,
                    entries_flushed,
                } => Some((core.0, *entries_flushed)),
                _ => None,
            })
            .collect();
        assert_eq!(
            storms.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
            vec![0, 1],
            "one storm event per core, in core order"
        );
        assert!(
            storms.iter().any(|&(_, n)| n > 0),
            "a busy TLB flushes a nonzero number of translations: {storms:?}"
        );
    }

    #[test]
    fn nested_walks_cost_more_than_native_with_the_same_guest_caches() {
        // The 2D tax: same workload, same seed, same guest structure-
        // cache geometry — a nested walk can only add host references
        // on top of what the native walk pays, so walk *counts* match
        // (the host dimension is pure cost-side) while the mean cost
        // strictly rises, bounded by the 24-reference cold worst case.
        let w = random_workload(8, 300_000, 7);
        let nested_cfg = hpage_types::NestedConfig::typical();
        let mut native_cfg = hpage_types::SystemConfig::tiny();
        native_cfg.pwc = Some(nested_cfg.guest_pwc);
        let native =
            Simulation::new(native_cfg, PolicyChoice::pcc_default()).run(&[ProcessSpec::new(&w)]);
        let nested = tiny_sim(PolicyChoice::pcc_default())
            .with_nested(nested_cfg)
            .run(&[ProcessSpec::new(&w)]);
        assert_eq!(nested.aggregate.walks, native.aggregate.walks);
        assert!(nested.aggregate.walk_levels > native.aggregate.walk_levels);
        let mean = nested.aggregate.walk_levels as f64 / nested.aggregate.walks as f64;
        assert!(
            (1.0..=24.0).contains(&mean),
            "2D mean references out of range: {mean}"
        );
        assert!(nested.policy.ends_with("+nested-both"), "{}", nested.policy);
        assert!(!native.policy.contains("nested"), "{}", native.policy);
    }

    #[test]
    fn nested_placement_drives_the_host_dimension() {
        use hpage_types::{NestedConfig, PccPlacement};
        let w = random_workload(8, 400_000, 9);
        let run = |placement: PccPlacement| {
            tiny_sim(PolicyChoice::pcc_default())
                .with_nested(NestedConfig::typical().with_placement(placement))
                .with_ledger()
                .with_audit()
                .run(&[ProcessSpec::new(&w)])
        };
        let both = run(PccPlacement::Both);
        let host = run(PccPlacement::Host);
        let guest = run(PccPlacement::Guest);
        let none = run(PccPlacement::None);
        for (r, host_on) in [
            (&both, true),
            (&host, true),
            (&guest, false),
            (&none, false),
        ] {
            assert_eq!(
                r.aggregate.host_promotions > 0,
                host_on,
                "{}: host promotions {}",
                r.policy,
                r.aggregate.host_promotions
            );
            assert!(
                r.audit_violations.is_empty(),
                "{}: {:?}",
                r.policy,
                r.audit_violations
            );
            let hl = r.host_ledger.as_ref().expect("ledger requested");
            assert_eq!(hl.len() as u64, r.aggregate.host_promotions, "{}", r.policy);
        }
        // A host PCC only helps if the guest dimension leaves host
        // walks to save; with it on, host shootdowns fire too.
        assert!(both.aggregate.host_shootdowns > 0);
        assert_eq!(guest.aggregate.host_shootdowns, 0);
        // Guest promotions follow the guest policy regardless of the
        // host side.
        assert!(both.aggregate.promotions > 0);
        assert!(host.aggregate.promotions > 0);
    }

    #[test]
    fn nested_sharded_runs_are_byte_identical_to_sequential() {
        // The determinism contract extends to nested mode: each VM's
        // host state travels with the shard that owns its process, and
        // the host interval phase runs single-threaded in pid order, so
        // the report, event stream, and both ledgers must not depend on
        // `--sim-threads` even under a chaos plan.
        let w0 = random_workload(8, 150_000, 31);
        let w1 = seq_workload(4, 120_000);
        let w2 = random_workload(6, 180_000, 33);
        let runs: Vec<(SimReport, String)> = [1usize, 2, 3, 8]
            .iter()
            .map(|&threads| {
                let mut buf = Vec::new();
                let mut sink = JsonlSink::new(&mut buf);
                let report = tiny_sim(PolicyChoice::pcc_default())
                    .with_nested(hpage_types::NestedConfig::typical())
                    .with_faults(chaos_plan())
                    .with_ledger()
                    .with_audit()
                    .with_sim_threads(threads)
                    .try_run_recorded(
                        &[
                            ProcessSpec::new(&w0),
                            ProcessSpec::new(&w1),
                            ProcessSpec::new(&w2),
                        ],
                        &mut sink,
                    )
                    .unwrap();
                sink.finish().expect("stream to memory");
                (report, String::from_utf8(buf).unwrap())
            })
            .collect();
        for (report, jsonl) in &runs[1..] {
            assert_eq!(report, &runs[0].0, "nested report differs");
            assert_eq!(jsonl, &runs[0].1, "nested event stream differs");
            assert!(report.audit_violations.is_empty());
        }
        assert!(runs[0].0.aggregate.host_promotions > 0);
        assert!(runs[0].1.contains("host_promote"));
    }

    #[test]
    fn nested_recording_does_not_perturb_the_simulation() {
        // The host PCC feed runs inline on both the recorded and the
        // recorder-less paths (it emits no events), so attaching a
        // recorder must not change a nested run's outcome.
        let w = random_workload(8, 250_000, 17);
        let silent = tiny_sim(PolicyChoice::pcc_default())
            .with_nested(hpage_types::NestedConfig::typical())
            .run(&[ProcessSpec::new(&w)]);
        let mut rec = MemoryRecorder::new();
        let recorded = tiny_sim(PolicyChoice::pcc_default())
            .with_nested(hpage_types::NestedConfig::typical())
            .try_run_recorded(&[ProcessSpec::new(&w)], &mut rec)
            .unwrap();
        assert_eq!(silent, recorded);
        // Recorded nested walks carry the nominal 2D level count (the
        // guest chain length interleaved with host walks) alongside the
        // effective (cache-filtered) references.
        let mut saw_nested_walk = false;
        for &(_, e) in rec.events() {
            if let hpage_obs::Event::Walk {
                levels,
                effective_levels,
                ..
            } = e
            {
                assert!(
                    [14, 19, 24].contains(&levels),
                    "nominal 2D levels: {levels}"
                );
                assert!(effective_levels >= 1);
                saw_nested_walk = true;
            }
        }
        assert!(saw_nested_walk);
    }
}
