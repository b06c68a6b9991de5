//! Huge-page promotion policies: Linux THP (synchronous + khugepaged),
//! HawkEye, and the paper's PCC-driven engine (§3.3, Fig. 4).
//!
//! Every policy implements [`HugePagePolicy`]: the simulator calls
//! [`run_interval`](HugePagePolicy::run_interval) once per promotion
//! interval with the whole OS view ([`OsState`]) and, where applicable,
//! the per-core PCC bank. Policies *select and execute* promotions and
//! report what changed so the simulator can apply TLB shootdowns.

use crate::addrspace::{AddressSpace, PromotionOutcome};
use crate::physmem::PhysicalMemory;
use hpage_pcc::{CoreCandidate, PccBank};
use hpage_types::{
    ConfigError, CoreId, FxHashMap, HpageError, PageSize, ProcessId, PromotionPolicyKind, Vpn,
    BASE_PAGES_PER_2M,
};

/// Shared OS state: physical memory, every process's address space, and
/// the core-to-process placement.
#[derive(Debug)]
pub struct OsState {
    /// Physical memory (system-wide resource).
    pub phys: PhysicalMemory,
    /// One address space per process.
    pub spaces: Vec<AddressSpace>,
    /// `core_process[core] = index into spaces` — which process the core
    /// runs. Multiple cores may map to one process (multithreading).
    pub core_process: Vec<usize>,
}

impl OsState {
    /// Creates OS state for `processes` single address spaces with
    /// `core_process` placement.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::Config`] if `core_process` references a
    /// nonexistent process.
    pub fn new(
        phys: PhysicalMemory,
        processes: u32,
        core_process: Vec<usize>,
    ) -> Result<Self, HpageError> {
        if let Some(&bad) = core_process.iter().find(|&&p| p >= processes as usize) {
            return Err(HpageError::Config(ConfigError::new(format!(
                "core placement references unknown process {bad} (have {processes})"
            ))));
        }
        Ok(OsState {
            phys,
            spaces: (0..processes)
                .map(|i| AddressSpace::new(ProcessId(i)))
                .collect(),
            core_process,
        })
    }

    /// The process index a core runs.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvariantViolation`] if `core` is not
    /// placed.
    pub fn process_of(&self, core: CoreId) -> Result<usize, HpageError> {
        self.core_process
            .get(core.0 as usize)
            .copied()
            .ok_or_else(|| HpageError::InvariantViolation {
                what: format!("core {} has no process placement", core.0),
            })
    }

    /// Total memory bloat across every address space (resident bytes the
    /// application never touched) — the pressure detector's rising-bloat
    /// signal.
    pub fn total_bloat_bytes(&self) -> u64 {
        self.spaces.iter().map(|s| s.bloat_bytes()).sum()
    }
}

/// A cap on how much of the footprint may be promoted — the knob behind
/// the paper's utility curves (huge pages limited to N% of the footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionBudget {
    /// Remaining 2 MiB regions that may still be promoted; `None` is
    /// unlimited.
    pub remaining_regions: Option<u64>,
}

impl PromotionBudget {
    /// Unlimited budget.
    pub const UNLIMITED: PromotionBudget = PromotionBudget {
        remaining_regions: None,
    };

    /// A budget of exactly `regions` promotions.
    pub fn regions(regions: u64) -> Self {
        PromotionBudget {
            remaining_regions: Some(regions),
        }
    }

    /// Budget covering `percent`% of a footprint of `footprint_bytes`,
    /// rounded up so any nonzero percentage allows at least one region
    /// (the paper's 1% of a 10 GB footprint is ~51 regions; at simulated
    /// scales 1% can be fractional). The product saturates, so an absurd
    /// percentage means "every region" instead of a wrapped budget.
    pub fn percent_of_footprint(percent: u64, footprint_bytes: u64) -> Self {
        let total_regions = footprint_bytes.div_ceil(PageSize::Huge2M.bytes());
        PromotionBudget::regions(total_regions.saturating_mul(percent).div_ceil(100))
    }

    /// Whether at least one promotion is still allowed.
    pub fn available(&self) -> bool {
        self.remaining_regions.map(|r| r > 0).unwrap_or(true)
    }

    fn consume(&mut self) {
        if let Some(r) = &mut self.remaining_regions {
            *r -= 1;
        }
    }
}

/// One successful promotion, with the provenance the promotion ledger
/// needs: who, what, and the policy's predicted benefit at decision
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionRecord {
    /// The owning process.
    pub process: ProcessId,
    /// What the promotion did (region, pages migrated/collapsed).
    pub outcome: PromotionOutcome,
    /// The policy's predicted per-interval walk savings: the PCC
    /// frequency counter for PCC-driven policies, 0 for policies that
    /// rank by something other than walks (THP scan order, HawkEye
    /// coverage, replay).
    pub predicted_walks: u64,
}

/// What a policy changed during one interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalReport {
    /// Successful promotions.
    pub promotions: Vec<PromotionRecord>,
    /// Demotions performed (to free huge frames under pressure).
    pub demotions: Vec<(ProcessId, Vpn)>,
    /// Regions whose accessed bits were cleared for working-set sampling.
    /// Like Linux's `ptep_clear_flush_young`, clearing must flush the
    /// TLB entry too, or a TLB-resident hot translation would never
    /// re-set the bit and hot data would be misclassified as cold.
    pub sampling_invalidations: Vec<(ProcessId, Vpn)>,
    /// Promotion attempts that failed for lack of a huge frame.
    pub failures: u64,
    /// Whether the interval stopped promoting because the promotion
    /// budget ran out (distinct from `failures`, which count allocation
    /// failures).
    pub budget_exhausted: bool,
    /// Candidates skipped under exponential backoff (degradation mode):
    /// `(process, region, retry_at, consecutive_failures)`.
    pub deferred: Vec<(ProcessId, Vpn, u64, u32)>,
    /// The policy's pressure detector switched on this interval.
    pub pressure_entered: bool,
    /// The policy's pressure detector switched off this interval.
    pub pressure_exited: bool,
    /// Bytes of bloat reclaimed this interval by demote-and-reclaim:
    /// `(process, bytes)` per reclaiming demotion.
    pub bloat_recovered: Vec<(ProcessId, u64)>,
}

impl IntervalReport {
    /// Regions needing a TLB shootdown, in event order (promotions,
    /// demotions, then A-bit sampling flushes).
    pub fn shootdown_regions(&self) -> Vec<(ProcessId, Vpn)> {
        self.promotions
            .iter()
            .map(|r| (r.process, r.outcome.region))
            .chain(self.demotions.iter().copied())
            .chain(self.sampling_invalidations.iter().copied())
            .collect()
    }
}

// Graceful degradation under memory pressure and injected faults
// (`PccPolicy::with_degradation`) has two mechanisms:
//
// * Per-region exponential backoff: a region whose promotion failed is
//   not retried every interval; the retry is deferred by
//   `BACKOFF_BASE_ACCESSES * 2^(failures-1)` accesses, with the exponent
//   capped at `MAX_BACKOFF_EXPONENT`.
// * Pressure detection: when cleanly promotable blocks drop to
//   `PRESSURE_ENTER_FREE_BLOCKS` or fewer while bloat is not falling,
//   the policy divides its per-interval promotion count by
//   `THROTTLE_DIVISOR` and demotes up to `DEMOTIONS_PER_INTERVAL` cold
//   huge regions (HawkEye-style), reclaiming their untouched tail pages.
//   Pressure exits with hysteresis once free blocks recover to
//   `PRESSURE_EXIT_FREE_BLOCKS`.

/// Backoff unit, in accesses (the first retry is deferred this far).
const BACKOFF_BASE_ACCESSES: u64 = 50_000;
/// Cap on the backoff doubling exponent.
const MAX_BACKOFF_EXPONENT: u32 = 6;
/// Enter pressure when `free_huge_capable_blocks` is at most this.
const PRESSURE_ENTER_FREE_BLOCKS: u64 = 2;
/// Exit pressure when `free_huge_capable_blocks` is at least this
/// (hysteresis: above the enter threshold).
const PRESSURE_EXIT_FREE_BLOCKS: u64 = 4;
/// Divides `regions_to_promote` while under pressure.
const THROTTLE_DIVISOR: u32 = 4;
/// Cold huge regions demoted per interval while under pressure.
const DEMOTIONS_PER_INTERVAL: u32 = 2;

/// A huge-page management policy.
pub trait HugePagePolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Whether page faults should try to allocate a huge page
    /// synchronously (Linux THP's fault path).
    fn fault_prefers_huge(&self) -> bool {
        false
    }

    /// Runs one promotion interval. `pccs` is `Some` only for
    /// PCC-assisted policies; `now` is the simulation timestamp (in
    /// accesses).
    fn run_interval(
        &mut self,
        os: &mut OsState,
        pccs: Option<&mut PccBank>,
        now: u64,
        budget: &mut PromotionBudget,
    ) -> IntervalReport;
}

/// Shared promotion executor: allocate (with compaction), collapse,
/// invalidate PCC entries. Returns `Ok` outcome, or the error.
fn execute_promotion(
    os: &mut OsState,
    pccs: &mut Option<&mut PccBank>,
    process: usize,
    region: Vpn,
    now: u64,
) -> Result<PromotionOutcome, HpageError> {
    let space = &mut os.spaces[process];
    let outcome = space.promote(region, true, now, &mut os.phys)?;
    // The promotion's TLB shootdown invalidates the region in every PCC
    // (Fig. 4 step C).
    if let Some(bank) = pccs.as_deref_mut() {
        bank.invalidate_all(region);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Baseline policies
// ---------------------------------------------------------------------

/// 4 KiB pages only: the paper's baseline. Never promotes.
#[derive(Debug, Clone, Default)]
pub struct BasePagesPolicy;

impl HugePagePolicy for BasePagesPolicy {
    fn name(&self) -> &'static str {
        "base-4k"
    }

    fn run_interval(
        &mut self,
        _os: &mut OsState,
        _pccs: Option<&mut PccBank>,
        _now: u64,
        _budget: &mut PromotionBudget,
    ) -> IntervalReport {
        IntervalReport::default()
    }
}

/// All data backed by huge pages at fault time (the paper's "Max. Perf.
/// with THPs" ideal — meaningful on unfragmented memory).
#[derive(Debug, Clone, Default)]
pub struct IdealHugePolicy;

impl HugePagePolicy for IdealHugePolicy {
    fn name(&self) -> &'static str {
        "ideal-2m"
    }

    fn fault_prefers_huge(&self) -> bool {
        true
    }

    fn run_interval(
        &mut self,
        _os: &mut OsState,
        _pccs: Option<&mut PccBank>,
        _now: u64,
        _budget: &mut PromotionBudget,
    ) -> IntervalReport {
        IntervalReport::default()
    }
}

// ---------------------------------------------------------------------
// Linux THP (greedy synchronous + khugepaged)
// ---------------------------------------------------------------------

/// Linux's default THP management (§2.1): greedy huge allocation at page
/// fault time, plus the `khugepaged` daemon asynchronously collapsing
/// base-mapped regions, scanning up to `pages_per_scan` base pages per
/// interval in address order. khugepaged runs at Linux's default
/// `max_ptes_none = 511`: one mapped page suffices for a collapse (the
/// paper's "greedy" behaviour).
#[derive(Debug, Clone)]
pub struct LinuxThpPolicy {
    pages_per_scan: u64,
    /// Per-process scan rotor (region index to resume from).
    rotors: FxHashMap<usize, u64>,
}

impl LinuxThpPolicy {
    /// Default khugepaged configuration (4096 pages per scan, as the
    /// paper states — 8 huge-page regions).
    pub fn new() -> Self {
        LinuxThpPolicy {
            pages_per_scan: 4096,
            rotors: FxHashMap::default(),
        }
    }

    /// Overrides the khugepaged scan budget.
    #[must_use]
    pub fn with_pages_per_scan(mut self, pages: u64) -> Self {
        self.pages_per_scan = pages;
        self
    }
}

impl Default for LinuxThpPolicy {
    fn default() -> Self {
        LinuxThpPolicy::new()
    }
}

impl HugePagePolicy for LinuxThpPolicy {
    fn name(&self) -> &'static str {
        "linux-thp"
    }

    fn fault_prefers_huge(&self) -> bool {
        true
    }

    fn run_interval(
        &mut self,
        os: &mut OsState,
        mut pccs: Option<&mut PccBank>,
        now: u64,
        budget: &mut PromotionBudget,
    ) -> IntervalReport {
        let mut report = IntervalReport::default();
        let region_scan_budget = (self.pages_per_scan / BASE_PAGES_PER_2M).max(1);
        let scan_cap = usize::try_from(region_scan_budget).unwrap_or(usize::MAX);
        for p in 0..os.spaces.len() {
            let regions = os.spaces[p].page_table().mapped_2m_regions();
            if regions.is_empty() {
                continue;
            }
            let rotor = self.rotors.entry(p).or_insert(0);
            let start = regions
                .iter()
                .position(|r| r.index() >= *rotor)
                .unwrap_or(0);
            for k in 0..regions.len().min(scan_cap) {
                let region = regions[(start + k) % regions.len()];
                *rotor = region.index() + 1;
                if os.spaces[p].page_table().is_huge_mapped(region)
                    || os.spaces[p].page_table().mapped_base_pages_in(region) == 0
                {
                    continue;
                }
                if !budget.available() {
                    report.budget_exhausted = true;
                    return report;
                }
                match execute_promotion(os, &mut pccs, p, region, now) {
                    Ok(out) => {
                        budget.consume();
                        report.promotions.push(PromotionRecord {
                            process: ProcessId(p as u32),
                            outcome: out,
                            predicted_walks: 0,
                        });
                    }
                    Err(HpageError::OutOfMemory { .. } | HpageError::Fault { .. }) => {
                        report.failures += 1;
                        break; // no huge frames; stop scanning this space
                    }
                    Err(_) => {}
                }
            }
        }
        report
    }
}

// ---------------------------------------------------------------------
// HawkEye (ASPLOS'19) — the software state of the art the paper compares
// against
// ---------------------------------------------------------------------

/// HawkEye's access-coverage promotion (§2.2): regions are bucketed by
/// how many of their 512 base pages were accessed during the last
/// measurement interval (bucket 9 = 450–512 covered, bucket 0 = 0–49);
/// promotion drains bucket 9 first. Scanning is budgeted at
/// `pages_per_scan` base pages per interval, which is what starves it
/// relative to the PCC.
#[derive(Debug, Clone)]
pub struct HawkEyePolicy {
    pages_per_scan: u64,
    promotions_per_interval: u64,
    /// buckets[b] holds (process, region) with coverage bucket b.
    buckets: Vec<Vec<(usize, Vpn)>>,
    rotors: FxHashMap<usize, u64>,
}

impl HawkEyePolicy {
    /// Paper-faithful configuration: 4096 pages scanned and at most 8
    /// promotions per interval (the 8 regions one scan covers).
    pub fn new() -> Self {
        HawkEyePolicy {
            pages_per_scan: 4096,
            promotions_per_interval: 8,
            buckets: vec![Vec::new(); 10],
            rotors: FxHashMap::default(),
        }
    }

    /// Overrides the scan budget (pages per interval). HawkEye's
    /// promotion rate is scan-limited (it can only promote what it has
    /// scanned), so the per-interval promotion cap follows the budget.
    #[must_use]
    pub fn with_pages_per_scan(mut self, pages: u64) -> Self {
        self.pages_per_scan = pages;
        self.promotions_per_interval = (pages / BASE_PAGES_PER_2M).max(1);
        self
    }

    /// Coverage bucket for an access-coverage count (0..=512).
    pub fn bucket_of(coverage: u64) -> usize {
        ((coverage / 50) as usize).min(9)
    }

    fn remove_region(&mut self, process: usize, region: Vpn) {
        for b in &mut self.buckets {
            b.retain(|&(p, r)| !(p == process && r == region));
        }
    }
}

impl Default for HawkEyePolicy {
    fn default() -> Self {
        HawkEyePolicy::new()
    }
}

impl HugePagePolicy for HawkEyePolicy {
    fn name(&self) -> &'static str {
        "hawkeye"
    }

    fn run_interval(
        &mut self,
        os: &mut OsState,
        mut pccs: Option<&mut PccBank>,
        now: u64,
        budget: &mut PromotionBudget,
    ) -> IntervalReport {
        let mut report = IntervalReport::default();
        // Phase 1: scan access coverage for the next `pages_per_scan`
        // worth of regions per process, clearing A-bits as we go (the
        // 1-second tracking interval).
        let region_scan_budget = (self.pages_per_scan / BASE_PAGES_PER_2M).max(1);
        let scan_cap = usize::try_from(region_scan_budget).unwrap_or(usize::MAX);
        for p in 0..os.spaces.len() {
            let regions = os.spaces[p].page_table().mapped_2m_regions();
            if regions.is_empty() {
                continue;
            }
            let rotor = *self.rotors.get(&p).unwrap_or(&0);
            let start = regions.iter().position(|r| r.index() >= rotor).unwrap_or(0);
            for k in 0..regions.len().min(scan_cap) {
                let region = regions[(start + k) % regions.len()];
                self.rotors.insert(p, region.index() + 1);
                if os.spaces[p].page_table().is_huge_mapped(region) {
                    continue;
                }
                let coverage = os.spaces[p].page_table().accessed_base_pages_in(region);
                os.spaces[p].page_table_mut().clear_accessed_in(region);
                self.remove_region(p, region);
                if coverage > 0 {
                    self.buckets[Self::bucket_of(coverage)].push((p, region));
                }
            }
        }
        // Phase 2: promote from bucket 9 downward.
        let mut promoted = 0u64;
        'outer: for b in (0..10).rev() {
            while let Some(&(p, region)) = self.buckets[b].first() {
                if promoted >= self.promotions_per_interval || !budget.available() {
                    report.budget_exhausted = !budget.available();
                    break 'outer;
                }
                self.buckets[b].remove(0);
                if os.spaces[p].page_table().is_huge_mapped(region)
                    || os.spaces[p].page_table().mapped_base_pages_in(region) == 0
                {
                    continue;
                }
                match execute_promotion(os, &mut pccs, p, region, now) {
                    Ok(out) => {
                        promoted += 1;
                        budget.consume();
                        report.promotions.push(PromotionRecord {
                            process: ProcessId(p as u32),
                            outcome: out,
                            predicted_walks: 0,
                        });
                    }
                    Err(HpageError::OutOfMemory { .. } | HpageError::Fault { .. }) => {
                        report.failures += 1;
                        // Put it back for a later interval and give up.
                        self.buckets[b].insert(0, (p, region));
                        break 'outer;
                    }
                    Err(_) => {}
                }
            }
        }
        report
    }
}

// ---------------------------------------------------------------------
// The PCC-driven policy (the paper's contribution, §3.3)
// ---------------------------------------------------------------------

/// The paper's OS integration: read the per-core PCC dumps, select up to
/// `regions_to_promote` candidates (highest-frequency or round-robin
/// across PCCs, with optional process bias), promote them, and let the
/// shootdowns invalidate the promoted entries from the PCCs.
#[derive(Debug, Clone)]
pub struct PccPolicy {
    selection: PromotionPolicyKind,
    regions_to_promote: u32,
    bias: Vec<ProcessId>,
    demotion: bool,
    /// Consecutive intervals each promoted region has gone unaccessed,
    /// keyed by (process, region index). A region must stay cold for
    /// [`Self::COLD_STREAK`] intervals before it may be demoted, which
    /// prevents promote/demote thrash.
    cold_streaks: FxHashMap<(usize, u64), u32>,
    /// Graceful degradation (backoff and the pressure detector); off
    /// keeps the paper-faithful retry-every-interval behaviour.
    degradation: bool,
    /// Exponential-backoff state per failed region:
    /// `(process, region index) -> (consecutive failures, retry_at)`.
    backoff: FxHashMap<(usize, u64), (u32, u64)>,
    /// Whether the pressure detector is currently on.
    in_pressure: bool,
    /// Bloat observed at the last interval (for the rising-bloat test).
    last_bloat: u64,
}

impl PccPolicy {
    /// Creates the policy with the paper's defaults (highest PCC
    /// frequency, 128 promotions per interval, no bias, no demotion).
    pub fn new(selection: PromotionPolicyKind, regions_to_promote: u32) -> Self {
        PccPolicy {
            selection,
            regions_to_promote,
            bias: Vec::new(),
            demotion: false,
            cold_streaks: FxHashMap::default(),
            degradation: false,
            backoff: FxHashMap::default(),
            in_pressure: false,
            last_bloat: 0,
        }
    }

    /// Intervals a promoted region must remain unaccessed before it
    /// becomes a demotion candidate.
    pub const COLD_STREAK: u32 = 2;

    /// Biases promotion toward `pids` (the `promotion_bias_process`
    /// kernel parameter, §3.3.2): their candidates are served first.
    #[must_use]
    pub fn with_bias(mut self, pids: Vec<ProcessId>) -> Self {
        self.bias = pids;
        self
    }

    /// Enables PCC-guided demotion (§3.3.3): when a promotion fails for
    /// lack of huge frames, a cold promoted region (huge mapping whose
    /// accessed bit stayed clear over the last interval) is demoted to
    /// free one.
    #[must_use]
    pub fn with_demotion(mut self, enabled: bool) -> Self {
        self.demotion = enabled;
        self
    }

    /// Enables graceful degradation: per-region exponential backoff
    /// after failed promotions, plus the pressure detector that throttles
    /// promotion and demotes cold regions. Its tuning is fixed by the
    /// degradation constants of this module.
    #[must_use]
    pub fn with_degradation(mut self, enabled: bool) -> Self {
        self.degradation = enabled;
        self
    }

    /// The configured selection policy.
    pub fn selection(&self) -> PromotionPolicyKind {
        self.selection
    }

    fn ordered_candidates(&self, bank: &PccBank) -> Vec<CoreCandidate> {
        match self.selection {
            PromotionPolicyKind::HighestFrequency => bank.dump_by_frequency(),
            PromotionPolicyKind::RoundRobin => bank.dump_round_robin(),
        }
    }

    /// Finds and demotes one sufficiently-cold promoted region (cold for
    /// at least [`Self::COLD_STREAK`] consecutive intervals), returning
    /// whether one was demoted. With `reclaim`, the demotion also unmaps
    /// the region's never-faulted tail pages (bloat recovery).
    fn demote_one_cold(
        &mut self,
        os: &mut OsState,
        report: &mut IntervalReport,
        reclaim: bool,
    ) -> bool {
        // Oldest promotions first.
        let mut candidates: Vec<(usize, Vpn, u64)> = Vec::new();
        for (p, space) in os.spaces.iter().enumerate() {
            for (region, at) in space.promoted_regions() {
                let streak = self
                    .cold_streaks
                    .get(&(p, region.index()))
                    .copied()
                    .unwrap_or(0);
                if streak >= Self::COLD_STREAK
                    && space.page_table().accessed_base_pages_in(region) == 0
                {
                    candidates.push((p, region, at));
                }
            }
        }
        candidates.sort_by_key(|&(_, _, at)| at);
        if let Some(&(p, region, _)) = candidates.first() {
            let demoted = if reclaim {
                match os.spaces[p].demote_and_reclaim(region, &mut os.phys) {
                    Ok(bytes) => {
                        if bytes > 0 {
                            report.bloat_recovered.push((ProcessId(p as u32), bytes));
                        }
                        true
                    }
                    Err(_) => false,
                }
            } else {
                os.spaces[p].demote(region, &mut os.phys).is_ok()
            };
            if demoted {
                self.cold_streaks.remove(&(p, region.index()));
                report.demotions.push((ProcessId(p as u32), region));
                return true;
            }
        }
        false
    }

    /// Runs the pressure detector and, while under pressure, the
    /// HawkEye-style cold-region demotions. Returns the throttled
    /// per-interval promotion cap.
    fn apply_pressure(&mut self, os: &mut OsState, report: &mut IntervalReport) -> u32 {
        if !self.degradation {
            return self.regions_to_promote;
        }
        let free = os.phys.free_huge_capable_blocks();
        let bloat = os.total_bloat_bytes();
        if !self.in_pressure && free <= PRESSURE_ENTER_FREE_BLOCKS && bloat >= self.last_bloat {
            self.in_pressure = true;
            report.pressure_entered = true;
        } else if self.in_pressure && free >= PRESSURE_EXIT_FREE_BLOCKS {
            self.in_pressure = false;
            report.pressure_exited = true;
        }
        self.last_bloat = bloat;
        if !self.in_pressure {
            return self.regions_to_promote;
        }
        for _ in 0..DEMOTIONS_PER_INTERVAL {
            if !self.demote_one_cold(os, report, true) {
                break;
            }
        }
        (self.regions_to_promote / THROTTLE_DIVISOR).max(1)
    }
}

impl HugePagePolicy for PccPolicy {
    fn name(&self) -> &'static str {
        "pcc"
    }

    fn run_interval(
        &mut self,
        os: &mut OsState,
        mut pccs: Option<&mut PccBank>,
        now: u64,
        budget: &mut PromotionBudget,
    ) -> IntervalReport {
        let mut report = IntervalReport::default();
        let Some(bank) = pccs.as_deref_mut() else {
            return report; // a PCC policy without PCC hardware is inert
        };
        let max_promotions = self.apply_pressure(os, &mut report);
        let mut candidates = self.ordered_candidates(bank);
        if !self.bias.is_empty() {
            // Stable partition: biased processes' candidates first.
            let biased: Vec<u32> = self.bias.iter().map(|p| p.0).collect();
            candidates.sort_by_key(|c| {
                let pid = os.process_of(c.core).map(|p| p as u32);
                (!pid.map(|p| biased.contains(&p)).unwrap_or(false), 0)
            });
        }
        let mut promoted = 0u32;
        for cand in candidates {
            if promoted >= max_promotions || !budget.available() {
                report.budget_exhausted = !budget.available();
                break;
            }
            // A candidate from an unplaced core is unattributable: skip.
            let Ok(p) = os.process_of(cand.core) else {
                continue;
            };
            let region = cand.candidate.region;
            if os.spaces[p].page_table().is_huge_mapped(region)
                || os.spaces[p].page_table().mapped_base_pages_in(region) == 0
            {
                // Stale candidate (already promoted via another core's
                // PCC, or unmapped): drop it from the PCCs.
                if let Some(bank) = pccs.as_deref_mut() {
                    bank.invalidate_all(region);
                }
                continue;
            }
            // Degradation: a region in backoff is deferred, not retried.
            // Its PCC entry survives, so it stays a candidate for when
            // the backoff expires.
            if let Some(&(fails, retry_at)) = self.backoff.get(&(p, region.index())) {
                if now < retry_at {
                    report
                        .deferred
                        .push((ProcessId(p as u32), region, retry_at, fails));
                    continue;
                }
            }
            let mut result = execute_promotion(os, &mut pccs, p, region, now);
            if matches!(result, Err(HpageError::OutOfMemory { .. })) && self.demotion {
                // §3.3.3: free a huge frame by demoting a cold region.
                if self.demote_one_cold(os, &mut report, self.degradation) {
                    result = execute_promotion(os, &mut pccs, p, region, now);
                }
            }
            match result {
                Ok(out) => {
                    promoted += 1;
                    budget.consume();
                    self.backoff.remove(&(p, region.index()));
                    report.promotions.push(PromotionRecord {
                        process: ProcessId(p as u32),
                        outcome: out,
                        predicted_walks: cand.candidate.frequency,
                    });
                }
                Err(HpageError::OutOfMemory { .. } | HpageError::Fault { .. }) => {
                    report.failures += 1;
                    if self.degradation {
                        let entry = self.backoff.entry((p, region.index())).or_insert((0, now));
                        entry.0 += 1;
                        let exp = (entry.0 - 1).min(MAX_BACKOFF_EXPONENT);
                        entry.1 =
                            now.saturating_add(BACKOFF_BASE_ACCESSES.saturating_mul(1u64 << exp));
                        report
                            .deferred
                            .push((ProcessId(p as u32), region, entry.1, entry.0));
                    }
                    break;
                }
                Err(_) => {}
            }
        }
        // Update cold streaks and refresh A-bit tracking of promoted
        // regions so the next interval can detect coldness.
        if self.demotion || self.degradation {
            for (p, space) in os.spaces.iter_mut().enumerate() {
                let regions: Vec<Vpn> = space
                    .promoted_regions()
                    .into_iter()
                    .map(|(r, _)| r)
                    .collect();
                for r in regions {
                    let key = (p, r.index());
                    if space.page_table().accessed_base_pages_in(r) == 0 {
                        *self.cold_streaks.entry(key).or_insert(0) += 1;
                    } else {
                        self.cold_streaks.insert(key, 0);
                    }
                    space.page_table_mut().clear_accessed_in(r);
                    report.sampling_invalidations.push((ProcessId(p as u32), r));
                }
            }
        }
        report
    }
}

// ---------------------------------------------------------------------
// Schedule replay (the paper's two-step methodology, §4)
// ---------------------------------------------------------------------

/// One promotion event of a recorded schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPromotion {
    /// Simulation time (accesses) at which the offline run promoted.
    pub at_access: u64,
    /// The owning process.
    pub process: ProcessId,
    /// The promoted 2 MiB region.
    pub region: Vpn,
}

/// A promotion-candidate trace recorded by an offline PCC simulation,
/// replayable against a separate run — mirroring the paper's §4
/// methodology, where the offline TLB+PCC simulation writes candidate
/// addresses and times to a trace file and the real system replays it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromotionSchedule {
    events: Vec<ScheduledPromotion>,
}

impl PromotionSchedule {
    /// Creates a schedule from events (sorted by time internally).
    pub fn new(mut events: Vec<ScheduledPromotion>) -> Self {
        events.sort_by_key(|e| e.at_access);
        PromotionSchedule { events }
    }

    /// Appends one event (keeps the list sorted if appended in time
    /// order, which recording naturally does).
    pub fn push(&mut self, event: ScheduledPromotion) {
        self.events.push(event);
    }

    /// The recorded events in time order.
    pub fn events(&self) -> &[ScheduledPromotion] {
        &self.events
    }

    /// Number of recorded promotions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replays a [`PromotionSchedule`]: at each interval, promotes every
/// scheduled region whose timestamp has passed. This is the "second
/// step" of the paper's evaluation — the OS consumes candidate data as
/// if real PCC hardware had produced it.
#[derive(Debug, Clone)]
pub struct ReplayPolicy {
    schedule: PromotionSchedule,
    cursor: usize,
}

impl ReplayPolicy {
    /// Creates a replay policy over `schedule`.
    pub fn new(schedule: PromotionSchedule) -> Self {
        ReplayPolicy {
            schedule,
            cursor: 0,
        }
    }

    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.cursor
    }
}

impl HugePagePolicy for ReplayPolicy {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn run_interval(
        &mut self,
        os: &mut OsState,
        mut pccs: Option<&mut PccBank>,
        now: u64,
        budget: &mut PromotionBudget,
    ) -> IntervalReport {
        let mut report = IntervalReport::default();
        while self.cursor < self.schedule.events().len() {
            let ev = self.schedule.events()[self.cursor];
            if ev.at_access > now {
                break;
            }
            self.cursor += 1;
            if !budget.available() {
                report.budget_exhausted = true;
                continue;
            }
            let p = ev.process.0 as usize;
            if p >= os.spaces.len()
                || os.spaces[p].page_table().is_huge_mapped(ev.region)
                || os.spaces[p].page_table().mapped_base_pages_in(ev.region) == 0
            {
                continue;
            }
            match execute_promotion(os, &mut pccs, p, ev.region, now) {
                Ok(out) => {
                    budget.consume();
                    report.promotions.push(PromotionRecord {
                        process: ev.process,
                        outcome: out,
                        predicted_walks: 0,
                    });
                }
                Err(HpageError::OutOfMemory { .. } | HpageError::Fault { .. }) => {
                    report.failures += 1;
                }
                Err(_) => {}
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_types::PccConfig;

    const MB2: u64 = PageSize::Huge2M.bytes();

    fn region(i: u64) -> Vpn {
        Vpn::new(i, PageSize::Huge2M)
    }

    /// OS with one process on one core and `blocks` 2MB of memory.
    fn os_with(blocks: u64) -> OsState {
        OsState::new(PhysicalMemory::new(blocks * MB2), 1, vec![0]).unwrap()
    }

    fn fault_pages(os: &mut OsState, process: usize, region: Vpn, pages: u64) {
        for page in region.split(PageSize::Base4K).take(pages as usize) {
            os.spaces[process]
                .fault(page.base(), false, &mut os.phys)
                .unwrap();
        }
    }

    fn bank() -> PccBank {
        PccBank::new(1, PccConfig::paper_2m().with_entries(16), PageSize::Huge2M)
    }

    #[test]
    fn base_policy_is_inert() {
        let mut os = os_with(8);
        fault_pages(&mut os, 0, region(10), 4);
        let mut p = BasePagesPolicy;
        let r = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert!(r.promotions.is_empty());
        assert!(!p.fault_prefers_huge());
    }

    #[test]
    fn ideal_policy_prefers_huge_faults() {
        assert!(IdealHugePolicy.fault_prefers_huge());
    }

    #[test]
    fn budget_math() {
        let b = PromotionBudget::percent_of_footprint(50, 10 * MB2);
        assert_eq!(b.remaining_regions, Some(5));
        let mut b = PromotionBudget::regions(1);
        assert!(b.available());
        b.consume();
        assert!(!b.available());
        assert!(PromotionBudget::UNLIMITED.available());
    }

    #[test]
    fn khugepaged_promotes_in_address_order() {
        let mut os = os_with(16);
        for r in [region(5), region(9), region(2)] {
            fault_pages(&mut os, 0, r, 3);
        }
        let mut p = LinuxThpPolicy::new();
        let mut budget = PromotionBudget::UNLIMITED;
        let rep = p.run_interval(&mut os, None, 0, &mut budget);
        // Scan budget is 8 regions: all 3 promoted, ascending order.
        let promoted: Vec<u64> = rep
            .promotions
            .iter()
            .map(|r| r.outcome.region.index())
            .collect();
        assert_eq!(promoted, vec![2, 5, 9]);
        assert!(os.spaces[0].page_table().is_huge_mapped(region(2)));
    }

    #[test]
    fn khugepaged_respects_scan_budget_and_resumes() {
        let mut os = os_with(32);
        for i in 0..6 {
            fault_pages(&mut os, 0, region(i), 2);
        }
        let mut p = LinuxThpPolicy::new().with_pages_per_scan(2 * BASE_PAGES_PER_2M);
        let mut budget = PromotionBudget::UNLIMITED;
        let rep1 = p.run_interval(&mut os, None, 0, &mut budget);
        assert_eq!(rep1.promotions.len(), 2); // regions 0, 1
        let rep2 = p.run_interval(&mut os, None, 0, &mut budget);
        let idx: Vec<u64> = rep2
            .promotions
            .iter()
            .map(|r| r.outcome.region.index())
            .collect();
        assert_eq!(idx, vec![2, 3]); // rotor resumed
    }

    #[test]
    fn khugepaged_stops_on_oom() {
        let mut os = os_with(4);
        os.phys.fragment(100, 1);
        fault_pages(&mut os, 0, region(5), 3);
        let mut p = LinuxThpPolicy::new();
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert!(rep.promotions.is_empty());
        assert_eq!(rep.failures, 1);
    }

    #[test]
    fn hawkeye_buckets() {
        assert_eq!(HawkEyePolicy::bucket_of(0), 0);
        assert_eq!(HawkEyePolicy::bucket_of(49), 0);
        assert_eq!(HawkEyePolicy::bucket_of(50), 1);
        assert_eq!(HawkEyePolicy::bucket_of(449), 8);
        assert_eq!(HawkEyePolicy::bucket_of(450), 9);
        assert_eq!(HawkEyePolicy::bucket_of(512), 9);
    }

    #[test]
    fn hawkeye_promotes_high_coverage_first() {
        let mut os = os_with(16);
        // Region A: 480 pages accessed (bucket 9). Region B: 60 (bucket 1).
        fault_pages(&mut os, 0, region(3), 480);
        fault_pages(&mut os, 0, region(7), 60);
        for page in region(3).split(PageSize::Base4K).take(480) {
            os.spaces[0].page_table_mut().walk(page.base()).unwrap();
        }
        for page in region(7).split(PageSize::Base4K).take(60) {
            os.spaces[0].page_table_mut().walk(page.base()).unwrap();
        }
        let mut p = HawkEyePolicy::new();
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions[0].outcome.region, region(3));
        assert_eq!(rep.promotions[1].outcome.region, region(7));
    }

    #[test]
    fn hawkeye_promotion_rate_is_scan_limited() {
        let mut os = os_with(64);
        for i in 0..20 {
            fault_pages(&mut os, 0, region(i), 500);
            for page in region(i).split(PageSize::Base4K).take(500) {
                os.spaces[0].page_table_mut().walk(page.base()).unwrap();
            }
        }
        let mut p = HawkEyePolicy::new(); // 4096 pages = 8 regions/interval
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions.len(), 8);
    }

    #[test]
    fn hawkeye_ignores_untouched_regions() {
        let mut os = os_with(16);
        fault_pages(&mut os, 0, region(3), 10); // mapped but never walked
        let mut p = HawkEyePolicy::new();
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert!(rep.promotions.is_empty());
    }

    #[test]
    fn pcc_policy_promotes_hottest_candidates() {
        let mut os = os_with(16);
        fault_pages(&mut os, 0, region(3), 4);
        fault_pages(&mut os, 0, region(8), 4);
        let mut bank = bank();
        for _ in 0..10 {
            bank.record_walk(CoreId(0), region(8), true);
        }
        bank.record_walk(CoreId(0), region(3), true);
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 1);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            7,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.promotions.len(), 1);
        assert_eq!(rep.promotions[0].outcome.region, region(8));
        // The prediction travels with the record: region 8 was walked
        // more than region 3, and the PCC counter is what was promised.
        assert!(rep.promotions[0].predicted_walks > 0);
        // Promotion invalidated the candidate from the PCC.
        assert_eq!(bank.pcc(CoreId(0)).frequency_of(region(8)), None);
        assert!(bank.pcc(CoreId(0)).frequency_of(region(3)).is_some());
    }

    #[test]
    fn pcc_policy_ranks_region_shared_across_threads_by_summed_frequency() {
        // Fig. 8 setup in miniature: one multithreaded process on two
        // cores. A shared heap region is walked from both cores (its
        // frequency split 3 + 3 across their PCCs); a thread-local region
        // on core 0 reaches frequency 4. With one promotion per interval,
        // the shared region must win: its aggregate heat (6) exceeds the
        // local region's (4), even though each per-core view alone
        // (3 < 4) would lose. Per-core dump entries used to compete
        // unmerged, promoting the colder local region first.
        let mut os = OsState::new(PhysicalMemory::new(32 * MB2), 1, vec![0, 0]).unwrap();
        fault_pages(&mut os, 0, region(5), 4);
        fault_pages(&mut os, 0, region(9), 4);
        let mut bank = PccBank::new(2, PccConfig::paper_2m().with_entries(16), PageSize::Huge2M);
        for _ in 0..4 {
            bank.record_walk(CoreId(0), region(5), true);
        }
        for _ in 0..4 {
            bank.record_walk(CoreId(1), region(5), true);
        }
        for _ in 0..5 {
            bank.record_walk(CoreId(0), region(9), true);
        }
        assert_eq!(bank.pcc(CoreId(0)).frequency_of(region(5)), Some(3));
        assert_eq!(bank.pcc(CoreId(1)).frequency_of(region(5)), Some(3));
        assert_eq!(bank.pcc(CoreId(0)).frequency_of(region(9)), Some(4));
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 1);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            7,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.promotions.len(), 1);
        assert_eq!(rep.promotions[0].outcome.region, region(5));
    }

    #[test]
    fn pcc_policy_respects_regions_to_promote_and_budget() {
        let mut os = os_with(32);
        let mut bank = bank();
        for i in 0..10 {
            fault_pages(&mut os, 0, region(i), 2);
            bank.record_walk(CoreId(0), region(i), true);
        }
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 4);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.promotions.len(), 4);
        let mut budget = PromotionBudget::regions(2);
        let rep = p.run_interval(&mut os, Some(&mut bank), 0, &mut budget);
        assert_eq!(rep.promotions.len(), 2);
        assert!(!budget.available());
    }

    #[test]
    fn pcc_policy_drops_stale_candidates() {
        let mut os = os_with(16);
        let mut bank = bank();
        // Candidate never mapped: must be skipped and invalidated.
        bank.record_walk(CoreId(0), region(9), true);
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert!(rep.promotions.is_empty());
        assert!(bank.pcc(CoreId(0)).is_empty());
    }

    #[test]
    fn pcc_policy_without_bank_is_inert() {
        let mut os = os_with(8);
        let mut p = PccPolicy::new(PromotionPolicyKind::RoundRobin, 8);
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert!(rep.promotions.is_empty());
    }

    #[test]
    fn pcc_round_robin_interleaves_cores() {
        // Two cores, one process (multithread): each core's top candidate
        // gets promoted alternately.
        let mut os = OsState::new(PhysicalMemory::new(32 * MB2), 1, vec![0, 0]).unwrap();
        let mut bank = PccBank::new(2, PccConfig::paper_2m().with_entries(16), PageSize::Huge2M);
        for i in 0..4 {
            fault_pages(&mut os, 0, region(i), 2);
        }
        for _ in 0..5 {
            bank.record_walk(CoreId(0), region(0), true);
            bank.record_walk(CoreId(0), region(1), true);
            bank.record_walk(CoreId(1), region(2), true);
            bank.record_walk(CoreId(1), region(3), true);
        }
        let mut p = PccPolicy::new(PromotionPolicyKind::RoundRobin, 2);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        let cores_hit: Vec<u64> = rep
            .promotions
            .iter()
            .map(|r| r.outcome.region.index())
            .collect();
        // One candidate from each core's PCC.
        assert!(cores_hit.contains(&0) || cores_hit.contains(&1));
        assert!(cores_hit.contains(&2) || cores_hit.contains(&3));
    }

    #[test]
    fn pcc_bias_prioritizes_process() {
        // Two processes on two cores; process 1 is biased.
        let mut os = OsState::new(PhysicalMemory::new(8 * MB2), 2, vec![0, 1]).unwrap();
        // Memory has only 8 blocks; each process maps one region.
        fault_pages(&mut os, 0, region(100), 2);
        fault_pages(&mut os, 1, region(200), 2);
        let mut bank = PccBank::new(2, PccConfig::paper_2m().with_entries(16), PageSize::Huge2M);
        // Process 0's candidate is hotter.
        for _ in 0..10 {
            bank.record_walk(CoreId(0), region(100), true);
        }
        bank.record_walk(CoreId(1), region(200), true);
        let mut p =
            PccPolicy::new(PromotionPolicyKind::HighestFrequency, 1).with_bias(vec![ProcessId(1)]);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.promotions[0].process, ProcessId(1));
        assert_eq!(rep.promotions[0].outcome.region, region(200));
    }

    #[test]
    fn pcc_demotion_frees_room_under_pressure() {
        // 4 blocks, 2 of them fragmented (huge-incapable). The two clean
        // blocks get consumed — one by promoting a region that then goes
        // cold, one leaked — so a new hot candidate can only be promoted
        // by demoting the cold region: its split block is compacted into
        // the fragmented blocks' ample free space and reused.
        let mut os = os_with(4);
        os.phys.fragment(50, 11);
        let mut bank = bank();
        fault_pages(&mut os, 0, region(0), 1);
        fault_pages(&mut os, 0, region(2), 1);
        os.spaces[0]
            .promote(region(0), true, 0, &mut os.phys)
            .unwrap();
        os.phys.alloc_huge(true).unwrap(); // consume the last clean block
        for _ in 0..5 {
            bank.record_walk(CoreId(0), region(2), true);
        }
        // Without demotion: failure.
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            2,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.failures, 1);
        assert!(rep.promotions.is_empty());
        // With demotion: region 0 must first accumulate COLD_STREAK
        // consecutive cold intervals, then it is demoted and region 2
        // takes its block after compaction.
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8).with_demotion(true);
        let mut demoted = false;
        for t in 0..PccPolicy::COLD_STREAK + 2 {
            for _ in 0..5 {
                bank.record_walk(CoreId(0), region(2), true);
            }
            let rep = p.run_interval(
                &mut os,
                Some(&mut bank),
                3 + u64::from(t),
                &mut PromotionBudget::UNLIMITED.clone(),
            );
            if !rep.demotions.is_empty() {
                assert_eq!(rep.demotions, vec![(ProcessId(0), region(0))]);
                assert_eq!(rep.promotions.len(), 1);
                assert_eq!(rep.promotions[0].outcome.region, region(2));
                assert!(rep.promotions[0].outcome.pages_migrated >= 512);
                demoted = true;
                break;
            }
        }
        assert!(demoted, "cold region was never demoted");
        assert!(os.spaces[0].page_table().is_huge_mapped(region(2)));
        assert!(!os.spaces[0].page_table().is_huge_mapped(region(0)));
    }

    #[test]
    fn interval_report_shootdowns() {
        let mut os = os_with(16);
        fault_pages(&mut os, 0, region(3), 2);
        let mut bank = bank();
        bank.record_walk(CoreId(0), region(3), true);
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.shootdown_regions(), vec![(ProcessId(0), region(3))]);
    }

    #[test]
    fn walks_during_interval_do_not_promote_without_policy() {
        // Sanity: faulting + walking alone never creates huge pages.
        let mut os = os_with(8);
        fault_pages(&mut os, 0, region(3), 8);
        for page in region(3).split(PageSize::Base4K).take(8) {
            os.spaces[0].page_table_mut().walk(page.base()).unwrap();
        }
        assert!(os.spaces[0].huge_regions().is_empty());
    }

    #[test]
    fn replay_promotes_at_scheduled_times() {
        let mut os = os_with(16);
        for i in [3u64, 7] {
            fault_pages(&mut os, 0, region(i), 2);
        }
        let schedule = PromotionSchedule::new(vec![
            ScheduledPromotion {
                at_access: 100,
                process: ProcessId(0),
                region: region(3),
            },
            ScheduledPromotion {
                at_access: 500,
                process: ProcessId(0),
                region: region(7),
            },
        ]);
        let mut p = ReplayPolicy::new(schedule);
        assert_eq!(p.remaining(), 2);
        // At t=200 only the first event fires.
        let rep = p.run_interval(&mut os, None, 200, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions.len(), 1);
        assert_eq!(rep.promotions[0].outcome.region, region(3));
        assert_eq!(p.remaining(), 1);
        // At t=600 the second fires.
        let rep = p.run_interval(&mut os, None, 600, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions.len(), 1);
        assert_eq!(rep.promotions[0].outcome.region, region(7));
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn replay_skips_stale_events() {
        let mut os = os_with(16);
        // Region never mapped: the event is consumed without effect.
        let schedule = PromotionSchedule::new(vec![ScheduledPromotion {
            at_access: 1,
            process: ProcessId(0),
            region: region(9),
        }]);
        let mut p = ReplayPolicy::new(schedule);
        let rep = p.run_interval(&mut os, None, 10, &mut PromotionBudget::UNLIMITED.clone());
        assert!(rep.promotions.is_empty());
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn schedule_sorts_events() {
        let s = PromotionSchedule::new(vec![
            ScheduledPromotion {
                at_access: 500,
                process: ProcessId(0),
                region: region(1),
            },
            ScheduledPromotion {
                at_access: 100,
                process: ProcessId(0),
                region: region(2),
            },
        ]);
        assert_eq!(s.events()[0].at_access, 100);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn os_state_process_mapping() {
        let os = OsState::new(PhysicalMemory::new(4 * MB2), 2, vec![0, 1, 1]).unwrap();
        assert_eq!(os.process_of(CoreId(0)).unwrap(), 0);
        assert_eq!(os.process_of(CoreId(2)).unwrap(), 1);
        assert!(matches!(
            os.process_of(CoreId(9)),
            Err(HpageError::InvariantViolation { .. })
        ));
    }

    #[test]
    fn bad_placement_is_rejected() {
        let err = OsState::new(PhysicalMemory::new(4 * MB2), 1, vec![0, 5]).unwrap_err();
        assert!(err.to_string().contains("unknown process"));
    }

    #[test]
    fn backoff_defers_failing_promotions() {
        // Fully fragmented memory: every promotion attempt fails. With
        // degradation, the failing region is retried on an exponential
        // schedule instead of every interval.
        let mut os = os_with(4);
        os.phys.fragment(100, 1);
        fault_pages(&mut os, 0, region(3), 4);
        let mut bank = bank();
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8).with_degradation(true);
        let base = BACKOFF_BASE_ACCESSES;
        bank.record_walk(CoreId(0), region(3), true);
        // t=0: attempt fails, backoff entry created (retry at one unit).
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.failures, 1);
        assert_eq!(rep.deferred, vec![(ProcessId(0), region(3), base, 1)]);
        // Half a unit: still inside the backoff window — deferred, no
        // attempt.
        bank.record_walk(CoreId(0), region(3), true);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            base / 2,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.failures, 0, "no retry inside the backoff window");
        assert_eq!(rep.deferred, vec![(ProcessId(0), region(3), base, 1)]);
        // One and a half units: backoff expired — retried (fails again,
        // doubled delay).
        let now = base + base / 2;
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            now,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.failures, 1);
        assert_eq!(
            rep.deferred,
            vec![(ProcessId(0), region(3), now + 2 * base, 2)]
        );
    }

    #[test]
    fn backoff_clears_on_success() {
        let mut os = os_with(8);
        fault_pages(&mut os, 0, region(3), 4);
        let mut bank = bank();
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8).with_degradation(true);
        // Make the first attempt fail via an injected OOM window.
        os.phys.set_alloc_gate(crate::AllocGate {
            deny_huge: true,
            deny_compaction: false,
        });
        bank.record_walk(CoreId(0), region(3), true);
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            0,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.failures, 1);
        // Fault lifted; past the retry time the promotion succeeds and
        // the backoff entry is gone.
        os.phys.set_alloc_gate(crate::AllocGate::default());
        let rep = p.run_interval(
            &mut os,
            Some(&mut bank),
            2 * BACKOFF_BASE_ACCESSES,
            &mut PromotionBudget::UNLIMITED.clone(),
        );
        assert_eq!(rep.promotions.len(), 1);
        assert!(rep.deferred.is_empty());
    }

    #[test]
    fn pressure_throttles_and_recovers_bloat() {
        // 4 blocks, one process. Sparsely promote two regions (heavy
        // bloat), exhausting the clean blocks; the pressure detector
        // must switch on, demote the cold regions, and reclaim the
        // untouched tail pages.
        let mut os = os_with(4);
        fault_pages(&mut os, 0, region(0), 2);
        fault_pages(&mut os, 0, region(1), 2);
        os.spaces[0]
            .promote(region(0), true, 0, &mut os.phys)
            .unwrap();
        os.spaces[0]
            .promote(region(1), true, 0, &mut os.phys)
            .unwrap();
        let mut bank = bank();
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8).with_degradation(true);
        assert!(os.phys.free_huge_capable_blocks() <= PRESSURE_ENTER_FREE_BLOCKS);
        let mut entered = false;
        let mut recovered = 0u64;
        for t in 0..6u64 {
            let rep = p.run_interval(
                &mut os,
                Some(&mut bank),
                t * 10,
                &mut PromotionBudget::UNLIMITED.clone(),
            );
            entered |= rep.pressure_entered;
            recovered += rep.bloat_recovered.iter().map(|(_, b)| b).sum::<u64>();
            if !rep.demotions.is_empty() {
                break;
            }
        }
        assert!(entered, "pressure detector never fired");
        assert!(recovered > 0, "no bloat reclaimed");
        // Each demoted region keeps its 2 faulted pages and frees the
        // other 510.
        assert_eq!(recovered % (510 * 4096), 0);
        assert!(!os.spaces[0].page_table().is_huge_mapped(region(0)));
        assert_eq!(os.spaces[0].page_table().mapped_base_pages_in(region(0)), 2);
    }

    #[test]
    fn degradation_off_keeps_paper_behavior() {
        // Without degradation the policy retries every interval and
        // reports no deferred/pressure fields.
        let mut os = os_with(4);
        os.phys.fragment(100, 1);
        fault_pages(&mut os, 0, region(3), 4);
        let mut bank = bank();
        let mut p = PccPolicy::new(PromotionPolicyKind::HighestFrequency, 8);
        for t in 0..3 {
            bank.record_walk(CoreId(0), region(3), true);
            let rep = p.run_interval(
                &mut os,
                Some(&mut bank),
                t,
                &mut PromotionBudget::UNLIMITED.clone(),
            );
            assert_eq!(rep.failures, 1, "paper behavior retries every interval");
            assert!(rep.deferred.is_empty());
            assert!(!rep.pressure_entered && !rep.pressure_exited);
        }
    }

    #[test]
    fn policy_names_and_fault_preferences() {
        assert_eq!(BasePagesPolicy.name(), "base-4k");
        assert_eq!(IdealHugePolicy.name(), "ideal-2m");
        assert_eq!(LinuxThpPolicy::new().name(), "linux-thp");
        assert_eq!(HawkEyePolicy::new().name(), "hawkeye");
        assert_eq!(
            PccPolicy::new(PromotionPolicyKind::RoundRobin, 1).name(),
            "pcc"
        );
        assert!(LinuxThpPolicy::new().fault_prefers_huge());
        assert!(!HawkEyePolicy::new().fault_prefers_huge());
        assert!(!PccPolicy::new(PromotionPolicyKind::RoundRobin, 1).fault_prefers_huge());
        assert_eq!(
            PccPolicy::new(PromotionPolicyKind::RoundRobin, 1).selection(),
            PromotionPolicyKind::RoundRobin
        );
        assert_eq!(
            ReplayPolicy::new(PromotionSchedule::default()).name(),
            "replay"
        );
    }

    #[test]
    fn hawkeye_scan_budget_drives_promotion_cap() {
        let p = HawkEyePolicy::new().with_pages_per_scan(1024);
        // 1024 pages = 2 regions per interval.
        let mut os = os_with(32);
        for i in 0..5 {
            fault_pages(&mut os, 0, region(i), 500);
            for page in region(i).split(PageSize::Base4K).take(500) {
                os.spaces[0].page_table_mut().walk(page.base()).unwrap();
            }
        }
        let mut p = p;
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions.len(), 2);
    }

    #[test]
    fn hawkeye_rescans_update_buckets() {
        // A region whose coverage drops between scans moves buckets and
        // is not double-queued.
        let mut os = os_with(16);
        fault_pages(&mut os, 0, region(3), 500);
        for page in region(3).split(PageSize::Base4K).take(500) {
            os.spaces[0].page_table_mut().walk(page.base()).unwrap();
        }
        let mut p = HawkEyePolicy::new();
        // First interval scans and promotes region 3.
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(rep.promotions.len(), 1);
        // Nothing left to promote on the next interval.
        let rep = p.run_interval(&mut os, None, 1, &mut PromotionBudget::UNLIMITED.clone());
        assert!(rep.promotions.is_empty());
    }

    #[test]
    fn linux_fault_path_cannot_compact() {
        // Under full-coverage fragmentation, khugepaged (compaction) can
        // still promote but the fault path cannot allocate huge.
        let mut os = os_with(8);
        os.phys.fragment(25, 3);
        assert!(os.phys.alloc_huge(false).is_err());
        fault_pages(&mut os, 0, region(2), 3);
        let mut p = LinuxThpPolicy::new();
        let rep = p.run_interval(&mut os, None, 0, &mut PromotionBudget::UNLIMITED.clone());
        assert_eq!(
            rep.promotions.len(),
            1,
            "khugepaged compacts where faults cannot"
        );
    }

    #[test]
    fn budget_percent_rounds_up() {
        // 1% of a small footprint still allows one region.
        let b = PromotionBudget::percent_of_footprint(1, 10 * MB2);
        assert_eq!(b.remaining_regions, Some(1));
        let b = PromotionBudget::percent_of_footprint(0, 10 * MB2);
        assert_eq!(b.remaining_regions, Some(0));
    }

    #[test]
    fn budget_percent_saturates() {
        let b = PromotionBudget::percent_of_footprint(u64::MAX, 10 * MB2);
        assert_eq!(b.remaining_regions, Some(u64::MAX.div_ceil(100)));
    }
}
