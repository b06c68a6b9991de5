//! Deterministic fault injection for the huge-page simulator.
//!
//! The paper's real-system evaluation (§5) runs PCC-driven promotion on
//! a live Linux box where promotions *fail*: compaction stalls, free
//! 2 MiB blocks run out, and per-core PCC SRAM is lost on context
//! switches (§3.2). This crate models those failure modes as a
//! declarative, JSON-loadable [`FaultPlan`]: a set of [`FaultWindow`]s,
//! each activating one [`FaultKind`] over a half-open interval range
//! `[at, at + duration)` measured in promotion intervals.
//!
//! A [`FaultInjector`] walks the plan as simulated time advances and
//! hands the simulation an [`IntervalEffects`] summary at every interval
//! boundary. Everything is a pure function of the plan — no wall clock,
//! no hidden RNG state — so a fixed-seed run under a fixed plan is
//! bit-identical across invocations.
//!
//! Fault kinds:
//!
//! - [`FaultKind::OomWindow`] — `alloc_huge` / `alloc_giant` fail for
//!   the window's duration (the OS keeps satisfying base-page faults).
//! - [`FaultKind::CompactionStall`] — compaction is unavailable; only
//!   already-clean 2 MiB blocks can back promotions.
//! - [`FaultKind::FragmentationShock`] — `PhysicalMemory::fragment` is
//!   re-applied mid-run with the window's own percent/seed (paper
//!   §5.1.1 methodology, applied as a shock instead of at boot).
//! - [`FaultKind::PccReset`] — all PCC banks are cleared each interval
//!   in the window, modeling SRAM loss on context switch (§3.2).
//! - [`FaultKind::ShootdownSpike`] — shootdowns during the window flush
//!   entire TLB hierarchies instead of single regions, modeling the
//!   latency/overshoot of IPI storms.
//!
//! Two further kinds target the *experiment harness* rather than the
//! simulated OS, so the chaos suite can drive the supervised runner
//! itself (panic isolation, retries, deadlines):
//!
//! - [`FaultKind::CellPanic`] — the covered harness cells panic on their
//!   first `failures` attempts.
//! - [`FaultKind::CellStall`] — the covered harness cells sleep `millis`
//!   wall-clock milliseconds per attempt before running.
//!
//! For these two, a window's `at`/`for` range is measured in **cell
//! submission indices**, not promotion intervals; the simulation-level
//! [`FaultInjector`] ignores them entirely (see
//! [`FaultKind::is_harness_level`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use hpage_obs::json::esc;
use hpage_types::HpageError;
use json::Value;

/// One category of injected fault. See the crate docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Huge and giant allocations fail outright.
    OomWindow,
    /// Compaction is unavailable; only clean blocks back promotions.
    CompactionStall,
    /// Physical memory is re-fragmented mid-run (fires once, at the
    /// window's first interval).
    FragmentationShock {
        /// Percentage of blocks to pin with unmovable pages (0–100).
        percent: u8,
        /// Seed for the deterministic fragmentation shuffle.
        seed: u64,
    },
    /// Per-core PCC contents are lost (cleared every interval in the
    /// window).
    PccReset,
    /// Shootdowns flush whole TLB hierarchies instead of one region.
    ShootdownSpike,
    /// Harness-level: the covered cells panic on their first `failures`
    /// attempts (the window range is cell submission indices).
    CellPanic {
        /// How many leading attempts panic before the cell succeeds
        /// (≥ 1; with a retry budget below this, the cell fails).
        failures: u32,
    },
    /// Harness-level: the covered cells sleep this long per attempt
    /// before running (the window range is cell submission indices).
    CellStall {
        /// Wall-clock milliseconds to stall each attempt.
        millis: u64,
    },
}

impl FaultKind {
    /// Short stable identifier used in JSON plans and event streams.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::OomWindow => "oom",
            FaultKind::CompactionStall => "compaction_stall",
            FaultKind::FragmentationShock { .. } => "fragmentation_shock",
            FaultKind::PccReset => "pcc_reset",
            FaultKind::ShootdownSpike => "shootdown_spike",
            FaultKind::CellPanic { .. } => "cell_panic",
            FaultKind::CellStall { .. } => "cell_stall",
        }
    }

    /// Whether this kind targets the experiment harness (cell panics and
    /// stalls) rather than the simulated OS. Harness-level windows use
    /// cell submission indices for `at`/`for` and are inert inside the
    /// simulation's [`FaultInjector`].
    pub fn is_harness_level(&self) -> bool {
        matches!(
            self,
            FaultKind::CellPanic { .. } | FaultKind::CellStall { .. }
        )
    }
}

/// One fault active over the half-open interval range
/// `[at, at + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// The fault to inject.
    pub kind: FaultKind,
    /// First promotion interval (0-based) at which the fault is active.
    pub at: u64,
    /// Number of consecutive intervals the fault stays active (≥ 1).
    pub duration: u64,
}

impl FaultWindow {
    /// Whether this window covers `interval`.
    pub fn covers(&self, interval: u64) -> bool {
        interval >= self.at && interval - self.at < self.duration
    }
}

/// A named, declarative schedule of fault windows.
///
/// Windows may overlap freely (an OOM window inside a compaction stall
/// is a legitimate scenario). [`FaultPlan::validate`] enforces only
/// per-window sanity: non-zero durations, percentages ≤ 100, and no
/// overflowing ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Human-readable plan name (carried into reports and events).
    pub name: String,
    /// The fault windows, in plan order.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Creates a validated plan.
    pub fn new(name: impl Into<String>, windows: Vec<FaultWindow>) -> Result<Self, HpageError> {
        let plan = FaultPlan {
            name: name.into(),
            windows,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Checks per-window sanity. Returns the first problem found.
    pub fn validate(&self) -> Result<(), HpageError> {
        for (i, w) in self.windows.iter().enumerate() {
            if w.duration == 0 {
                return Err(fault_err(format!(
                    "plan {:?}: window {i} ({}) has zero duration",
                    self.name,
                    w.kind.label()
                )));
            }
            if w.at.checked_add(w.duration).is_none() {
                return Err(fault_err(format!(
                    "plan {:?}: window {i} ({}) overflows the interval range",
                    self.name,
                    w.kind.label()
                )));
            }
            if let FaultKind::FragmentationShock { percent, .. } = w.kind {
                if percent > 100 {
                    return Err(fault_err(format!(
                        "plan {:?}: window {i} fragmentation percent {percent} > 100",
                        self.name
                    )));
                }
            }
            if let FaultKind::CellPanic { failures } = w.kind {
                if failures == 0 {
                    return Err(fault_err(format!(
                        "plan {:?}: window {i} cell_panic with zero failures injects nothing",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// The harness-level windows (cell panics and stalls), whose
    /// `at`/`for` ranges are cell submission indices. The supervised
    /// runner consumes these; [`FaultInjector`] skips them.
    pub fn cell_windows(&self) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(|w| w.kind.is_harness_level())
    }

    /// The last interval (exclusive) touched by any window, i.e. the
    /// plan is fully spent once this many intervals have elapsed.
    pub fn horizon(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.at.saturating_add(w.duration))
            .max()
            .unwrap_or(0)
    }

    /// Parses a plan from its JSON form. The format:
    ///
    /// ```json
    /// {
    ///   "name": "chaos",
    ///   "faults": [
    ///     {"kind": "oom", "at": 2, "for": 3},
    ///     {"kind": "compaction_stall", "at": 1, "for": 4},
    ///     {"kind": "fragmentation_shock", "at": 4, "for": 1,
    ///      "percent": 60, "seed": 9},
    ///     {"kind": "pcc_reset", "at": 5, "for": 2},
    ///     {"kind": "shootdown_spike", "at": 3, "for": 1},
    ///     {"kind": "cell_panic", "at": 3, "for": 1, "failures": 1},
    ///     {"kind": "cell_stall", "at": 0, "for": 2, "millis": 10}
    ///   ]
    /// }
    /// ```
    ///
    /// `"for"` defaults to 1 when omitted (as does `"failures"` for
    /// `cell_panic`). Unknown keys are rejected so typos fail loudly
    /// instead of silently injecting nothing.
    pub fn from_json(text: &str) -> Result<Self, HpageError> {
        let root = json::parse(text).map_err(|e| fault_err(format!("fault plan JSON: {e}")))?;
        let obj = root
            .as_object()
            .ok_or_else(|| fault_err("fault plan JSON: top level must be an object"))?;
        for key in obj.keys() {
            if key != "name" && key != "faults" {
                return Err(fault_err(format!("fault plan JSON: unknown key {key:?}")));
            }
        }
        let name = match obj.get("name") {
            None => String::from("unnamed"),
            Some(v) => v
                .as_str()
                .ok_or_else(|| fault_err("fault plan JSON: \"name\" must be a string"))?
                .to_string(),
        };
        let faults = obj
            .get("faults")
            .ok_or_else(|| fault_err("fault plan JSON: missing \"faults\" array"))?
            .as_array()
            .ok_or_else(|| fault_err("fault plan JSON: \"faults\" must be an array"))?;
        let mut windows = Vec::with_capacity(faults.len());
        for (i, f) in faults.iter().enumerate() {
            windows.push(Self::window_from_json(i, f)?);
        }
        FaultPlan::new(name, windows)
    }

    fn window_from_json(i: usize, v: &Value) -> Result<FaultWindow, HpageError> {
        let obj = v
            .as_object()
            .ok_or_else(|| fault_err(format!("fault {i}: must be an object")))?;
        let get_uint = |key: &str| -> Result<Option<u64>, HpageError> {
            match obj.get(key) {
                None => Ok(None),
                Some(v) => v.as_uint().map(Some).ok_or_else(|| {
                    fault_err(format!("fault {i}: {key:?} must be an unsigned integer"))
                }),
            }
        };
        let kind_name = obj
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| fault_err(format!("fault {i}: missing string \"kind\"")))?;
        let mut allowed: &[&str] = &["kind", "at", "for"];
        let kind = match kind_name {
            "oom" => FaultKind::OomWindow,
            "compaction_stall" => FaultKind::CompactionStall,
            "pcc_reset" => FaultKind::PccReset,
            "shootdown_spike" => FaultKind::ShootdownSpike,
            "fragmentation_shock" => {
                allowed = &["kind", "at", "for", "percent", "seed"];
                let percent = get_uint("percent")?.ok_or_else(|| {
                    fault_err(format!("fault {i}: fragmentation_shock needs \"percent\""))
                })?;
                if percent > 100 {
                    return Err(fault_err(format!("fault {i}: percent {percent} > 100")));
                }
                FaultKind::FragmentationShock {
                    percent: percent as u8,
                    seed: get_uint("seed")?.unwrap_or(0),
                }
            }
            "cell_panic" => {
                allowed = &["kind", "at", "for", "failures"];
                let failures = get_uint("failures")?.unwrap_or(1);
                if failures == 0 || failures > u64::from(u32::MAX) {
                    return Err(fault_err(format!(
                        "fault {i}: cell_panic \"failures\" must be in 1..=2^32-1"
                    )));
                }
                FaultKind::CellPanic {
                    failures: failures as u32,
                }
            }
            "cell_stall" => {
                allowed = &["kind", "at", "for", "millis"];
                let millis = get_uint("millis")?
                    .ok_or_else(|| fault_err(format!("fault {i}: cell_stall needs \"millis\"")))?;
                FaultKind::CellStall { millis }
            }
            other => {
                return Err(fault_err(format!("fault {i}: unknown kind {other:?}")));
            }
        };
        for key in obj.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(fault_err(format!("fault {i}: unknown key {key:?}")));
            }
        }
        let at = get_uint("at")?
            .ok_or_else(|| fault_err(format!("fault {i}: missing \"at\" interval")))?;
        let duration = get_uint("for")?.unwrap_or(1);
        Ok(FaultWindow { kind, at, duration })
    }

    /// Renders the plan back to its canonical JSON form (round-trips
    /// through [`FaultPlan::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"faults\": [",
            esc(&self.name)
        ));
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"kind\": \"{}\", \"at\": {}, \"for\": {}",
                w.kind.label(),
                w.at,
                w.duration
            ));
            match w.kind {
                FaultKind::FragmentationShock { percent, seed } => {
                    out.push_str(&format!(", \"percent\": {percent}, \"seed\": {seed}"));
                }
                FaultKind::CellPanic { failures } => {
                    out.push_str(&format!(", \"failures\": {failures}"));
                }
                FaultKind::CellStall { millis } => {
                    out.push_str(&format!(", \"millis\": {millis}"));
                }
                _ => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn fault_err(reason: impl Into<String>) -> HpageError {
    HpageError::Fault {
        reason: reason.into(),
    }
}

/// The faults in force for one promotion interval, as computed by
/// [`FaultInjector::effects_at`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalEffects {
    /// Huge/giant allocations must fail this interval.
    pub oom: bool,
    /// Compaction must be treated as unavailable this interval.
    pub compaction_stall: bool,
    /// Fragmentation shocks firing *this* interval (window starts
    /// only — a shock is a one-time event, not a sustained state), as
    /// `(percent, seed)` pairs in plan order.
    pub shocks: Vec<(u8, u64)>,
    /// All PCC banks must be cleared this interval.
    pub pcc_reset: bool,
    /// Shootdowns this interval flush whole TLBs, not single regions.
    pub shootdown_spike: bool,
    /// Fault kinds newly entering force this interval (for event
    /// emission), in plan order, deduplicated by label.
    pub started: Vec<FaultKind>,
}

impl IntervalEffects {
    /// Whether any fault is in force this interval.
    pub fn any(&self) -> bool {
        self.oom
            || self.compaction_stall
            || self.pcc_reset
            || self.shootdown_spike
            || !self.shocks.is_empty()
    }
}

/// Running totals of what the injector has actually inflicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Intervals during which at least one fault was in force.
    pub faulted_intervals: u64,
    /// Intervals spent inside an OOM window.
    pub oom_intervals: u64,
    /// Intervals spent with compaction stalled.
    pub compaction_stall_intervals: u64,
    /// Fragmentation shocks fired.
    pub shocks_fired: u64,
    /// PCC reset events applied.
    pub pcc_resets: u64,
    /// Intervals with shootdown spikes in force.
    pub shootdown_spike_intervals: u64,
}

/// Walks a [`FaultPlan`] as simulated time advances.
///
/// The injector is a pure function of `(plan, interval)` plus running
/// stats; it holds no RNG. Determinism therefore reduces to the plan
/// itself (fragmentation shocks carry their own seeds).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stats: FaultStats,
    last_interval: Option<u64>,
}

impl FaultInjector {
    /// Creates an injector for a validated plan.
    pub fn new(plan: FaultPlan) -> Result<Self, HpageError> {
        plan.validate()?;
        Ok(FaultInjector {
            plan,
            stats: FaultStats::default(),
            last_interval: None,
        })
    }

    /// The plan this injector is executing.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Totals of faults inflicted so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Computes the faults in force for `interval` and updates stats.
    ///
    /// Intervals must be queried in strictly increasing order; a shock
    /// whose window starts at a skipped interval still fires on the
    /// first query at or past its start (so coarse interval schedules
    /// can't silently drop one-shot faults).
    pub fn effects_at(&mut self, interval: u64) -> IntervalEffects {
        let prev = self.last_interval;
        if let Some(p) = prev {
            debug_assert!(
                interval > p,
                "effects_at must be called with increasing intervals"
            );
        }
        self.last_interval = Some(interval);

        let mut fx = IntervalEffects::default();
        let newly_started = |w: &FaultWindow| match prev {
            // First query: anything already in force counts as starting.
            None => w.covers(interval),
            Some(p) => w.covers(interval) && !w.covers(p),
        };
        for w in &self.plan.windows {
            // Harness-level kinds target cell submission indices, not
            // sim intervals; the supervised runner consumes them and
            // the injector treats them as inert.
            if w.kind.is_harness_level() {
                continue;
            }
            let active = w.covers(interval);
            let started = newly_started(w);
            // One-shot shocks fire when their window is first reached,
            // even if the exact start interval was skipped over.
            let shock_due = match w.kind {
                FaultKind::FragmentationShock { .. } => match prev {
                    None => w.at <= interval && w.covers(interval),
                    Some(p) => w.at > p && w.at <= interval,
                },
                _ => false,
            };
            if !active && !shock_due {
                continue;
            }
            match w.kind {
                FaultKind::OomWindow => fx.oom = true,
                FaultKind::CompactionStall => fx.compaction_stall = true,
                FaultKind::PccReset => fx.pcc_reset = true,
                FaultKind::ShootdownSpike => fx.shootdown_spike = true,
                FaultKind::FragmentationShock { percent, seed } => {
                    if shock_due {
                        fx.shocks.push((percent, seed));
                    }
                }
                // Skipped above; unreachable here.
                FaultKind::CellPanic { .. } | FaultKind::CellStall { .. } => {}
            }
            if started || (shock_due && !active) {
                let label = w.kind.label();
                if !fx.started.iter().any(|k| k.label() == label) {
                    fx.started.push(w.kind);
                }
            }
        }

        if fx.any() {
            self.stats.faulted_intervals += 1;
        }
        if fx.oom {
            self.stats.oom_intervals += 1;
        }
        if fx.compaction_stall {
            self.stats.compaction_stall_intervals += 1;
        }
        if fx.pcc_reset {
            self.stats.pcc_resets += 1;
        }
        if fx.shootdown_spike {
            self.stats.shootdown_spike_intervals += 1;
        }
        self.stats.shocks_fired += fx.shocks.len() as u64;
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(windows: Vec<FaultWindow>) -> FaultPlan {
        FaultPlan::new("test", windows).unwrap()
    }

    fn w(kind: FaultKind, at: u64, duration: u64) -> FaultWindow {
        FaultWindow { kind, at, duration }
    }

    #[test]
    fn window_covers_half_open_range() {
        let win = w(FaultKind::OomWindow, 2, 3);
        assert!(!win.covers(1));
        assert!(win.covers(2));
        assert!(win.covers(4));
        assert!(!win.covers(5));
    }

    #[test]
    fn validate_rejects_bad_windows() {
        assert!(FaultPlan::new("p", vec![w(FaultKind::OomWindow, 0, 0)]).is_err());
        assert!(FaultPlan::new("p", vec![w(FaultKind::OomWindow, u64::MAX, 2)]).is_err());
        assert!(FaultPlan::new(
            "p",
            vec![w(
                FaultKind::FragmentationShock {
                    percent: 101,
                    seed: 0
                },
                0,
                1
            )]
        )
        .is_err());
    }

    #[test]
    fn horizon_spans_all_windows() {
        let p = plan(vec![
            w(FaultKind::OomWindow, 2, 3),
            w(FaultKind::PccReset, 7, 1),
        ]);
        assert_eq!(p.horizon(), 8);
        assert_eq!(FaultPlan::default().horizon(), 0);
    }

    #[test]
    fn effects_track_windows() {
        let mut inj = FaultInjector::new(plan(vec![
            w(FaultKind::OomWindow, 1, 2),
            w(FaultKind::CompactionStall, 2, 2),
        ]))
        .unwrap();
        let fx0 = inj.effects_at(0);
        assert!(!fx0.any());
        assert!(fx0.started.is_empty());
        let fx1 = inj.effects_at(1);
        assert!(fx1.oom && !fx1.compaction_stall);
        assert_eq!(fx1.started, vec![FaultKind::OomWindow]);
        let fx2 = inj.effects_at(2);
        assert!(fx2.oom && fx2.compaction_stall);
        assert_eq!(fx2.started, vec![FaultKind::CompactionStall]);
        let fx3 = inj.effects_at(3);
        assert!(!fx3.oom && fx3.compaction_stall);
        assert!(fx3.started.is_empty());
        assert!(!inj.effects_at(4).any());
        assert_eq!(inj.stats().oom_intervals, 2);
        assert_eq!(inj.stats().compaction_stall_intervals, 2);
        assert_eq!(inj.stats().faulted_intervals, 3);
    }

    #[test]
    fn shock_fires_once_even_if_interval_skipped() {
        let shock = FaultKind::FragmentationShock {
            percent: 40,
            seed: 7,
        };
        let mut inj = FaultInjector::new(plan(vec![w(shock, 3, 1)])).unwrap();
        assert!(inj.effects_at(1).shocks.is_empty());
        // Interval 3 (the window start) is skipped; the shock still
        // fires at the first query past it.
        let fx = inj.effects_at(5);
        assert_eq!(fx.shocks, vec![(40, 7)]);
        assert_eq!(fx.started, vec![shock]);
        assert!(inj.effects_at(6).shocks.is_empty());
        assert_eq!(inj.stats().shocks_fired, 1);
    }

    #[test]
    fn shock_does_not_repeat_within_window() {
        let shock = FaultKind::FragmentationShock {
            percent: 25,
            seed: 1,
        };
        let mut inj = FaultInjector::new(plan(vec![w(shock, 0, 4)])).unwrap();
        assert_eq!(inj.effects_at(0).shocks.len(), 1);
        assert!(inj.effects_at(1).shocks.is_empty());
        assert!(inj.effects_at(2).shocks.is_empty());
        assert_eq!(inj.stats().shocks_fired, 1);
    }

    #[test]
    fn pcc_reset_repeats_every_interval_in_window() {
        let mut inj = FaultInjector::new(plan(vec![w(FaultKind::PccReset, 1, 3)])).unwrap();
        assert!(!inj.effects_at(0).pcc_reset);
        assert!(inj.effects_at(1).pcc_reset);
        assert!(inj.effects_at(2).pcc_reset);
        assert!(inj.effects_at(3).pcc_reset);
        assert!(!inj.effects_at(4).pcc_reset);
        assert_eq!(inj.stats().pcc_resets, 3);
    }

    #[test]
    fn injector_is_deterministic() {
        let p = plan(vec![
            w(FaultKind::OomWindow, 0, 2),
            w(
                FaultKind::FragmentationShock {
                    percent: 60,
                    seed: 9,
                },
                1,
                1,
            ),
            w(FaultKind::ShootdownSpike, 2, 2),
        ]);
        let run = |p: &FaultPlan| {
            let mut inj = FaultInjector::new(p.clone()).unwrap();
            (0..6).map(|i| inj.effects_at(i)).collect::<Vec<_>>()
        };
        assert_eq!(run(&p), run(&p));
    }

    #[test]
    fn json_round_trip() {
        let text = r#"{
            "name": "chaos",
            "faults": [
                {"kind": "oom", "at": 2, "for": 3},
                {"kind": "compaction_stall", "at": 1},
                {"kind": "fragmentation_shock", "at": 4, "percent": 60, "seed": 9},
                {"kind": "pcc_reset", "at": 5, "for": 2},
                {"kind": "shootdown_spike", "at": 3, "for": 1}
            ]
        }"#;
        let p = FaultPlan::from_json(text).unwrap();
        assert_eq!(p.name, "chaos");
        assert_eq!(p.windows.len(), 5);
        assert_eq!(p.windows[0], w(FaultKind::OomWindow, 2, 3));
        assert_eq!(p.windows[1], w(FaultKind::CompactionStall, 1, 1));
        assert_eq!(
            p.windows[2],
            w(
                FaultKind::FragmentationShock {
                    percent: 60,
                    seed: 9
                },
                4,
                1
            )
        );
        let reparsed = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn json_rejects_malformed_plans() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"faults": 3}"#,
            r#"{"name": 1, "faults": []}"#,
            r#"{"faults": [{"kind": "warp_core_breach", "at": 0}]}"#,
            r#"{"faults": [{"kind": "oom"}]}"#,
            r#"{"faults": [{"kind": "oom", "at": 0, "for": 0}]}"#,
            r#"{"faults": [{"kind": "oom", "at": 0, "typo": 1}]}"#,
            r#"{"faults": [{"kind": "oom", "at": 0, "percent": 10}]}"#,
            r#"{"faults": [{"kind": "fragmentation_shock", "at": 0}]}"#,
            r#"{"faults": [{"kind": "fragmentation_shock", "at": 0, "percent": 101}]}"#,
            r#"{"faults": [], "extra": true}"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn json_defaults() {
        let p = FaultPlan::from_json(r#"{"faults": [{"kind": "oom", "at": 7}]}"#).unwrap();
        assert_eq!(p.name, "unnamed");
        assert_eq!(p.windows, vec![w(FaultKind::OomWindow, 7, 1)]);
    }

    #[test]
    fn plan_name_is_escaped_in_json() {
        let p = FaultPlan::new("a\"b", vec![]).unwrap();
        let text = p.to_json();
        assert!(text.contains("a\\\"b"));
        assert_eq!(FaultPlan::from_json(&text).unwrap().name, "a\"b");
    }

    #[test]
    fn harness_kinds_round_trip_through_json() {
        let text = r#"{
            "name": "cells",
            "faults": [
                {"kind": "cell_panic", "at": 3, "for": 2, "failures": 4},
                {"kind": "cell_panic", "at": 0},
                {"kind": "cell_stall", "at": 1, "for": 3, "millis": 25}
            ]
        }"#;
        let p = FaultPlan::from_json(text).unwrap();
        assert_eq!(p.windows.len(), 3);
        assert_eq!(p.windows[0], w(FaultKind::CellPanic { failures: 4 }, 3, 2));
        // "failures" defaults to 1 like "for".
        assert_eq!(p.windows[1], w(FaultKind::CellPanic { failures: 1 }, 0, 1));
        assert_eq!(p.windows[2], w(FaultKind::CellStall { millis: 25 }, 1, 3));
        let reparsed = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn harness_kinds_reject_malformed_windows() {
        for bad in [
            r#"{"faults": [{"kind": "cell_panic", "at": 0, "failures": 0}]}"#,
            r#"{"faults": [{"kind": "cell_panic", "at": 0, "millis": 5}]}"#,
            r#"{"faults": [{"kind": "cell_stall", "at": 0}]}"#,
            r#"{"faults": [{"kind": "cell_stall", "at": 0, "failures": 1}]}"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "accepted: {bad}");
        }
        assert!(
            FaultPlan::new("p", vec![w(FaultKind::CellPanic { failures: 0 }, 0, 1)]).is_err(),
            "zero-failure cell_panic must fail validation"
        );
    }

    #[test]
    fn harness_kinds_are_inert_in_the_injector() {
        let p = plan(vec![
            w(FaultKind::CellPanic { failures: 2 }, 0, 4),
            w(FaultKind::CellStall { millis: 10 }, 1, 4),
        ]);
        let mut inj = FaultInjector::new(p.clone()).unwrap();
        for interval in 0..6 {
            let fx = inj.effects_at(interval);
            assert!(
                !fx.any(),
                "harness kinds must not affect interval {interval}"
            );
            assert!(fx.started.is_empty());
        }
        assert_eq!(inj.stats().faulted_intervals, 0);
        // But the supervised runner can still see them.
        assert_eq!(p.cell_windows().count(), 2);
    }
}
