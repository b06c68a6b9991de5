//! Chaos-mode property suite: randomly generated fault schedules run
//! against every promotion policy, with the OS-state invariant auditor
//! switched on at every interval. A case fails if the simulation
//! panics, returns an error for anything other than genuine memory
//! exhaustion, reports an auditor violation, or loses accesses. A last
//! property panics random cells of a policy grid and checks that the
//! harness confines each failure to its own cell.

use hpage::faults::{FaultKind, FaultPlan, FaultWindow};
use hpage::sim::{
    Cell, CellFailure, Harness, NullRecorder, PolicyChoice, ProcessSpec, SharedWorkload, Simulation,
};
use hpage::trace::{Pattern, SyntheticBuilder, SyntheticWorkload, TraceSource, Workload};
use hpage::types::{Region, SystemConfig};
use proptest::prelude::*;
use std::sync::Arc;

const ACCESSES: u64 = 150_000;
/// `SystemConfig::tiny()` promotes every 50k accesses, so the run
/// spans three intervals; windows are drawn to land inside them.
const INTERVALS: u64 = ACCESSES / 50_000;

fn workload(seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("chaos", seed);
    let a = b.array(8, (6 << 20) / 8);
    b.phase(a, Pattern::UniformRandom { count: ACCESSES }, 0);
    b.build()
}

/// Decodes one drawn tuple into a fault window. `sel` picks the kind;
/// shocks carry their own deterministic percent/seed.
fn window(sel: u64, at: u64, duration: u64, percent: u64, seed: u64) -> FaultWindow {
    let kind = match sel {
        0 => FaultKind::OomWindow,
        1 => FaultKind::CompactionStall,
        2 => FaultKind::PccReset,
        3 => FaultKind::ShootdownSpike,
        _ => FaultKind::FragmentationShock {
            percent: percent as u8,
            seed,
        },
    };
    FaultWindow { kind, at, duration }
}

fn policy(sel: u64) -> PolicyChoice {
    match sel {
        0 => PolicyChoice::IdealHuge,
        1 => PolicyChoice::LinuxThp,
        2 => PolicyChoice::HawkEye,
        _ => PolicyChoice::pcc_default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any generated fault schedule, on any policy, completes without
    /// panics and with zero auditor violations. 128 cases × one policy
    /// each covers all four policies across >100 distinct schedules.
    #[test]
    fn generated_fault_schedules_never_break_invariants(
        windows in prop::collection::vec(
            (0u64..5, 0u64..INTERVALS, 1u64..3, 10u64..61, 0u64..1000),
            1..6,
        ),
        policy_sel in 0u64..4,
        wseed in 0u64..32,
    ) {
        let plan = FaultPlan::new(
            "generated",
            windows
                .into_iter()
                .map(|(sel, at, dur, pct, seed)| window(sel, at, dur, pct, seed))
                .collect(),
        )
        .expect("drawn windows are always valid");
        let w = workload(wseed);
        let report = Simulation::new(SystemConfig::tiny(), policy(policy_sel))
            .with_faults(plan)
            .with_degradation()
            .with_audit()
            .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
            .expect("chaos run must degrade gracefully, not error");
        prop_assert!(
            report.audit_violations.is_empty(),
            "auditor violations under policy {}: {:?}",
            report.policy,
            report.audit_violations
        );
        prop_assert_eq!(report.aggregate.accesses, ACCESSES);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism under fault injection: the same plan and the same
    /// seed produce bit-identical reports on repeated runs.
    #[test]
    fn faulted_runs_are_bit_identical(
        windows in prop::collection::vec(
            (0u64..5, 0u64..INTERVALS, 1u64..3, 10u64..61, 0u64..1000),
            1..6,
        ),
        policy_sel in 0u64..4,
    ) {
        let plan = FaultPlan::new(
            "determinism",
            windows
                .into_iter()
                .map(|(sel, at, dur, pct, seed)| window(sel, at, dur, pct, seed))
                .collect(),
        )
        .expect("drawn windows are always valid");
        let w = workload(7);
        let run = || {
            Simulation::new(SystemConfig::tiny(), policy(policy_sel))
                .with_faults(plan.clone())
                .with_degradation()
                .with_audit()
                .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
                .expect("chaos run must degrade gracefully, not error")
        };
        prop_assert_eq!(run(), run());
    }
}

/// A synthetic workload that panics when a cell asks for its trace,
/// i.e. while that cell sets up.
struct Panicking(SyntheticWorkload);

impl Workload for Panicking {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn regions(&self) -> Vec<Region> {
        self.0.regions()
    }

    fn thread_source(&self, _thread: u32, _threads: u32) -> Box<dyn TraceSource + Send + '_> {
        panic!("chaos workload panics")
    }
}

/// One cell per policy, so every promotion policy runs in the grid;
/// cell `sel` runs a [`Panicking`] workload when bit `sel` of `mask` is
/// set.
fn policy_grid(mask: u64) -> Vec<Cell> {
    let build = || {
        let mut b = SyntheticBuilder::new("cell-chaos", 11);
        let a = b.array(8, (4 << 20) / 8);
        b.phase(a, Pattern::UniformRandom { count: 50_000 }, 0);
        b.build()
    };
    let healthy: SharedWorkload = Arc::new(build());
    let panicking: SharedWorkload = Arc::new(Panicking(build()));
    (0..4)
        .map(|sel| {
            let w = if mask >> sel & 1 == 1 {
                &panicking
            } else {
                &healthy
            };
            Cell::new(
                format!("chaos/{sel}"),
                Simulation::new(SystemConfig::tiny(), policy(sel)),
                Arc::clone(w),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Harness-level chaos: any set of panicking cells in the
    /// four-policy grid, at any worker count, fails exactly those
    /// cells, once each, while every other cell's report is
    /// bit-identical to a clean sequential run.
    #[test]
    fn panicking_cells_fail_alone_at_any_jobs(
        mask in 0u64..16,
        jobs in 1usize..5,
    ) {
        let clean = Harness::sequential().try_run_map(policy_grid(0), Cell::run);
        let h = Harness::new(jobs);
        let chaotic = h.try_run_map(policy_grid(mask), Cell::run);
        for (i, (c, f)) in clean.iter().zip(&chaotic).enumerate() {
            let c = c.as_ref().expect("clean run never fails");
            if mask >> i & 1 == 1 {
                prop_assert_eq!(
                    f.as_ref().err(),
                    Some(&CellFailure::Panicked { message: "chaos workload panics".into() }),
                    "cell {} should have panicked", i
                );
            } else {
                prop_assert_eq!(Ok(c), f.as_ref(), "cell {} diverged beside a panic", i);
            }
        }
        // The log holds one record per failed cell, in completion order.
        let mut failed: Vec<String> = h.log().failures().into_iter().map(|f| f.label).collect();
        failed.sort();
        let expected: Vec<String> = (0..4)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| format!("chaos/{i}"))
            .collect();
        prop_assert_eq!(failed, expected);
    }
}
