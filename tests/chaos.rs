//! Chaos-mode property suite: randomly generated fault schedules run
//! against every promotion policy, with the OS-state invariant auditor
//! switched on at every interval. A case fails if the simulation
//! panics, returns an error for anything other than genuine memory
//! exhaustion, reports an auditor violation, or loses accesses.

use hpage::faults::{FaultKind, FaultPlan, FaultWindow};
use hpage::os::DegradationConfig;
use hpage::sim::{Harness, NullRecorder, PolicyChoice, ProcessSpec, Simulation};
use hpage::trace::{Pattern, SyntheticBuilder, SyntheticWorkload};
use hpage::types::SystemConfig;
use proptest::prelude::*;

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
            .with_degradation(DegradationConfig::default())
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
                .with_degradation(DegradationConfig::default())
                .with_audit()
                .try_run_recorded(&[ProcessSpec::new(&w)], &mut NullRecorder)
                .expect("chaos run must degrade gracefully, not error")
        };
        prop_assert_eq!(run(), run());
    }
}

/// One cell per policy, so every promotion policy sees the supervisor.
fn policy_grid() -> Vec<hpage::sim::Cell> {
    use hpage::sim::Cell;
    use std::sync::Arc;
    let w: Arc<SyntheticWorkload> = Arc::new({
        let mut b = SyntheticBuilder::new("cell-chaos", 11);
        let a = b.array(8, (4 << 20) / 8);
        b.phase(a, Pattern::UniformRandom { count: 50_000 }, 0);
        b.build()
    });
    (0..4)
        .map(|sel| {
            Cell::new(
                format!("chaos/{sel}"),
                Simulation::new(SystemConfig::tiny(), policy(sel)),
                w.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Harness-level chaos: random cell_panic/cell_stall schedules
    /// against the four-policy grid, at random worker counts, with a
    /// retry budget that covers the worst draw. Every cell must
    /// recover, and the recovered grid must be bit-identical to an
    /// unfaulted sequential run.
    #[test]
    fn injected_cell_faults_are_absorbed_by_the_supervisor(
        windows in prop::collection::vec(
            // (1 = panic / 0 = stall, at, duration, failures, stall_ms)
            (0u64..2, 0u64..4, 1u64..3, 1u32..3, 1u64..8),
            1..4,
        ),
        jobs in 1usize..5,
    ) {
        use hpage::sim::SupervisorConfig;
        let plan = FaultPlan::new(
            "cell-chaos",
            windows
                .into_iter()
                .map(|(is_panic, at, duration, failures, millis)| FaultWindow {
                    kind: if is_panic == 1 {
                        FaultKind::CellPanic { failures }
                    } else {
                        FaultKind::CellStall { millis }
                    },
                    at,
                    duration,
                })
                .collect(),
        )
        .expect("drawn windows are always valid");
        let clean = Harness::sequential().run_supervised(policy_grid());
        let h = Harness::new(jobs).with_supervisor(
            SupervisorConfig::default().with_max_retries(3).with_faults(plan),
        );
        let chaotic = h.run_supervised(policy_grid());
        for (i, (c, f)) in clean.iter().zip(&chaotic).enumerate() {
            let c = c.as_ref().expect("clean run never fails");
            let f = f.as_ref().unwrap_or_else(|e| {
                panic!("cell {i} failed despite retry budget: {e}")
            });
            prop_assert_eq!(c, f, "cell {} diverged after recovery", i);
        }
    }
}
