//! Property test: the sharded simulation engine is observationally
//! equivalent to the sequential one.
//!
//! The unit tests in `simulation.rs` pin a handful of hand-picked
//! scenarios; this suite samples the space — policy × fault plan ×
//! process mix × worker count × 1 GiB PCC bank on/off — and requires, for every draw, that the
//! sharded run reproduces the sequential run **byte-for-byte**: the
//! [`SimReport`] (which carries per-process stats, interval series,
//! audit findings, and the promotion ledger via `PartialEq`) and the
//! full JSONL event stream.
//!
//! Case count is deliberately small: each case simulates hundreds of
//! thousands of accesses twice, so eight draws already cover more
//! scenario combinations than the unit tests while keeping the suite
//! in CI-friendly time.

use hpage_faults::{FaultKind, FaultPlan, FaultWindow};
use hpage_sim::{JsonlSink, PolicyChoice, ProcessSpec, SimReport, Simulation};
use hpage_trace::{Pattern, SyntheticBuilder, SyntheticWorkload, Workload};
use hpage_types::{PccConfig, SystemConfig};
use proptest::prelude::*;

/// One tenant: a synthetic workload whose pattern, footprint, and
/// length are all derived from a single sampled seed.
fn workload(ordinal: usize, seed: u64) -> SyntheticWorkload {
    let mb = 2 + (seed % 5); // 2..=6 MiB footprint
    let accesses = 40_000 + (seed % 4) * 20_000; // 40k..=100k accesses
    let mut b = SyntheticBuilder::new(format!("p{ordinal}"), seed);
    let arr = b.array(8, mb * (1 << 20) / 8);
    let pattern = match seed % 3 {
        0 => Pattern::UniformRandom { count: accesses },
        1 => Pattern::Sequential {
            stride: 1,
            count: accesses,
        },
        _ => Pattern::Zipf {
            count: accesses,
            exponent: 0.9,
        },
    };
    b.phase(arr, pattern, (seed % 30) as u8);
    b.build()
}

fn policy(index: u64) -> PolicyChoice {
    match index % 5 {
        0 => PolicyChoice::pcc_default(),
        1 => PolicyChoice::LinuxThp,
        2 => PolicyChoice::BasePages,
        3 => PolicyChoice::IdealHuge,
        _ => PolicyChoice::VictimCache { entries: 64 },
    }
}

/// A sampled fault plan: none, a fragmentation shock, or a pile-up of
/// every fault kind. Windows land in the first few promotion
/// intervals, where these short workloads actually run.
fn faults(index: u64) -> Option<FaultPlan> {
    let windows = match index % 3 {
        0 => return None,
        1 => vec![FaultWindow {
            kind: FaultKind::FragmentationShock {
                percent: 50,
                seed: 21,
            },
            at: 2,
            duration: 1,
        }],
        _ => vec![
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
                kind: FaultKind::FragmentationShock {
                    percent: 35,
                    seed: 7,
                },
                at: 3,
                duration: 1,
            },
            FaultWindow {
                kind: FaultKind::PccReset,
                at: 4,
                duration: 1,
            },
            FaultWindow {
                kind: FaultKind::ShootdownSpike,
                at: 5,
                duration: 1,
            },
        ],
    };
    Some(FaultPlan::new("shard-equivalence", windows).expect("static plan is valid"))
}

/// Runs one configuration to completion and captures everything
/// observable: the report and the serialized event stream.
fn run(
    policy: PolicyChoice,
    plan: Option<FaultPlan>,
    pcc_1g: bool,
    tenants: &[SyntheticWorkload],
    sim_threads: usize,
) -> (SimReport, String) {
    let mut config = SystemConfig::tiny();
    config.pcc_1g = pcc_1g.then(PccConfig::paper_1g);
    let mut sim = Simulation::new(config, policy)
        .with_ledger()
        .with_audit()
        .with_sim_threads(sim_threads);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let specs: Vec<ProcessSpec<'_>> = tenants
        .iter()
        .map(|w| ProcessSpec::new(w as &dyn Workload))
        .collect();
    let mut buf = Vec::new();
    let mut sink = JsonlSink::new(&mut buf);
    let report = sim.try_run_recorded(&specs, &mut sink).unwrap();
    sink.finish().expect("stream to memory");
    (report, String::from_utf8(buf).expect("JSONL is UTF-8"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn sharded_engine_matches_sequential(
        policy_index in 0u64..5,
        fault_index in 0u64..3,
        pcc_1g in any::<bool>(),
        seeds in prop::collection::vec(1u64..10_000, 1..5),
        sim_threads in 2usize..9,
    ) {
        let tenants: Vec<SyntheticWorkload> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| workload(i, s))
            .collect();
        let (seq_report, seq_events) =
            run(policy(policy_index), faults(fault_index), pcc_1g, &tenants, 1);
        let (par_report, par_events) =
            run(policy(policy_index), faults(fault_index), pcc_1g, &tenants, sim_threads);
        prop_assert!(
            seq_report.audit_violations.is_empty(),
            "sequential run violated invariants: {:?}",
            seq_report.audit_violations
        );
        prop_assert_eq!(
            &par_report,
            &seq_report,
            "report diverged: policy {} faults {} 1g {} tenants {:?} threads {}",
            policy_index,
            fault_index,
            pcc_1g,
            seeds,
            sim_threads
        );
        prop_assert_eq!(
            &par_events,
            &seq_events,
            "event stream diverged: policy {} faults {} 1g {} tenants {:?} threads {}",
            policy_index,
            fault_index,
            pcc_1g,
            seeds,
            sim_threads
        );
    }
}
