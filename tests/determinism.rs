//! Determinism suite for the parallel experiment harness: every figure
//! driver must produce bit-identical rows whether its cells run inline
//! on one worker or fan out across a pool, and workloads served from
//! the run-wide cache must be indistinguishable from freshly built
//! ones. These are the guarantees that make `repro --jobs N` safe: the
//! rendered tables are byte-for-byte the same at any `N`.

use hpage::sim::{
    ablation_design_choices_on, fig1_page_sizes_on, fig5_utility_on, fig7_fragmentation_on,
    fig9_multiprocess_on, Fig9Config, Harness, SimProfile,
};
use hpage::trace::{instantiate, AppId, Dataset, Workload, WorkloadCache};

fn profile() -> SimProfile {
    let mut p = SimProfile::test();
    p.max_accesses_per_core = Some(400_000);
    p
}

#[test]
fn fig1_rows_are_identical_at_any_jobs() {
    let p = profile();
    let apps = [AppId::Bfs, AppId::Canneal];
    let seq = fig1_page_sizes_on(&Harness::sequential(), &p, &apps);
    let par = fig1_page_sizes_on(&Harness::new(8), &p, &apps);
    assert_eq!(seq, par, "fig1 rows must not depend on --jobs");
}

#[test]
fn fig5_curves_are_identical_at_any_jobs() {
    let p = profile();
    let sweep = [0, 4, 100];
    let seq = fig5_utility_on(&Harness::sequential(), &p, AppId::Bfs, &sweep);
    for jobs in [2, 8] {
        let par = fig5_utility_on(&Harness::new(jobs), &p, AppId::Bfs, &sweep);
        assert_eq!(seq, par, "fig5 curves must not depend on --jobs {jobs}");
    }
}

#[test]
fn fig7_fragmented_rows_are_identical_at_any_jobs() {
    // Fragmentation is the RNG-heavy path: cells seed the fragmenter
    // from a derived stream, so scheduling must not perturb it.
    let p = profile();
    let apps = [AppId::Bfs];
    let seq = fig7_fragmentation_on(&Harness::sequential(), &p, &apps, 90);
    let par = fig7_fragmentation_on(&Harness::new(4), &p, &apps, 90);
    assert_eq!(seq, par, "fig7 rows must not depend on --jobs");
}

#[test]
fn fig9_multiprocess_rows_are_identical_at_any_jobs() {
    let p = profile();
    let cfg = Fig9Config {
        app_a: AppId::Omnetpp,
        app_b: AppId::Dedup,
    };
    let seq = fig9_multiprocess_on(&Harness::sequential(), &p, cfg, &[0, 100]);
    let par = fig9_multiprocess_on(&Harness::new(8), &p, cfg, &[0, 100]);
    assert_eq!(seq, par, "fig9 rows must not depend on --jobs");
}

#[test]
fn ablation_rows_are_identical_at_any_jobs() {
    let p = profile();
    let seq = ablation_design_choices_on(&Harness::sequential(), &p, AppId::Bfs);
    let par = ablation_design_choices_on(&Harness::new(8), &p, AppId::Bfs);
    assert_eq!(seq, par, "ablation rows must not depend on --jobs");
}

/// Runs the PCC policy with a telemetry recorder and the promotion
/// ledger over two apps, concatenating per-cell results in submission
/// order, and returns every rendered artifact: the metrics registries,
/// the ledger tables, and the ledger JSONL.
fn telemetry_artifacts(jobs: usize) -> (String, String, String) {
    use hpage::sim::{Cell, PolicyChoice, SharedWorkload, Simulation};
    use hpage::telemetry::TelemetryRecorder;

    let p = profile();
    let h = Harness::new(jobs);
    let cells: Vec<Cell> = [AppId::Bfs, AppId::Canneal]
        .iter()
        .map(|&app| {
            let w = h.workload(&p, app);
            let sized = p.clone().sized_for(w.footprint_bytes());
            let sim = Simulation::new(sized.system.clone(), PolicyChoice::pcc_default())
                .with_max_accesses_per_core(400_000)
                .with_ledger();
            Cell::new(
                format!("telemetry/{}", app.name()),
                sim,
                w as SharedWorkload,
            )
        })
        .collect();
    let results = h.run_map(cells, |cell| {
        let mut telem = TelemetryRecorder::new();
        let report = cell.run_recorded(&mut telem);
        if let Some(ledger) = report.ledger.as_ref() {
            telem.ingest_ledger(ledger);
        }
        (telem, report)
    });
    // Submission-order slots make this left-to-right concatenation
    // independent of which worker finished first.
    let mut metrics = String::new();
    let mut tables = String::new();
    let mut jsonl = String::new();
    for (telem, report) in &results {
        metrics.push_str(&telem.metrics_snapshot().render_text());
        let ledger = report.ledger.as_ref().expect("ledger requested");
        tables.push_str(&ledger.render_table());
        jsonl.push_str(&ledger.to_jsonl());
    }
    (metrics, tables, jsonl)
}

#[test]
fn telemetry_metrics_and_ledger_are_identical_at_any_jobs() {
    let seq = telemetry_artifacts(1);
    assert!(seq.0.contains("ledger.prediction_accuracy_ppm"));
    assert!(seq.1.contains("prediction_accuracy:"));
    let par = telemetry_artifacts(8);
    assert_eq!(seq, par, "telemetry artifacts must not depend on --jobs");
}

#[test]
fn telemetry_artifacts_are_identical_across_same_seed_reruns() {
    assert_eq!(
        telemetry_artifacts(8),
        telemetry_artifacts(8),
        "telemetry artifacts must be byte-stable for a fixed seed"
    );
}

#[test]
fn cache_served_workloads_match_fresh_instantiations() {
    let p = profile();
    let cache = WorkloadCache::new();
    for app in [AppId::Bfs, AppId::Canneal] {
        let cached = cache.get_parts(app, Dataset::Kronecker, p.workloads, 0xC0FFEE);
        let fresh = instantiate(app, Dataset::Kronecker, p.workloads, 0xC0FFEE);
        assert_eq!(cached.name(), fresh.name());
        assert_eq!(cached.footprint_bytes(), fresh.footprint_bytes());
        let a: Vec<_> = cached.trace().take(50_000).collect();
        let b: Vec<_> = fresh.trace().take(50_000).collect();
        assert_eq!(a, b, "cached {app:?} trace must equal a fresh build");
    }
    // Second lookup is a hit, not a rebuild.
    let stats = cache.stats();
    assert_eq!(stats.misses, 2);
    let _ = cache.get_parts(AppId::Bfs, Dataset::Kronecker, p.workloads, 0xC0FFEE);
    assert_eq!(cache.stats().hits, 1);
}
