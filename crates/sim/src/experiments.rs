//! Experiment drivers: one function per figure of the paper's
//! evaluation. Each driver decomposes its figure into independent
//! [`Cell`]s, submits them to a [`Harness`] (which may fan them out
//! across a worker pool), and assembles the returned reports — in
//! submission order, so tables are byte-identical at any `--jobs` —
//! into structured rows; `hpage-bench`'s `repro` binary renders them.
//!
//! Every driver takes the harness it runs on (`fig*_on(&Harness,
//! ...)`): the repro binary passes its worker pool, and tests and
//! other one-off callers pass [`Harness::sequential`].

use crate::profile::SimProfile;
use crate::runner::{Cell, Harness, SharedWorkload, EXPERIMENT_SEED as SEED};
use crate::simulation::{PolicyChoice, ProcessSpec, SimReport, Simulation};
use hpage_faults::{FaultKind, FaultPlan, FaultWindow};
use hpage_obs::{Event, Recorder, Tee};
use hpage_os::PromotionBudget;
use hpage_perf::{geomean, UtilityCurve, UtilityPoint};
use hpage_trace::{
    AnyWorkload, AppId, Dataset, Pattern, ReuseAnalyzer, SyntheticBuilder, SyntheticWorkload,
    Workload,
};
use hpage_types::{derive_seed, NestedConfig, PccPlacement, PromotionPolicyKind};
use std::sync::Arc;

fn simulation(profile: &SimProfile, policy: PolicyChoice, footprint: u64) -> Simulation {
    let sized = profile.clone().sized_for(footprint);
    let mut sim = Simulation::new(sized.system, policy);
    if let Some(n) = profile.max_accesses_per_core {
        sim = sim.with_max_accesses_per_core(n);
    }
    sim
}

/// Builds the standard single-process cell of the figure drivers. The
/// fragmentation RNG stream is derived from the experiment seed with a
/// purpose label — never the raw seed, which the workload generators
/// already consume (reusing it would correlate the "random" physical
/// fragmentation with the workload's own layout randomness).
fn cell(
    label: String,
    profile: &SimProfile,
    w: &Arc<AnyWorkload>,
    policy: PolicyChoice,
    frag_pct: u8,
    budget: PromotionBudget,
) -> Cell {
    let mut sim = simulation(profile, policy, w.footprint_bytes()).with_budget(budget);
    if frag_pct > 0 {
        sim = sim.with_fragmentation(frag_pct, derive_seed(SEED, "frag"));
    }
    Cell::new(label, sim, Arc::clone(w) as SharedWorkload)
}

fn budget_for(pct: u64, footprint: u64) -> PromotionBudget {
    if pct >= 100 {
        PromotionBudget::UNLIMITED
    } else {
        PromotionBudget::percent_of_footprint(pct, footprint)
    }
}

// ---------------------------------------------------------------------
// Fig. 1 — page-size potential and Linux THP under fragmentation
// ---------------------------------------------------------------------

/// One application's Fig. 1 measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Application name.
    pub app: String,
    /// Last-level TLB miss rate with 4 KiB pages only.
    pub miss_4k: f64,
    /// Miss rate with everything backed by 2 MiB pages.
    pub miss_2m: f64,
    /// Miss rate under Linux THP with 50%-fragmented memory.
    pub miss_linux: f64,
    /// Speedup of all-2 MiB over the 4 KiB baseline.
    pub speedup_2m: f64,
    /// Speedup of Linux THP (50% frag) over the baseline.
    pub speedup_linux: f64,
}

/// Reproduces Fig. 1 on `h`: TLB miss rate and speedup for 100% 4 KiB
/// pages vs. 100% 2 MiB pages vs. Linux THP with 50% fragmented memory,
/// across the eight evaluation applications.
pub fn fig1_page_sizes_on(h: &Harness, profile: &SimProfile, apps: &[AppId]) -> Vec<Fig1Row> {
    let timing = profile.system.timing;
    let mut cells = Vec::new();
    for &app in apps {
        let w = h.workload(profile, app);
        let name = app.name();
        cells.push(cell(
            format!("fig1/{name}/base-4k"),
            profile,
            &w,
            PolicyChoice::BasePages,
            0,
            PromotionBudget::UNLIMITED,
        ));
        cells.push(cell(
            format!("fig1/{name}/ideal-2m"),
            profile,
            &w,
            PolicyChoice::IdealHuge,
            0,
            PromotionBudget::UNLIMITED,
        ));
        cells.push(cell(
            format!("fig1/{name}/linux-frag50"),
            profile,
            &w,
            PolicyChoice::LinuxThp,
            50,
            PromotionBudget::UNLIMITED,
        ));
    }
    let reports = h.run(cells);
    apps.iter()
        .zip(reports.chunks_exact(3))
        .map(|(&app, chunk)| {
            let (base, ideal, linux) = (&chunk[0], &chunk[1], &chunk[2]);
            Fig1Row {
                app: app.name().to_string(),
                miss_4k: base.aggregate.walk_ratio(),
                miss_2m: ideal.aggregate.walk_ratio(),
                miss_linux: linux.aggregate.walk_ratio(),
                speedup_2m: ideal.speedup_over(base, &timing),
                speedup_linux: linux.speedup_over(base, &timing),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 2 — reuse-distance characterisation
// ---------------------------------------------------------------------

/// Summary of the Fig. 2 reuse-distance scatter for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Summary {
    /// Workload name.
    pub app: String,
    /// 4 KiB pages classified TLB-friendly.
    pub tlb_friendly: u64,
    /// 4 KiB pages classified HUB (the promotion candidates).
    pub hubs: u64,
    /// 4 KiB pages classified low-reuse.
    pub low_reuse: u64,
    /// Number of distinct 2 MiB regions containing HUB pages.
    pub hub_regions: u64,
    /// Sample scatter points `(reuse_4k, reuse_2m)` for HUB pages.
    pub hub_samples: Vec<(f64, f64)>,
}

/// Reproduces Fig. 2 on `h`: classifies every 4 KiB page of a BFS run
/// by its reuse distance at 4 KiB vs. 2 MiB granularity. `max_accesses`
/// bounds the analysis window.
pub fn fig2_reuse_on(
    h: &Harness,
    profile: &SimProfile,
    app: AppId,
    max_accesses: u64,
) -> Fig2Summary {
    let w = h.workload(profile, app);
    let mut analyzer = ReuseAnalyzer::new();
    for access in w.trace().take(max_accesses as usize) {
        analyzer.observe(&access);
    }
    let (tlb_friendly, hubs, low_reuse) = analyzer.class_counts();
    let hub_regions = analyzer.hub_regions().len() as u64;
    let hub_samples: Vec<(f64, f64)> = analyzer
        .profiles()
        .iter()
        .filter(|p| p.class == hpage_trace::ReuseClass::Hub)
        .filter_map(|p| Some((p.reuse_4k?, p.reuse_2m?)))
        .take(32)
        .collect();
    Fig2Summary {
        app: w.name().to_string(),
        tlb_friendly,
        hubs,
        low_reuse,
        hub_regions,
        hub_samples,
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — single-thread utility curves: PCC vs HawkEye vs Linux
// ---------------------------------------------------------------------

/// A `(speedup, walk_ratio)` reference point on a Fig. 5 utility plot.
pub type RefPoint = (f64, f64);

/// Reproduces Fig. 5 on `h` for one application: the speedup / PTW-rate
/// utility curves of the PCC and HawkEye across the footprint sweep,
/// plus the Linux THP (50%/90% fragmented) and max-THP reference
/// points. Returns `(curves, linux50, linux90, ideal)` where the
/// references are [`RefPoint`] `(speedup, walk_ratio)` pairs.
pub fn fig5_utility_on(
    h: &Harness,
    profile: &SimProfile,
    app: AppId,
    sweep: &[u64],
) -> (Vec<UtilityCurve>, RefPoint, RefPoint, RefPoint) {
    let timing = profile.system.timing;
    let w = h.workload(profile, app);
    let footprint = w.footprint_bytes();
    let name = app.name();

    let policies = [
        (PolicyChoice::pcc_default(), "pcc"),
        (PolicyChoice::HawkEye, "hawkeye"),
    ];
    let mut cells = vec![cell(
        format!("fig5/{name}/base-4k"),
        profile,
        &w,
        PolicyChoice::BasePages,
        0,
        PromotionBudget::UNLIMITED,
    )];
    for (policy, label) in &policies {
        for &pct in sweep.iter().filter(|&&pct| pct > 0) {
            cells.push(cell(
                format!("fig5/{name}/{label}-{pct}pct"),
                profile,
                &w,
                policy.clone(),
                0,
                budget_for(pct, footprint),
            ));
        }
    }
    cells.push(cell(
        format!("fig5/{name}/linux-frag50"),
        profile,
        &w,
        PolicyChoice::LinuxThp,
        50,
        PromotionBudget::UNLIMITED,
    ));
    cells.push(cell(
        format!("fig5/{name}/linux-frag90"),
        profile,
        &w,
        PolicyChoice::LinuxThp,
        90,
        PromotionBudget::UNLIMITED,
    ));
    cells.push(cell(
        format!("fig5/{name}/ideal-2m"),
        profile,
        &w,
        PolicyChoice::IdealHuge,
        0,
        PromotionBudget::UNLIMITED,
    ));

    let mut reports = h.run(cells).into_iter();
    let base = reports.next().expect("base cell");
    let mut curves = Vec::new();
    for (_, label) in &policies {
        let mut curve = UtilityCurve::new(app.name(), *label);
        for &pct in sweep {
            let report = if pct == 0 {
                base.clone()
            } else {
                reports.next().expect("sweep cell")
            };
            curve.points.push(UtilityPoint {
                percent: pct,
                speedup: report.speedup_over(&base, &timing),
                walk_ratio: report.aggregate.walk_ratio(),
                huge_pages_used: report.huge_pages_at_end,
            });
        }
        curves.push(curve);
    }
    let linux50 = reports.next().expect("linux50 cell");
    let linux90 = reports.next().expect("linux90 cell");
    let ideal = reports.next().expect("ideal cell");
    let point = |r: &SimReport| (r.speedup_over(&base, &timing), r.aggregate.walk_ratio());
    (curves, point(&linux50), point(&linux90), point(&ideal))
}

// ---------------------------------------------------------------------
// Fig. 6 — PCC size sensitivity
// ---------------------------------------------------------------------

/// One bar of Fig. 6: an application's speedup with a given PCC size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Application name.
    pub app: String,
    /// PCC entry count (0 encodes the no-PCC baseline; `u32::MAX` the
    /// all-huge ideal).
    pub pcc_entries: u32,
    /// Speedup over the 4 KiB baseline.
    pub speedup: f64,
}

/// Reproduces Fig. 6 on `h`: sweeps the PCC size over `sizes` (the
/// paper uses 4..=1024 in powers of two) for each graph application,
/// with the promotion footprint capped at 32% as in the paper.
pub fn fig6_pcc_size_on(
    h: &Harness,
    profile: &SimProfile,
    apps: &[AppId],
    sizes: &[u32],
) -> Vec<Fig6Row> {
    let timing = profile.system.timing;
    let mut cells = Vec::new();
    for &app in apps {
        let w = h.workload(profile, app);
        let footprint = w.footprint_bytes();
        let name = app.name();
        cells.push(cell(
            format!("fig6/{name}/base-4k"),
            profile,
            &w,
            PolicyChoice::BasePages,
            0,
            PromotionBudget::UNLIMITED,
        ));
        for &entries in sizes {
            let mut p = profile.clone();
            p.system.pcc_2m = p.system.pcc_2m.with_entries(entries);
            cells.push(cell(
                format!("fig6/{name}/pcc-{entries}e"),
                &p,
                &w,
                PolicyChoice::pcc_default(),
                0,
                PromotionBudget::percent_of_footprint(32, footprint),
            ));
        }
        cells.push(cell(
            format!("fig6/{name}/ideal-2m"),
            profile,
            &w,
            PolicyChoice::IdealHuge,
            0,
            PromotionBudget::UNLIMITED,
        ));
    }
    let reports = h.run(cells);
    let mut rows = Vec::new();
    for (&app, chunk) in apps.iter().zip(reports.chunks_exact(sizes.len() + 2)) {
        let base = &chunk[0];
        rows.push(Fig6Row {
            app: app.name().to_string(),
            pcc_entries: 0,
            speedup: 1.0,
        });
        for (&entries, report) in sizes.iter().zip(&chunk[1..=sizes.len()]) {
            rows.push(Fig6Row {
                app: app.name().to_string(),
                pcc_entries: entries,
                speedup: report.speedup_over(base, &timing),
            });
        }
        rows.push(Fig6Row {
            app: app.name().to_string(),
            pcc_entries: u32::MAX,
            speedup: chunk[sizes.len() + 1].speedup_over(base, &timing),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 7 — 90% fragmentation comparison (with demotion)
// ---------------------------------------------------------------------

/// One application's Fig. 7 comparison under 90%-fragmented memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Application name.
    pub app: String,
    /// HawkEye speedup over the baseline.
    pub hawkeye: f64,
    /// Linux THP speedup.
    pub linux: f64,
    /// 128-entry PCC speedup.
    pub pcc: f64,
    /// PCC with demotion enabled.
    pub pcc_demote: f64,
}

/// Reproduces Fig. 7 on `h`: baseline/HawkEye/Linux THP/PCC/
/// PCC+demotion with `frag_pct`% fragmented memory (the paper plots
/// 90%; §5.1.1 also reports 50%).
pub fn fig7_fragmentation_on(
    h: &Harness,
    profile: &SimProfile,
    apps: &[AppId],
    frag_pct: u8,
) -> Vec<Fig7Row> {
    let timing = profile.system.timing;
    let mut cells = Vec::new();
    for &app in apps {
        let w = h.workload(profile, app);
        let name = app.name();
        cells.push(cell(
            format!("fig7/{name}/base-4k"),
            profile,
            &w,
            PolicyChoice::BasePages,
            0,
            PromotionBudget::UNLIMITED,
        ));
        for (policy, label) in [
            (PolicyChoice::HawkEye, "hawkeye"),
            (PolicyChoice::LinuxThp, "linux"),
            (PolicyChoice::pcc_default(), "pcc"),
            (
                PolicyChoice::Pcc {
                    selection: PromotionPolicyKind::HighestFrequency,
                    demotion: true,
                    bias: vec![],
                },
                "pcc-demote",
            ),
        ] {
            cells.push(cell(
                format!("fig7/{name}/{label}-frag{frag_pct}"),
                profile,
                &w,
                policy,
                frag_pct,
                PromotionBudget::UNLIMITED,
            ));
        }
    }
    let reports = h.run(cells);
    apps.iter()
        .zip(reports.chunks_exact(5))
        .map(|(&app, chunk)| {
            let base = &chunk[0];
            let speedup = |r: &SimReport| r.speedup_over(base, &timing);
            Fig7Row {
                app: app.name().to_string(),
                hawkeye: speedup(&chunk[1]),
                linux: speedup(&chunk[2]),
                pcc: speedup(&chunk[3]),
                pcc_demote: speedup(&chunk[4]),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 8 — multithread OS selection policies
// ---------------------------------------------------------------------

/// One multithread utility measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Application name.
    pub app: String,
    /// Thread count (one core per thread).
    pub threads: u32,
    /// OS candidate-selection policy.
    pub policy: PromotionPolicyKind,
    /// Utility curve over the footprint sweep.
    pub curve: UtilityCurve,
    /// Speedup with everything huge (the per-thread-count ceiling).
    pub ideal_speedup: f64,
}

const FIG8_POLICIES: [PromotionPolicyKind; 2] = [
    PromotionPolicyKind::HighestFrequency,
    PromotionPolicyKind::RoundRobin,
];

/// Reproduces Fig. 8 on `h`: parallel graph workloads at each thread
/// count, comparing highest-PCC-frequency against round-robin candidate
/// selection across the per-core PCCs.
pub fn fig8_multithread_on(
    h: &Harness,
    profile: &SimProfile,
    apps: &[AppId],
    thread_counts: &[u32],
    sweep: &[u64],
) -> Vec<Fig8Row> {
    let timing = profile.system.timing;
    let mut cells = Vec::new();
    for &app in apps {
        let w = h.workload(profile, app);
        let footprint = w.footprint_bytes();
        let name = app.name();
        for &threads in thread_counts {
            cells.push(Cell::with_threads(
                format!("fig8/{name}/{threads}t/base-4k"),
                simulation(profile, PolicyChoice::BasePages, footprint),
                Arc::clone(&w) as SharedWorkload,
                threads,
            ));
            cells.push(Cell::with_threads(
                format!("fig8/{name}/{threads}t/ideal-2m"),
                simulation(profile, PolicyChoice::IdealHuge, footprint),
                Arc::clone(&w) as SharedWorkload,
                threads,
            ));
            for policy in FIG8_POLICIES {
                for &pct in sweep.iter().filter(|&&pct| pct > 0) {
                    let sim = simulation(
                        profile,
                        PolicyChoice::Pcc {
                            selection: policy,
                            demotion: false,
                            bias: vec![],
                        },
                        footprint,
                    )
                    .with_budget(budget_for(pct, footprint));
                    cells.push(Cell::with_threads(
                        format!("fig8/{name}/{threads}t/{policy}-{pct}pct"),
                        sim,
                        Arc::clone(&w) as SharedWorkload,
                        threads,
                    ));
                }
            }
        }
    }
    let mut reports = h.run(cells).into_iter();
    let mut rows = Vec::new();
    for &app in apps {
        for &threads in thread_counts {
            let base = reports.next().expect("base cell");
            let ideal = reports.next().expect("ideal cell");
            for policy in FIG8_POLICIES {
                let mut curve = UtilityCurve::new(app.name(), policy.to_string());
                for &pct in sweep {
                    let report = if pct == 0 {
                        base.clone()
                    } else {
                        reports.next().expect("sweep cell")
                    };
                    curve.points.push(UtilityPoint {
                        percent: pct,
                        speedup: report.speedup_over(&base, &timing),
                        walk_ratio: report.aggregate.walk_ratio(),
                        huge_pages_used: report.huge_pages_at_end,
                    });
                }
                rows.push(Fig8Row {
                    app: app.name().to_string(),
                    threads,
                    policy,
                    curve,
                    ideal_speedup: ideal.speedup_over(&base, &timing),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 9 — multiprocess studies
// ---------------------------------------------------------------------

/// Configuration of one Fig. 9 case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig9Config {
    /// First application (PR in both of the paper's studies).
    pub app_a: AppId,
    /// Second application (mcf in 9a, SSSP in 9b).
    pub app_b: AppId,
}

/// One multiprocess measurement point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// OS candidate-selection policy.
    pub policy: PromotionPolicyKind,
    /// Percent of the combined footprint backed by huge pages.
    pub percent: u64,
    /// Per-process speedups `(app_a, app_b)`.
    pub speedups: (f64, f64),
    /// Huge pages used by the whole system at this point.
    pub huge_pages: u64,
}

/// Reproduces Fig. 9 on `h`: two single-threaded applications on two
/// cores sharing physical memory, swept over the combined-footprint
/// budget under both OS selection policies. Returns the rows plus the
/// per-process ideal speedups.
pub fn fig9_multiprocess_on(
    h: &Harness,
    profile: &SimProfile,
    config: Fig9Config,
    sweep: &[u64],
) -> (Vec<Fig9Row>, (f64, f64)) {
    let timing = profile.system.timing;
    let wa = h.workload(profile, config.app_a);
    let wb = h.workload(profile, config.app_b);
    let footprint = wa.footprint_bytes() + wb.footprint_bytes();
    let pair = format!("{}+{}", config.app_a.name(), config.app_b.name());
    let procs = || {
        vec![
            (Arc::clone(&wa) as SharedWorkload, 1),
            (Arc::clone(&wb) as SharedWorkload, 1),
        ]
    };

    let mut cells = vec![
        Cell::multiprocess(
            format!("fig9/{pair}/base-4k"),
            simulation(profile, PolicyChoice::BasePages, footprint),
            procs(),
        ),
        Cell::multiprocess(
            format!("fig9/{pair}/ideal-2m"),
            simulation(profile, PolicyChoice::IdealHuge, footprint),
            procs(),
        ),
    ];
    for policy in FIG8_POLICIES {
        for &pct in sweep.iter().filter(|&&pct| pct > 0) {
            let sim = simulation(
                profile,
                PolicyChoice::Pcc {
                    selection: policy,
                    demotion: false,
                    bias: vec![],
                },
                footprint,
            )
            .with_budget(budget_for(pct, footprint));
            cells.push(Cell::multiprocess(
                format!("fig9/{pair}/{policy}-{pct}pct"),
                sim,
                procs(),
            ));
        }
    }

    let mut reports = h.run(cells).into_iter();
    let base = reports.next().expect("base cell");
    let ideal = reports.next().expect("ideal cell");
    let ideal_speedups = (
        ideal.process_speedup_over(&base, 0, &timing),
        ideal.process_speedup_over(&base, 1, &timing),
    );
    let mut rows = Vec::new();
    for policy in FIG8_POLICIES {
        for &pct in sweep {
            let report = if pct == 0 {
                base.clone()
            } else {
                reports.next().expect("sweep cell")
            };
            rows.push(Fig9Row {
                policy,
                percent: pct,
                speedups: (
                    report.process_speedup_over(&base, 0, &timing),
                    report.process_speedup_over(&base, 1, &timing),
                ),
                huge_pages: report.huge_pages_at_end,
            });
        }
    }
    (rows, ideal_speedups)
}

/// Geomean speedup over a set of Fig. 1 rows (convenience for the
/// paper's "geomean 1.3×" summary).
pub fn fig1_geomean_2m(rows: &[Fig1Row]) -> Option<f64> {
    geomean(&rows.iter().map(|r| r.speedup_2m).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------
// Dataset sweep (Table 1's inputs; the paper reports the geomean of
// DBG-sorted and unsorted variants of each network)
// ---------------------------------------------------------------------

/// One (app, dataset, variant) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRow {
    /// Application name.
    pub app: String,
    /// Dataset name.
    pub dataset: String,
    /// Whether the graph was DBG-sorted.
    pub dbg_sorted: bool,
    /// Baseline PTW rate.
    pub base_walk_ratio: f64,
    /// PCC speedup at a 4% footprint budget.
    pub pcc_speedup_4pct: f64,
    /// All-THP ideal speedup.
    pub ideal_speedup: f64,
}

/// Runs the graph kernels across all three Table 1 networks in sorted
/// and unsorted variants (6 datasets per kernel, as in §4) and reports
/// the PCC's 4%-budget speedup against the ideal. Runs on `h`.
pub fn dataset_sweep_on(h: &Harness, profile: &SimProfile, apps: &[AppId]) -> Vec<DatasetRow> {
    let timing = profile.system.timing;
    let mut cells = Vec::new();
    let mut combos = Vec::new();
    for &app in apps {
        for dataset in Dataset::ALL {
            for dbg_sorted in [false, true] {
                let mut scale = profile.workloads;
                scale.dbg_sorted = dbg_sorted;
                let w = h.cache().get_parts(app, dataset, scale, SEED);
                let footprint = w.footprint_bytes();
                let tag = format!(
                    "datasets/{}/{}{}",
                    app.name(),
                    dataset.name(),
                    if dbg_sorted { "-dbg" } else { "" }
                );
                cells.push(cell(
                    format!("{tag}/base-4k"),
                    profile,
                    &w,
                    PolicyChoice::BasePages,
                    0,
                    PromotionBudget::UNLIMITED,
                ));
                cells.push(cell(
                    format!("{tag}/pcc-4pct"),
                    profile,
                    &w,
                    PolicyChoice::pcc_default(),
                    0,
                    PromotionBudget::percent_of_footprint(4, footprint),
                ));
                cells.push(cell(
                    format!("{tag}/ideal-2m"),
                    profile,
                    &w,
                    PolicyChoice::IdealHuge,
                    0,
                    PromotionBudget::UNLIMITED,
                ));
                combos.push((app, dataset, dbg_sorted));
            }
        }
    }
    let reports = h.run(cells);
    combos
        .iter()
        .zip(reports.chunks_exact(3))
        .map(|(&(app, dataset, dbg_sorted), chunk)| {
            let (base, pcc, ideal) = (&chunk[0], &chunk[1], &chunk[2]);
            DatasetRow {
                app: app.name().to_string(),
                dataset: dataset.name().to_string(),
                dbg_sorted,
                base_walk_ratio: base.aggregate.walk_ratio(),
                pcc_speedup_4pct: pcc.speedup_over(base, &timing),
                ideal_speedup: ideal.speedup_over(base, &timing),
            }
        })
        .collect()
}

/// Geomean of the PCC 4%-budget speedups over a set of dataset rows
/// (the paper's per-kernel summary statistic).
pub fn dataset_geomean(rows: &[DatasetRow]) -> Option<f64> {
    geomean(&rows.iter().map(|r| r.pcc_speedup_4pct).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------
// Design-choice ablations (DESIGN.md's ablation targets)
// ---------------------------------------------------------------------

/// One ablation variant's end-to-end quality.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Speedup over the 4 KiB baseline.
    pub speedup: f64,
    /// Residual PTW rate.
    pub walk_ratio: f64,
    /// Promotions performed.
    pub promotions: u64,
}

/// Quantifies the PCC's design choices on one application: the
/// cold-miss access-bit filter, counter decay, the replacement policy,
/// and the §5.4.1 PWC alternative (which shortens walks but promotes
/// nothing). Runs on `h`.
pub fn ablation_design_choices_on(
    h: &Harness,
    profile: &SimProfile,
    app: AppId,
) -> Vec<AblationRow> {
    use hpage_pcc::ReplacementPolicy;
    let timing = profile.system.timing;
    let w = h.workload(profile, app);
    let footprint = w.footprint_bytes();
    let name = app.name();
    let plain = |tag: &str, p: &SimProfile, policy: PolicyChoice| {
        cell(
            format!("ablation/{name}/{tag}"),
            p,
            &w,
            policy,
            0,
            PromotionBudget::UNLIMITED,
        )
    };

    let mut cells = vec![
        plain("base-4k", profile, PolicyChoice::BasePages),
        plain("pcc-paper", profile, PolicyChoice::pcc_default()),
    ];
    // No cold-miss filter.
    let mut p = profile.clone();
    p.system.pcc_2m.access_bit_filter = false;
    cells.push(plain("no-cold-filter", &p, PolicyChoice::pcc_default()));
    // No decay.
    let mut p = profile.clone();
    p.system.pcc_2m.decay_on_saturation = false;
    cells.push(plain("no-decay", &p, PolicyChoice::pcc_default()));
    // Pure LRU replacement.
    cells.push(Cell::new(
        format!("ablation/{name}/pure-lru"),
        simulation(profile, PolicyChoice::pcc_default(), footprint)
            .with_replacement(ReplacementPolicy::Lru),
        Arc::clone(&w) as SharedWorkload,
    ));
    // PWC instead of a PCC: walks get cheaper, misses stay. The PWC
    // geometry scales with the profile's L2 TLB so scaled-down runs see
    // realistic structure-cache pressure (see PwcConfig::scaled_to_tlb).
    let mut pwc = profile.clone();
    pwc.system.pwc = Some(hpage_types::PwcConfig::scaled_to_tlb(
        profile.system.tlb.l2.entries,
    ));
    cells.push(plain("pwc-only", &pwc, PolicyChoice::BasePages));
    // PWC *and* PCC together (complementary, as §5.4.1 concludes).
    cells.push(plain("pwc-plus-pcc", &pwc, PolicyChoice::pcc_default()));
    // §5.4.1's other alternative: an L2-TLB victim cache as the
    // candidate source, small and PCC-sized.
    cells.push(plain(
        "victim-8",
        profile,
        PolicyChoice::VictimCache { entries: 8 },
    ));
    cells.push(plain(
        "victim-128",
        profile,
        PolicyChoice::VictimCache { entries: 128 },
    ));
    // Cache-model cross-check: with a physically-indexed data cache and
    // issue-only base cost, the PCC's relative benefit persists (the
    // timing model's constant-base-cost simplification is not load-
    // bearing for the paper's conclusions).
    let mut cached = profile.clone();
    cached.system.timing = cached.system.timing.with_cache_model();
    for (tag, policy) in [
        ("cached-base", PolicyChoice::BasePages),
        ("cached-pcc", PolicyChoice::pcc_default()),
    ] {
        cells.push(Cell::new(
            format!("ablation/{name}/{tag}"),
            simulation(&cached, policy, footprint)
                .with_cache(hpage_cache::CacheConfig::typical_per_core()),
            Arc::clone(&w) as SharedWorkload,
        ));
    }

    let reports = h.run(cells);
    let base = &reports[0];
    let mut rows = Vec::new();
    let mut push = |label: &str, report: &SimReport| {
        rows.push(AblationRow {
            variant: label.to_string(),
            speedup: report.speedup_over(base, &timing),
            walk_ratio: report.aggregate.walk_ratio(),
            promotions: report.aggregate.promotions,
        });
    };
    push("pcc (paper)", &reports[1]);
    push("no cold-miss filter", &reports[2]);
    push("no counter decay", &reports[3]);
    push("pure-LRU replacement", &reports[4]);
    push("PWC only (no promotion)", &reports[5]);
    push("PWC + PCC", &reports[6]);
    push("victim cache (8 entries)", &reports[7]);
    push("victim cache (128 entries)", &reports[8]);
    let cached_base = &reports[9];
    let cached_pcc = &reports[10];
    rows.push(AblationRow {
        variant: "pcc (with cache model)".to_string(),
        speedup: cached_pcc.speedup_over(cached_base, &cached.system.timing),
        walk_ratio: cached_pcc.aggregate.walk_ratio(),
        promotions: cached_pcc.aggregate.promotions,
    });
    rows
}

// ---------------------------------------------------------------------
// Consolidation — fleet-scale multi-tenant fairness under churn
// ---------------------------------------------------------------------

/// Configuration of a consolidation run: the paper's §5.3 multiprocess
/// study pushed to fleet scale — tens of co-located tenants (one core
/// each) contending for one PCC-driven promotion pipeline while a churn
/// plan fragments memory, storms the TLBs, and resets the PCCs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsolidationConfig {
    /// Number of co-located tenants, one single-threaded process each.
    pub tenants: usize,
    /// Accesses issued by a full-length tenant. Streaming and
    /// pointer-chase tenants run shorter traces and drain early, so the
    /// machine sees deterministic tenant churn, not a fixed population.
    pub accesses_per_tenant: u64,
    /// Worker threads for the sharded simulation loop
    /// ([`Simulation::with_sim_threads`]); results are byte-identical
    /// at any value.
    pub sim_threads: usize,
}

impl ConsolidationConfig {
    /// Sizes a run for `profile`: each full-length tenant covers about
    /// four promotion intervals, capped so paper-scale intervals stay
    /// tractable.
    pub fn for_profile(profile: &SimProfile, tenants: usize, sim_threads: usize) -> Self {
        ConsolidationConfig {
            tenants,
            accesses_per_tenant: profile
                .system
                .promotion_interval_accesses
                .saturating_mul(4)
                .min(1_000_000),
            sim_threads,
        }
    }
}

/// One tenant's outcome in a consolidation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationTenantRow {
    /// Tenant label (`t07-zipf`, ...).
    pub tenant: String,
    /// Workload shape this tenant runs.
    pub mix: &'static str,
    /// Accesses the tenant issued.
    pub accesses: u64,
    /// Huge-page promotions attributed to the tenant.
    pub promotions: u64,
    /// The tenant's residual page-table-walk rate.
    pub walk_ratio: f64,
    /// Page faults (base + huge) the tenant took.
    pub faults: u64,
}

/// Everything measured by one consolidation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationReport {
    /// Tenant count.
    pub tenants: usize,
    /// Worker threads the run used.
    pub sim_threads: usize,
    /// Policy label of the underlying simulation.
    pub policy: String,
    /// Per-tenant outcomes, in tenant order.
    pub rows: Vec<ConsolidationTenantRow>,
    /// Jain's fairness index over per-tenant promotion shares:
    /// `(Σx)² / (n·Σx²)`, 1.0 when every tenant gets the same share,
    /// `1/n` when one tenant monopolizes the promotion budget. Defined
    /// as 1.0 when nothing was promoted at all.
    pub fairness_index: f64,
    /// Total promotions across all tenants.
    pub total_promotions: u64,
    /// Promotion attempts that failed for lack of frames.
    pub promotion_failures: u64,
    /// 2 MiB frames resident at run end.
    pub huge_pages_at_end: u64,
    /// TLB shootdowns broadcast by promotions/demotions.
    pub shootdowns: u64,
    /// Shootdown-storm flushes recorded (one event per core per spiked
    /// interval).
    pub storm_flushes: u64,
    /// Total TLB translations dropped by storm flushes.
    pub storm_entries_flushed: u64,
    /// Largest single-core storm flush.
    pub storm_entries_max: u64,
}

/// The four tenant shapes a consolidation mix cycles through. Footprints
/// and trace lengths differ per shape so the machine sees heterogeneous
/// demand and deterministic churn as short tenants drain.
fn consolidation_tenant(i: usize, accesses: u64) -> (SyntheticWorkload, &'static str, u64) {
    let (mix, mb, count, pattern, writes) = match i % 4 {
        0 => {
            let count = accesses;
            (
                "zipf",
                8u64,
                count,
                Pattern::Zipf {
                    count,
                    exponent: 0.9,
                },
                10,
            )
        }
        1 => {
            let count = accesses * 3 / 4;
            (
                "stream",
                6,
                count,
                Pattern::Sequential { stride: 1, count },
                20,
            )
        }
        2 => {
            let count = accesses;
            ("uniform", 8, count, Pattern::UniformRandom { count }, 0)
        }
        _ => {
            let count = accesses / 2;
            ("chase", 4, count, Pattern::PointerChase { count }, 0)
        }
    };
    let name = format!("t{i:02}-{mix}");
    let seed = derive_seed(SEED, &format!("consolidation/{i}"));
    let mut b = SyntheticBuilder::new(name, seed);
    let arr = b.array(8, (mb << 20) / 8);
    b.phase(arr, pattern, writes);
    (b.build(), mix, count)
}

/// The churn plan of a consolidation run, spread over `intervals`:
/// a fragmentation shock at 1/4, a shootdown spike at 1/2, a compaction
/// stall at 5/8, a PCC reset at 3/4, and a second spike at 7/8.
fn consolidation_churn(intervals: u64) -> FaultPlan {
    let at = |num: u64, den: u64| (intervals * num / den).max(1);
    let w = |kind, num, den, duration| FaultWindow {
        kind,
        at: at(num, den),
        duration,
    };
    FaultPlan::new(
        "consolidation-churn",
        vec![
            w(
                FaultKind::FragmentationShock {
                    percent: 40,
                    seed: derive_seed(SEED, "consolidation-shock"),
                },
                1,
                4,
                1,
            ),
            w(FaultKind::ShootdownSpike, 1, 2, 1),
            w(FaultKind::CompactionStall, 5, 8, 2),
            w(FaultKind::PccReset, 3, 4, 1),
            w(FaultKind::ShootdownSpike, 7, 8, 1),
        ],
    )
    .expect("static plan is valid")
}

/// Runs the consolidation scenario: `cfg.tenants` mixed synthetic
/// tenants under the PCC policy and the churn plan, sharded across
/// `cfg.sim_threads` workers. Events stream to `recorder` (pass a
/// telemetry recorder for counters/histograms, or
/// [`hpage_obs::NullRecorder`]); storm metrics and the Jain fairness
/// index over per-tenant promotion shares are computed here either way.
pub fn consolidation_on<R: Recorder>(
    profile: &SimProfile,
    cfg: &ConsolidationConfig,
    recorder: &mut R,
) -> ConsolidationReport {
    assert!(cfg.tenants >= 2, "consolidation needs at least two tenants");
    let tenants: Vec<(SyntheticWorkload, &'static str, u64)> = (0..cfg.tenants)
        .map(|i| consolidation_tenant(i, cfg.accesses_per_tenant))
        .collect();
    let footprint: u64 = tenants.iter().map(|(w, _, _)| w.footprint_bytes()).sum();
    let total: u64 = tenants.iter().map(|&(_, _, n)| n).sum();
    let sized = profile.clone().sized_for(footprint);
    let intervals = total / sized.system.promotion_interval_accesses;
    let sim = Simulation::new(sized.system, PolicyChoice::pcc_default())
        .with_faults(consolidation_churn(intervals))
        .with_sim_threads(cfg.sim_threads);
    let specs: Vec<ProcessSpec<'_>> = tenants
        .iter()
        .map(|(w, _, _)| ProcessSpec::new(w as &dyn Workload))
        .collect();

    let mut storms = StormTally::default();
    let report = sim
        .try_run_recorded(&specs, &mut Tee(recorder, &mut storms))
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));

    let rows: Vec<ConsolidationTenantRow> = tenants
        .iter()
        .zip(&report.per_process)
        .map(|((w, mix, _), c)| ConsolidationTenantRow {
            tenant: w.name().to_string(),
            mix,
            accesses: c.accesses,
            promotions: c.promotions,
            walk_ratio: c.walk_ratio(),
            faults: c.faults_base + c.faults_huge,
        })
        .collect();
    let sum: f64 = rows.iter().map(|r| r.promotions as f64).sum();
    let sum_sq: f64 = rows.iter().map(|r| (r.promotions as f64).powi(2)).sum();
    let fairness_index = if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (rows.len() as f64 * sum_sq)
    };
    ConsolidationReport {
        tenants: cfg.tenants,
        sim_threads: cfg.sim_threads,
        policy: report.policy.clone(),
        rows,
        fairness_index,
        total_promotions: report.aggregate.promotions,
        promotion_failures: report.promotion_failures,
        huge_pages_at_end: report.huge_pages_at_end,
        shootdowns: report.aggregate.shootdowns,
        storm_flushes: storms.flushes,
        storm_entries_flushed: storms.entries_flushed,
        storm_entries_max: storms.entries_max,
    }
}

/// Counts `ShootdownStorm` events and drops everything else. It stays
/// disabled: the engine records storms whether or not a recorder is
/// enabled, so teeing it in neither buffers the run's events nor turns
/// on per-access recording.
#[derive(Default)]
struct StormTally {
    flushes: u64,
    entries_flushed: u64,
    entries_max: u64,
}

impl Recorder for StormTally {
    fn record(&mut self, _at: u64, event: Event) {
        if let Event::ShootdownStorm {
            entries_flushed, ..
        } = event
        {
            self.flushes += 1;
            self.entries_flushed += entries_flushed;
            self.entries_max = self.entries_max.max(entries_flushed);
        }
    }
}

// ---------------------------------------------------------------------
// Nested (2D) virtualization: the PCC-placement ablation
// ---------------------------------------------------------------------

/// Sizing knobs for the virtualization ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtConfig {
    /// Accesses issued by a full-length VM (short-trace shapes drain
    /// earlier, mirroring the consolidation mix).
    pub accesses_per_vm: u64,
    /// Worker threads for the sharded simulation loop; results are
    /// byte-identical at any value.
    pub sim_threads: usize,
}

impl VirtConfig {
    /// Sizes a run for `profile`: each full-length VM covers about four
    /// promotion intervals, capped so paper-scale intervals stay
    /// tractable.
    pub fn for_profile(profile: &SimProfile, sim_threads: usize) -> Self {
        VirtConfig {
            accesses_per_vm: profile
                .system
                .promotion_interval_accesses
                .saturating_mul(4)
                .min(1_000_000),
            sim_threads,
        }
    }
}

/// One VM's outcome under one PCC placement.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtVmRow {
    /// VM label (`vm0-zipf`, ...).
    pub vm: String,
    /// Workload shape this VM runs.
    pub mix: &'static str,
    /// Which dimension(s) ran a PCC-guided promotion policy.
    pub placement: PccPlacement,
    /// Mean effective references per 2D walk (1 ≤ mean ≤ 24).
    pub mean_refs: f64,
    /// The VM's residual page-table-walk rate.
    pub walk_ratio: f64,
    /// 2D page-table references per memory access
    /// (`walk_ratio · mean_refs`) — the walk-cost metric the ablation
    /// compares on. Guest promotion lowers it by eliminating walks,
    /// host promotion by cheapening the walks that remain; per-walk
    /// means alone would punish guest reach for leaving only the
    /// expensive cold tail behind.
    pub refs_per_access: f64,
    /// Guest-dimension promotions attributed to the VM.
    pub promotions: u64,
    /// Host-dimension promotions performed for the VM.
    pub host_promotions: u64,
}

/// One placement's summary over all VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtPlacementRow {
    /// Which dimension(s) ran a PCC-guided promotion policy.
    pub placement: PccPlacement,
    /// Geomean of the per-VM mean references per walk.
    pub geomean_refs: f64,
    /// Geomean of the per-VM [`VirtVmRow::refs_per_access`] — the
    /// ablation's headline walk-cost number (lower is better).
    pub geomean_cost: f64,
    /// Policy label of the underlying simulation (carries the
    /// `+nested-<placement>` suffix).
    pub policy: String,
    /// Guest-dimension promotions summed over the VMs.
    pub guest_promotions: u64,
    /// Host-dimension promotions summed over the VMs.
    pub host_promotions: u64,
    /// Nested-TLB/host-structure shootdowns from host promotions.
    pub host_shootdowns: u64,
}

/// Everything measured by the virtualization ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtReport {
    /// Shard count every placement's simulation ran with.
    pub sim_threads: usize,
    /// Per-(placement, VM) outcomes: placements in [`PccPlacement::ALL`]
    /// order, VMs in pid order within each.
    pub vm_rows: Vec<VirtVmRow>,
    /// Placement summaries, in [`PccPlacement::ALL`] order.
    pub placements: Vec<VirtPlacementRow>,
}

impl VirtReport {
    /// The placement summary for `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the report does not contain the placement (it always
    /// contains all of [`PccPlacement::ALL`]).
    pub fn placement(&self, placement: PccPlacement) -> &VirtPlacementRow {
        self.placements
            .iter()
            .find(|r| r.placement == placement)
            .expect("report covers every placement")
    }
}

/// The four VM shapes of the virtualization mix — the consolidation
/// shapes, reseeded on an independent `virt/` purpose stream so the two
/// scenarios' layouts never correlate.
fn virt_vm(i: usize, accesses: u64) -> (SyntheticWorkload, &'static str) {
    let (mix, mb, pattern, writes) = match i % 4 {
        0 => (
            "zipf",
            8u64,
            Pattern::Zipf {
                count: accesses,
                exponent: 0.9,
            },
            10,
        ),
        1 => (
            "stream",
            6,
            Pattern::Sequential {
                stride: 1,
                count: accesses * 3 / 4,
            },
            20,
        ),
        2 => ("uniform", 8, Pattern::UniformRandom { count: accesses }, 0),
        _ => (
            "chase",
            4,
            Pattern::PointerChase {
                count: accesses / 2,
            },
            0,
        ),
    };
    let name = format!("vm{i}-{mix}");
    let seed = derive_seed(SEED, &format!("virt/{i}"));
    let mut b = SyntheticBuilder::new(name, seed);
    let arr = b.array(8, (mb << 20) / 8);
    b.phase(arr, pattern, writes);
    (b.build(), mix)
}

/// Runs the virtualization ablation: four mixed VMs co-located under
/// nested (2D) translation, once per PCC placement (`guest`, `host`,
/// `both`, `none`). The guest dimension runs the paper's PCC policy
/// when the placement enables it (base pages otherwise); the host
/// dimension is driven entirely by the placement. One cell per
/// placement goes to `h`, and rows assemble in submission order, so the
/// table is byte-identical at any `--jobs` and any `--sim-threads`.
pub fn virt_on(h: &Harness, profile: &SimProfile, cfg: &VirtConfig) -> VirtReport {
    let vms: Vec<(SyntheticWorkload, &'static str)> =
        (0..4).map(|i| virt_vm(i, cfg.accesses_per_vm)).collect();
    let footprint: u64 = vms.iter().map(|(w, _)| w.footprint_bytes()).sum();
    let shared: Vec<SharedWorkload> = vms
        .iter()
        .map(|(w, _)| Arc::new(w.clone()) as SharedWorkload)
        .collect();
    let cells: Vec<Cell> = PccPlacement::ALL
        .iter()
        .map(|&placement| {
            let guest_policy = if placement.guest_enabled() {
                PolicyChoice::pcc_default()
            } else {
                PolicyChoice::BasePages
            };
            let sim = simulation(profile, guest_policy, footprint)
                .with_nested(NestedConfig::typical().with_placement(placement))
                .with_sim_threads(cfg.sim_threads);
            Cell::multiprocess(
                format!("virt/4vm/{placement}"),
                sim,
                shared.iter().map(|w| (Arc::clone(w), 1)).collect(),
            )
        })
        .collect();
    let reports = h.run(cells);

    let mut vm_rows = Vec::new();
    let mut placements = Vec::new();
    for (&placement, report) in PccPlacement::ALL.iter().zip(&reports) {
        let mut means = Vec::new();
        let mut costs = Vec::new();
        for ((w, mix), c) in vms.iter().zip(&report.per_process) {
            let mean_refs = c.walk_levels as f64 / c.walks.max(1) as f64;
            let refs_per_access = c.walk_ratio() * mean_refs;
            means.push(mean_refs);
            costs.push(refs_per_access);
            vm_rows.push(VirtVmRow {
                vm: w.name().to_string(),
                mix,
                placement,
                mean_refs,
                walk_ratio: c.walk_ratio(),
                refs_per_access,
                promotions: c.promotions,
                host_promotions: c.host_promotions,
            });
        }
        placements.push(VirtPlacementRow {
            placement,
            geomean_refs: geomean(&means).expect("four VMs, all walking"),
            geomean_cost: geomean(&costs).expect("four VMs, all walking"),
            policy: report.policy.clone(),
            guest_promotions: report.aggregate.promotions,
            host_promotions: report.aggregate.host_promotions,
            host_shootdowns: report.aggregate.host_shootdowns,
        });
    }
    VirtReport {
        sim_threads: cfg.sim_threads,
        vm_rows,
        placements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::ProcessSpec;

    fn profile() -> SimProfile {
        let mut p = SimProfile::test();
        p.max_accesses_per_core = Some(1_500_000);
        p
    }

    #[test]
    fn virt_ablation_both_beats_single_placements() {
        // The FHPM conclusion the ablation reproduces: PCCs in both
        // dimensions beat either dimension alone on geomean 2D walk
        // cost, and every placement beats running none.
        let p = profile();
        let cfg = VirtConfig::for_profile(&p, 1);
        let r = virt_on(&Harness::sequential(), &p, &cfg);
        assert_eq!(r.vm_rows.len(), 16, "4 placements x 4 VMs");
        for row in &r.vm_rows {
            assert!(
                (1.0..=24.0).contains(&row.mean_refs),
                "{}/{}: mean 2D references {} out of range",
                row.placement,
                row.vm,
                row.mean_refs
            );
        }
        let both = r.placement(PccPlacement::Both);
        let guest = r.placement(PccPlacement::Guest);
        let host = r.placement(PccPlacement::Host);
        let none = r.placement(PccPlacement::None);
        assert!(
            both.geomean_cost < guest.geomean_cost,
            "both ({:.4}) must beat guest-only ({:.4})",
            both.geomean_cost,
            guest.geomean_cost
        );
        assert!(
            both.geomean_cost < host.geomean_cost,
            "both ({:.4}) must beat host-only ({:.4})",
            both.geomean_cost,
            host.geomean_cost
        );
        assert!(guest.geomean_cost < none.geomean_cost);
        assert!(host.geomean_cost < none.geomean_cost);
        // Host promotion cheapens the walks that remain; per-walk means
        // capture that dimension alone.
        assert!(host.geomean_refs < none.geomean_refs);
        // Placement gates each dimension's promotion engine.
        assert!(both.guest_promotions > 0 && both.host_promotions > 0);
        assert!(guest.host_promotions == 0 && guest.guest_promotions > 0);
        assert!(host.guest_promotions == 0 && host.host_promotions > 0);
        assert!(none.guest_promotions == 0 && none.host_promotions == 0);
        assert!(both.policy.ends_with("+nested-both"));
        // And the ablation reproduces byte-for-byte across both axes of
        // parallelism: the harness job pool and the sharded sim loop.
        let par = virt_on(&Harness::new(8), &p, &cfg);
        assert_eq!(r, par, "virt rows must not depend on --jobs");
        let sharded = virt_on(
            &Harness::sequential(),
            &p,
            &VirtConfig {
                sim_threads: 8,
                ..cfg
            },
        );
        assert_eq!(r.vm_rows, sharded.vm_rows, "--sim-threads changes nothing");
        assert_eq!(
            r.placements
                .iter()
                .map(|row| (row.placement, row.geomean_cost, row.policy.clone()))
                .collect::<Vec<_>>(),
            sharded
                .placements
                .iter()
                .map(|row| (row.placement, row.geomean_cost, row.policy.clone()))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn pwc_mean_references_lands_in_paper_band_on_fig1_suite() {
        // §5.4.1 audit: averaged over the fig1 suite, a PWC sized in
        // proportion to the profile's TLB references 1.1–1.4 page-table
        // levels per walk — the band the paper quotes for effective
        // PWCs. (A full-size PWC against scaled-down footprints
        // degenerates to a perfect oracle: every app pins at ~1.0.)
        let base = profile();
        let mut means = Vec::new();
        for app in AppId::ALL {
            let w = hpage_trace::instantiate(app, Dataset::Kronecker, base.workloads, 0xC0FFEE);
            let mut p = base.clone().sized_for(w.footprint_bytes());
            p.system.pwc = Some(hpage_types::PwcConfig::scaled_to_tlb(
                p.system.tlb.l2.entries,
            ));
            let r = Simulation::new(p.system.clone(), PolicyChoice::BasePages)
                .with_max_accesses_per_core(1_000_000)
                .run(&[ProcessSpec::new(&w)]);
            assert!(r.aggregate.walks > 0, "{app:?} produced no walks");
            means.push(r.aggregate.walk_levels as f64 / r.aggregate.walks as f64);
        }
        let suite_mean = means.iter().sum::<f64>() / means.len() as f64;
        assert!(
            (1.1..=1.4).contains(&suite_mean),
            "fig1-suite mean references {suite_mean:.3} outside paper band (per-app: {means:?})"
        );
    }

    #[test]
    fn fig1_shapes_hold_for_extremes() {
        let rows = fig1_page_sizes_on(
            &Harness::sequential(),
            &profile(),
            &[AppId::Canneal, AppId::Dedup],
        );
        assert_eq!(rows.len(), 2);
        let canneal = &rows[0];
        let dedup = &rows[1];
        // canneal (random over 96MB) is TLB-hostile; 2MB pages help a lot.
        assert!(
            canneal.miss_4k > 0.05,
            "canneal miss {:.3}",
            canneal.miss_4k
        );
        assert!(canneal.miss_2m < canneal.miss_4k / 2.0);
        assert!(canneal.speedup_2m > 1.1);
        // dedup is TLB-friendly; huge pages change little.
        assert!(dedup.miss_4k < 0.02, "dedup miss {:.3}", dedup.miss_4k);
        assert!(dedup.speedup_2m < canneal.speedup_2m);
    }

    #[test]
    fn fig2_bfs_finds_hubs() {
        let s = fig2_reuse_on(&Harness::sequential(), &profile(), AppId::Bfs, 300_000);
        assert!(s.tlb_friendly + s.hubs + s.low_reuse > 0);
        assert!(s.app.starts_with("BFS"));
    }

    #[test]
    fn fig5_pcc_beats_hawkeye_and_curve_rises() {
        let (curves, linux50, _linux90, ideal) = fig5_utility_on(
            &Harness::sequential(),
            &profile(),
            AppId::Canneal,
            &[0, 8, 100],
        );
        let pcc = &curves[0];
        let hawkeye = &curves[1];
        assert_eq!(pcc.policy, "pcc");
        // Curves start at 1.0 and rise.
        assert!((pcc.speedup_at(0).unwrap() - 1.0).abs() < 1e-9);
        assert!(pcc.speedup_at(100).unwrap() > 1.05);
        // PCC at the full sweep is at least as good as HawkEye (it
        // promotes far more candidates per interval).
        assert!(
            pcc.speedup_at(8).unwrap() >= hawkeye.speedup_at(8).unwrap() - 0.02,
            "pcc {:?} vs hawkeye {:?}",
            pcc.speedup_at(8),
            hawkeye.speedup_at(8)
        );
        // Ideal bounds everything (within noise of promotion overheads).
        assert!(ideal.0 >= pcc.speedup_at(100).unwrap() - 0.05);
        // Linux at 50% fragmentation is below ideal.
        assert!(linux50.0 <= ideal.0 + 1e-9);
    }

    #[test]
    fn fig6_more_entries_never_much_worse() {
        let rows = fig6_pcc_size_on(
            &Harness::sequential(),
            &profile(),
            &[AppId::Canneal],
            &[4, 64],
        );
        // rows: baseline(0), 4, 64, ideal(MAX)
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].pcc_entries, 0);
        let s4 = rows[1].speedup;
        let s64 = rows[2].speedup;
        assert!(s64 >= s4 - 0.03, "64-entry {s64} vs 4-entry {s4}");
        assert_eq!(rows[3].pcc_entries, u32::MAX);
    }

    #[test]
    fn fig7_pcc_beats_linux_under_fragmentation() {
        // omnetpp's Zipf skew is where candidate *selection* matters:
        // with only 10% of blocks huge-capable, promoting the hot head
        // beats Linux's first-touch greed.
        let rows = fig7_fragmentation_on(&Harness::sequential(), &profile(), &[AppId::Omnetpp], 90);
        let r = &rows[0];
        assert!(
            r.pcc >= r.linux - 0.01,
            "pcc {:.3} should beat linux {:.3} at 90% frag",
            r.pcc,
            r.linux
        );
        // At test scale both scanners cover the whole (small) footprint,
        // so PCC vs HawkEye is within noise here; the strict ordering the
        // paper reports emerges at bench scale, where HawkEye's 4096-page
        // scan budget starves it (asserted in the repro harness).
        assert!(
            r.pcc >= r.hawkeye - 0.05,
            "pcc {:.3} vs hawkeye {:.3}",
            r.pcc,
            r.hawkeye
        );
        assert!(r.pcc_demote >= r.pcc - 0.05);
    }

    #[test]
    fn fig8_runs_both_policies() {
        let rows = fig8_multithread_on(
            &Harness::sequential(),
            &profile(),
            &[AppId::Canneal],
            &[2],
            &[0, 8],
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 2);
        assert!(rows[0].ideal_speedup >= 1.0);
        assert_ne!(rows[0].policy, rows[1].policy);
        for r in &rows {
            assert!(r.curve.speedup_at(8).unwrap() >= 0.95);
        }
    }

    #[test]
    fn fig9_tlb_sensitive_process_gains_more() {
        let cfg = Fig9Config {
            app_a: AppId::Omnetpp, // TLB-hostile
            app_b: AppId::Dedup,   // TLB-friendly
        };
        let (rows, ideal) =
            fig9_multiprocess_on(&Harness::sequential(), &profile(), cfg, &[0, 100]);
        assert_eq!(rows.len(), 4);
        // At the full sweep under highest-frequency, omnetpp speeds up
        // while dedup stays roughly flat (the paper's mcf analogue).
        let hf_full = rows
            .iter()
            .find(|r| r.policy == PromotionPolicyKind::HighestFrequency && r.percent == 100)
            .unwrap();
        assert!(hf_full.speedups.0 > 1.03, "omnetpp {:?}", hf_full.speedups);
        assert!(
            (hf_full.speedups.1 - 1.0).abs() < 0.08,
            "dedup {:?}",
            hf_full.speedups
        );
        assert!(ideal.0 > ideal.1);
        assert!(hf_full.huge_pages > 0);
    }

    #[test]
    fn dataset_sweep_covers_variants() {
        let mut p = profile();
        p.max_accesses_per_core = Some(300_000);
        p.workloads.graph_scale = 12;
        let rows = dataset_sweep_on(&Harness::sequential(), &p, &[AppId::Bfs]);
        assert_eq!(rows.len(), 6); // 3 datasets x {sorted, unsorted}
        assert!(rows.iter().any(|r| r.dbg_sorted));
        assert!(rows.iter().any(|r| r.dataset == "Twitter"));
        let g = dataset_geomean(&rows).unwrap();
        assert!(g > 0.5 && g < 10.0);
    }

    #[test]
    fn ablation_rows_cover_variants() {
        let rows = ablation_design_choices_on(&Harness::sequential(), &profile(), AppId::Omnetpp);
        assert_eq!(rows.len(), 9);
        let cached = rows
            .iter()
            .find(|r| r.variant == "pcc (with cache model)")
            .unwrap();
        assert!(
            cached.speedup > 1.0,
            "PCC benefit persists under the cache model"
        );
        let get = |name: &str| rows.iter().find(|r| r.variant == name).unwrap();
        let paper = get("pcc (paper)");
        assert!(paper.speedup > 1.0);
        // PWC alone promotes nothing but still helps via cheaper walks.
        let pwc = get("PWC only (no promotion)");
        assert_eq!(pwc.promotions, 0);
        assert!(pwc.speedup > 1.0);
        assert!((pwc.walk_ratio - rows[0].walk_ratio).abs() < 1.0); // defined
                                                                    // PWC+PCC is at least as good as PWC alone.
        let both = get("PWC + PCC");
        assert!(both.speedup >= pwc.speedup - 0.02);
        // LFU/LRU near-equivalence (the paper's §3.2.1 claim).
        let lru = get("pure-LRU replacement");
        assert!((lru.speedup - paper.speedup).abs() < 0.25);
    }

    #[test]
    fn fig1_geomean_helper() {
        let rows = vec![
            Fig1Row {
                app: "a".into(),
                miss_4k: 0.2,
                miss_2m: 0.05,
                miss_linux: 0.15,
                speedup_2m: 2.0,
                speedup_linux: 1.1,
            },
            Fig1Row {
                app: "b".into(),
                miss_4k: 0.1,
                miss_2m: 0.02,
                miss_linux: 0.08,
                speedup_2m: 1.0,
                speedup_linux: 1.0,
            },
        ];
        let g = fig1_geomean_2m(&rows).unwrap();
        assert!((g - (2.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn consolidation_fleet_is_fair_and_deterministic() {
        // The ISSUE's acceptance bar: a ≥32-tenant consolidation run
        // completes under churn and yields PCC-fairness and
        // shootdown-storm metrics — byte-identically at any
        // `--sim-threads`.
        let cfg = ConsolidationConfig {
            tenants: 32,
            accesses_per_tenant: 40_000,
            sim_threads: 4,
        };
        let p = SimProfile::test();
        let mut rec = hpage_obs::NullRecorder;
        let r = consolidation_on(&p, &cfg, &mut rec);
        assert_eq!(r.rows.len(), 32);
        assert!(r.rows.iter().all(|row| row.accesses > 0));
        // All four mixes present, and mixes drain at their own lengths
        // (stream = 3/4, chase = 1/2 of a full-length tenant).
        for (mix, frac) in [
            ("zipf", 1.0),
            ("stream", 0.75),
            ("uniform", 1.0),
            ("chase", 0.5),
        ] {
            let row = r.rows.iter().find(|row| row.mix == mix).unwrap();
            assert_eq!(row.accesses, (cfg.accesses_per_tenant as f64 * frac) as u64);
        }
        assert!(r.total_promotions > 0, "the fleet must promote something");
        assert!(
            r.fairness_index > 0.0 && r.fairness_index <= 1.0 + 1e-12,
            "Jain index out of range: {}",
            r.fairness_index
        );
        // Two shootdown-spike windows, one storm flush per core each.
        assert!(
            r.storm_flushes >= 32 && r.storm_flushes.is_multiple_of(32),
            "storms: {}",
            r.storm_flushes
        );
        assert!(r.storm_entries_flushed > 0);
        assert!(r.storm_entries_max <= r.storm_entries_flushed);
        // Sequential re-run is bit-equal (the sharded-loop contract).
        let seq = consolidation_on(
            &p,
            &ConsolidationConfig {
                sim_threads: 1,
                ..cfg
            },
            &mut rec,
        );
        assert_eq!(
            ConsolidationReport {
                sim_threads: 4,
                ..seq
            },
            r
        );
    }

    #[test]
    fn storm_tally_matches_a_memory_recorder() {
        let p = SimProfile::test();
        let cfg = ConsolidationConfig::for_profile(&p, 2, 2);
        let mut events = hpage_obs::MemoryRecorder::new();
        let recorded = consolidation_on(&p, &cfg, &mut events);
        let storms: Vec<u64> = events
            .events()
            .iter()
            .filter_map(|&(_, ev)| match ev {
                Event::ShootdownStorm {
                    entries_flushed, ..
                } => Some(entries_flushed),
                _ => None,
            })
            .collect();
        assert!(!storms.is_empty(), "the churn plan storms the TLBs");
        assert_eq!(recorded.storm_flushes, storms.len() as u64);
        assert_eq!(recorded.storm_entries_flushed, storms.iter().sum::<u64>());
        assert_eq!(recorded.storm_entries_max, *storms.iter().max().unwrap());
        // Without an enabled recorder the tally still sees every storm,
        // and the run is the same.
        let unrecorded = consolidation_on(&p, &cfg, &mut hpage_obs::NullRecorder);
        assert_eq!(unrecorded, recorded);
    }

    #[test]
    fn frag_seed_is_derived_not_aliased() {
        // Regression: `run_single` used to pass the raw experiment seed
        // to `with_fragmentation`, aliasing the fragmentation RNG stream
        // with the workload generators'. The derived stream must differ
        // from the raw seed while runs stay deterministic.
        let frag_seed = derive_seed(SEED, "frag");
        assert_ne!(frag_seed, SEED);
        let p = profile();
        let h = Harness::sequential();
        let w = h.workload(&p, AppId::Canneal);
        let run = |seed: u64| {
            simulation(&p, PolicyChoice::LinuxThp, w.footprint_bytes())
                .with_fragmentation(50, seed)
                .run(&[ProcessSpec::new(w.as_ref())])
        };
        let derived = run(frag_seed);
        assert_eq!(derived, run(frag_seed), "fixed seeds stay deterministic");
        assert_ne!(
            derived,
            run(SEED),
            "de-aliased fragmentation must sample a different layout"
        );
    }
}
