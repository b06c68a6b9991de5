//! Shared harness for the `repro` binary: profile selection and table
//! rendering for every figure/table of the paper's evaluation.
//!
//! Every renderer that runs simulations takes a [`Harness`] and submits
//! its cells through it, so the `repro` binary can fan the whole grid
//! out across `--jobs` workers while the rendered tables stay
//! byte-identical to a sequential run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use hpage_perf::{ascii_plot, fmt_pct, fmt_speedup, geomean_positive, TextTable};
use hpage_sim::{
    ablation_design_choices_on, dataset_sweep_on, fig1_page_sizes_on, fig2_reuse_on,
    fig5_utility_on, fig6_pcc_size_on, fig7_fragmentation_on, fig8_multithread_on,
    fig9_multiprocess_on, Cell, Fig9Config, Harness, PolicyChoice, SimProfile, Simulation,
};
use hpage_trace::{paper_table1, AppId, RmatParams};

/// Why the environment names no valid profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// `HPAGE_PROFILE` is not `test`, `scaled` or `paper`.
    Profile(String),
    /// `HPAGE_SCALE` is not an integer in `1..=RmatParams::MAX_SCALE`.
    Scale(String),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Profile(v) => {
                write!(f, "HPAGE_PROFILE must be test, scaled or paper, got {v:?}")
            }
            ProfileError::Scale(v) => write!(
                f,
                "HPAGE_SCALE must be an integer in 1..={}, got {v:?}",
                RmatParams::MAX_SCALE
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Resolves the experiment profile from the environment:
/// `HPAGE_PROFILE=test|scaled|paper` (default `scaled`) and
/// `HPAGE_SCALE=<log2 vertices>` in `1..=RmatParams::MAX_SCALE` to
/// override the graph scale. A variable that is unset or empty takes
/// its default; any other value outside those is an error.
pub fn profile_from_env() -> Result<SimProfile, ProfileError> {
    let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let mut profile = match var("HPAGE_PROFILE").as_deref() {
        None | Some("" | "scaled") => SimProfile::scaled(),
        Some("test") => SimProfile::test(),
        Some("paper") => SimProfile::paper(),
        Some(other) => return Err(ProfileError::Profile(other.to_string())),
    };
    if let Some(scale) = var("HPAGE_SCALE").filter(|s| !s.is_empty()) {
        let n = scale
            .parse::<u32>()
            .ok()
            .filter(|n| (1..=RmatParams::MAX_SCALE).contains(n))
            .ok_or(ProfileError::Scale(scale))?;
        profile = profile.with_graph_scale(n);
    }
    Ok(profile)
}

/// Renders a geomean summary line, excluding (and reporting) any
/// non-positive values instead of blanking the whole line — one
/// degenerate speedup used to erase the figure's summary row entirely.
/// Exclusions are also logged as harness warnings.
fn geomean_line(h: &Harness, what: &str, values: &[f64]) -> String {
    let s = geomean_positive(values);
    if s.is_partial() {
        h.log().warn(format!(
            "{what}: {} non-positive value(s) excluded from geomean",
            s.excluded
        ));
    }
    match s.value {
        Some(g) if !s.is_partial() => format!("{what}: {}", fmt_speedup(g)),
        Some(g) => format!(
            "{what}: {} ({} non-positive value(s) excluded)",
            fmt_speedup(g),
            s.excluded
        ),
        None => format!(
            "{what}: n/a ({} non-positive value(s) excluded)",
            s.excluded
        ),
    }
}

/// Renders Fig. 1 (page-size potential) as a table.
pub fn render_fig1(h: &Harness, profile: &SimProfile, apps: &[AppId]) -> String {
    let rows = fig1_page_sizes_on(h, profile, apps);
    let mut t = TextTable::new([
        "app",
        "TLB miss% (4KB)",
        "TLB miss% (2MB)",
        "TLB miss% (THP@50%frag)",
        "speedup (2MB)",
        "speedup (THP@50%frag)",
    ]);
    for r in &rows {
        t.row([
            r.app.clone(),
            fmt_pct(r.miss_4k),
            fmt_pct(r.miss_2m),
            fmt_pct(r.miss_linux),
            fmt_speedup(r.speedup_2m),
            fmt_speedup(r.speedup_linux),
        ]);
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup_2m).collect();
    let geo = geomean_line(h, "geomean 2MB speedup", &speedups);
    format!("Fig. 1 — page size potential vs Linux THP under fragmentation\n{t}\n{geo}\n")
}

/// Renders Fig. 2 (reuse-distance classes) as a table.
pub fn render_fig2(h: &Harness, profile: &SimProfile, app: AppId, window: u64) -> String {
    let s = fig2_reuse_on(h, profile, app, window);
    let mut t = TextTable::new(["class", "4KB pages", "share"]);
    let total = (s.tlb_friendly + s.hubs + s.low_reuse).max(1);
    for (name, n) in [
        ("TLB-friendly", s.tlb_friendly),
        ("HUB (promotion candidates)", s.hubs),
        ("low-reuse", s.low_reuse),
    ] {
        t.row([
            name.to_string(),
            n.to_string(),
            fmt_pct(n as f64 / total as f64),
        ]);
    }
    format!(
        "Fig. 2 — page reuse-distance classes for {} ({} accesses)\n{t}\nHUB pages span {} 2MiB regions\n",
        s.app, window, s.hub_regions
    )
}

/// Renders Fig. 5 (utility curves) for the given apps.
pub fn render_fig5(h: &Harness, profile: &SimProfile, apps: &[AppId], sweep: &[u64]) -> String {
    let mut out =
        String::from("Fig. 5 — utility curves (speedup / PTW% at N% footprint promoted)\n");
    for &app in apps {
        let (curves, linux50, linux90, ideal) = fig5_utility_on(h, profile, app, sweep);
        let mut t = TextTable::new(["policy / %footprint", "speedup", "PTW rate", "THPs"]);
        for curve in &curves {
            for p in &curve.points {
                t.row([
                    format!("{} @{}%", curve.policy, p.percent),
                    fmt_speedup(p.speedup),
                    fmt_pct(p.walk_ratio),
                    p.huge_pages_used.to_string(),
                ]);
            }
        }
        t.row([
            "linux-thp @50% frag".into(),
            fmt_speedup(linux50.0),
            fmt_pct(linux50.1),
            "-".into(),
        ]);
        t.row([
            "linux-thp @90% frag".into(),
            fmt_speedup(linux90.0),
            fmt_pct(linux90.1),
            "-".into(),
        ]);
        t.row([
            "max perf with THPs".into(),
            fmt_speedup(ideal.0),
            fmt_pct(ideal.1),
            "-".into(),
        ]);
        out.push_str(&format!(
            "\n[{}]\n{t}\n{}",
            app.name(),
            ascii_plot(&curves, 54, 12)
        ));
    }
    out
}

/// Renders Fig. 6 (PCC size sensitivity).
///
/// The sweep needs the HUB working set to exceed the small PCC sizes or
/// every size looks equal; callers should pass a profile with a graph
/// scale ~3 above the default (see `fig6_profile`).
pub fn render_fig6(h: &Harness, profile: &SimProfile, apps: &[AppId], sizes: &[u32]) -> String {
    let rows = fig6_pcc_size_on(h, profile, apps, sizes);
    let mut t = TextTable::new(["app", "PCC entries", "speedup"]);
    for r in &rows {
        let label = match r.pcc_entries {
            0 => "baseline (no PCC)".to_string(),
            u32::MAX => "ideal (all THPs)".to_string(),
            n => n.to_string(),
        };
        t.row([r.app.clone(), label, fmt_speedup(r.speedup)]);
    }
    format!("Fig. 6 — PCC size sensitivity (promotion cap 32% of footprint)\n{t}")
}

/// The profile used for the Fig. 6 sensitivity sweep: the base profile
/// with the graph scale raised so the number of HUB regions (and the
/// per-interval promotion opportunity) exceeds the small PCC sizes —
/// the regime where the paper's knee at ~128 entries is visible.
pub fn fig6_profile(base: &SimProfile) -> SimProfile {
    let bumped = base.workloads.graph_scale.saturating_add(3).min(24);
    base.clone().with_graph_scale(bumped)
}

/// Renders Fig. 7 (fragmented-memory policy comparison).
pub fn render_fig7(h: &Harness, profile: &SimProfile, apps: &[AppId], frag: u8) -> String {
    let rows = fig7_fragmentation_on(h, profile, apps, frag);
    let mut t = TextTable::new(["app", "hawkeye", "linux-thp", "pcc", "pcc+demote"]);
    for r in &rows {
        t.row([
            r.app.clone(),
            fmt_speedup(r.hawkeye),
            fmt_speedup(r.linux),
            fmt_speedup(r.pcc),
            fmt_speedup(r.pcc_demote),
        ]);
    }
    format!("Fig. 7 — speedups with {frag}% fragmented memory\n{t}")
}

/// Renders Fig. 8 (multithread selection policies).
pub fn render_fig8(
    h: &Harness,
    profile: &SimProfile,
    apps: &[AppId],
    threads: &[u32],
    sweep: &[u64],
) -> String {
    let rows = fig8_multithread_on(h, profile, apps, threads, sweep);
    let mut t = TextTable::new(["app", "threads", "policy", "%footprint", "speedup", "ideal"]);
    for r in &rows {
        for p in &r.curve.points {
            t.row([
                r.app.clone(),
                r.threads.to_string(),
                r.policy.to_string(),
                format!("{}%", p.percent),
                fmt_speedup(p.speedup),
                fmt_speedup(r.ideal_speedup),
            ]);
        }
    }
    format!("Fig. 8 — multithreaded selection policies\n{t}")
}

/// Renders one Fig. 9 case study.
pub fn render_fig9(h: &Harness, profile: &SimProfile, config: Fig9Config, sweep: &[u64]) -> String {
    let (rows, ideal) = fig9_multiprocess_on(h, profile, config, sweep);
    let col_a = format!("{} speedup", config.app_a.name());
    let col_b = format!("{} speedup", config.app_b.name());
    let mut t = TextTable::new(["policy", "%footprint", &col_a, &col_b, "THPs"]);
    for r in &rows {
        t.row([
            r.policy.to_string(),
            format!("{}%", r.percent),
            fmt_speedup(r.speedups.0),
            fmt_speedup(r.speedups.1),
            r.huge_pages.to_string(),
        ]);
    }
    format!(
        "Fig. 9 — multiprocess {} + {} (ideal: {} / {})\n{t}",
        config.app_a.name(),
        config.app_b.name(),
        fmt_speedup(ideal.0),
        fmt_speedup(ideal.1)
    )
}

/// Renders the time-to-benefit timeline: the per-interval PTW rate of
/// the PCC vs HawkEye vs baseline on one app — the paper's "the PCC
/// identifies HUBs faster" claim (§5.1) in timeline form.
pub fn render_timeline(h: &Harness, profile: &SimProfile, app: AppId) -> String {
    use hpage_os::PromotionBudget;
    use hpage_trace::Workload;
    let w = h.workload(profile, app);
    let sized = profile.clone().sized_for(w.footprint_bytes());
    let cell = |label: &str, policy: PolicyChoice| {
        let mut sim =
            Simulation::new(sized.system.clone(), policy).with_budget(PromotionBudget::UNLIMITED);
        if let Some(n) = profile.max_accesses_per_core {
            sim = sim.with_max_accesses_per_core(n);
        }
        Cell::new(
            format!("timeline/{}/{label}", app.name()),
            sim,
            w.clone() as hpage_sim::SharedWorkload,
        )
    };
    let reports = h.run(vec![
        cell("base-4k", PolicyChoice::BasePages),
        cell("pcc", PolicyChoice::pcc_default()),
        cell("hawkeye", PolicyChoice::HawkEye),
    ]);
    let (base, pcc, hawkeye) = (&reports[0], &reports[1], &reports[2]);
    let intervals = base
        .interval_series
        .len()
        .min(pcc.interval_series.len())
        .min(hawkeye.interval_series.len());
    let mut t = TextTable::new([
        "interval",
        "base PTW",
        "hawkeye PTW",
        "pcc PTW",
        "pcc L1 hit",
        "pcc L2 hit",
        "pcc promos",
        "PCC occ",
        "huge pages",
    ]);
    for i in 0..intervals {
        let p = &pcc.interval_series.rows()[i];
        t.row([
            i.to_string(),
            fmt_pct(base.interval_series.rows()[i].walk_rate),
            fmt_pct(hawkeye.interval_series.rows()[i].walk_rate),
            fmt_pct(p.walk_rate),
            fmt_pct(p.l1_hit_rate),
            fmt_pct(p.l2_hit_rate),
            p.promotions.to_string(),
            p.pcc_occupancy.to_string(),
            p.huge_pages_resident.to_string(),
        ]);
    }
    format!(
        "Time-to-benefit — per-interval flight-recorder series on {} (the PCC
collapses the PTW rate within the first intervals; scan-limited policies lag)
{t}",
        w.name()
    )
}

/// Runs the PCC policy with the promotion ledger on and renders the
/// per-app attribution summary (predicted vs realized walk savings and
/// the run-level `prediction_accuracy`). Also returns the full
/// per-region ledgers as JSON Lines — one `{"type":"ledger_run"}`
/// header per app followed by its entries — for `repro --ledger-out`.
pub fn render_ledger(h: &Harness, profile: &SimProfile, apps: &[AppId]) -> (String, String) {
    use hpage_trace::Workload;
    let cells: Vec<Cell> = apps
        .iter()
        .map(|&app| {
            let w = h.workload(profile, app);
            let sized = profile.clone().sized_for(w.footprint_bytes());
            let mut sim =
                Simulation::new(sized.system.clone(), PolicyChoice::pcc_default()).with_ledger();
            if let Some(n) = profile.max_accesses_per_core {
                sim = sim.with_max_accesses_per_core(n);
            }
            Cell::new(
                format!("ledger/{}/pcc", app.name()),
                sim,
                w as hpage_sim::SharedWorkload,
            )
        })
        .collect();
    let reports = h.run(cells);
    let mut t = TextTable::new([
        "app",
        "promotions",
        "demotions",
        "predicted walks",
        "realized walks",
        "prediction accuracy",
    ]);
    let mut jsonl = String::new();
    let mut accuracies = Vec::new();
    for (&app, report) in apps.iter().zip(&reports) {
        let ledger = report
            .ledger
            .as_ref()
            .expect("ledger cells record a ledger");
        let s = ledger.summary();
        t.row([
            app.name().to_string(),
            s.promotions.to_string(),
            s.demotions.to_string(),
            s.total_predicted.to_string(),
            format!("{:.0}", s.total_realized),
            format!("{:.6}", s.prediction_accuracy),
        ]);
        accuracies.push(s.prediction_accuracy);
        jsonl.push_str(&format!(
            "{{\"type\":\"ledger_run\",\"app\":\"{}\",\"policy\":\"{}\"}}\n",
            hpage_obs::json::esc(app.name()),
            hpage_obs::json::esc(&report.policy),
        ));
        jsonl.push_str(&ledger.to_jsonl());
    }
    let mean = accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64;
    let text = format!(
        "Promotion ledger — predicted vs realized walk savings (pcc)\n{t}\nmean prediction_accuracy: {mean:.6}\n"
    );
    (text, jsonl)
}

/// Runs the consolidation scenario (`tenants` mixed synthetic tenants
/// under churn, sharded across `sim_threads` workers) with a telemetry
/// recorder attached, and renders the per-tenant fairness table plus
/// the shootdown-storm summary. Returns `(table text, JSON fragment)`;
/// the fragment goes into `BENCH_repro.json` via
/// [`json::bench_repro_json`]'s `extra` parameter.
pub fn render_consolidation(
    h: &Harness,
    profile: &SimProfile,
    tenants: usize,
    sim_threads: usize,
) -> (String, String) {
    let cfg = hpage_sim::ConsolidationConfig::for_profile(profile, tenants, sim_threads);
    let mut telemetry = hpage_telemetry::TelemetryRecorder::new();
    let t0 = std::time::Instant::now();
    let r = hpage_sim::consolidation_on(profile, &cfg, &mut telemetry);
    h.log().record_cell(
        format!("consolidation/{tenants}t/pcc"),
        t0.elapsed().as_secs_f64(),
    );
    let mut t = TextTable::new([
        "tenant",
        "mix",
        "accesses",
        "promotions",
        "PTW rate",
        "faults",
    ]);
    for row in &r.rows {
        t.row([
            row.tenant.clone(),
            row.mix.to_string(),
            row.accesses.to_string(),
            row.promotions.to_string(),
            fmt_pct(row.walk_ratio),
            row.faults.to_string(),
        ]);
    }
    let metrics = telemetry.metrics_snapshot();
    let storm_count = metrics.counter("shootdown_storm");
    let storm_p50 = metrics
        .histogram("shootdown_entries_flushed")
        .map(|hist| hist.quantile(0.5))
        .unwrap_or(0);
    let text = format!(
        "Consolidation — {} tenants on {} cores, churn plan \"consolidation-churn\" \
         (--sim-threads {})\n{t}\n\
         Jain fairness over promotion shares: {:.4}\n\
         promotions: {} performed, {} failed, {} huge pages resident at end\n\
         shootdown storms: {} flushes, {} entries total, max {}/core \
         (telemetry: count {}, p50 {})\n",
        r.tenants,
        r.tenants,
        r.sim_threads,
        r.fairness_index,
        r.total_promotions,
        r.promotion_failures,
        r.huge_pages_at_end,
        r.storm_flushes,
        r.storm_entries_flushed,
        r.storm_entries_max,
        storm_count,
        storm_p50,
    );
    let json = json::consolidation_json(&r);
    (text, json)
}

/// Runs the virtualization ablation (four mixed VMs under nested 2D
/// translation, once per PCC placement) and renders the per-VM table,
/// the placement geomean summary, and the FHPM verdict line. Returns
/// `(table text, JSON fragment)`; the fragment goes into
/// `BENCH_repro.json` via [`json::bench_repro_json`]'s `extras`.
pub fn render_virt(h: &Harness, profile: &SimProfile, sim_threads: usize) -> (String, String) {
    use hpage_types::PccPlacement;
    let cfg = hpage_sim::VirtConfig::for_profile(profile, sim_threads);
    let r = hpage_sim::virt_on(h, profile, &cfg);
    let mut t = TextTable::new([
        "placement",
        "vm",
        "mix",
        "refs/walk",
        "PTW rate",
        "refs/access",
        "guest promos",
        "host promos",
    ]);
    for row in &r.vm_rows {
        t.row([
            row.placement.to_string(),
            row.vm.clone(),
            row.mix.to_string(),
            format!("{:.3}", row.mean_refs),
            fmt_pct(row.walk_ratio),
            format!("{:.4}", row.refs_per_access),
            row.promotions.to_string(),
            row.host_promotions.to_string(),
        ]);
    }
    let mut s = TextTable::new([
        "placement",
        "geomean refs/access",
        "geomean refs/walk",
        "guest promos",
        "host promos",
        "host shootdowns",
    ]);
    for p in &r.placements {
        s.row([
            p.placement.to_string(),
            format!("{:.4}", p.geomean_cost),
            format!("{:.3}", p.geomean_refs),
            p.guest_promotions.to_string(),
            p.host_promotions.to_string(),
            p.host_shootdowns.to_string(),
        ]);
    }
    let both = r.placement(PccPlacement::Both);
    let guest = r.placement(PccPlacement::Guest);
    let host = r.placement(PccPlacement::Host);
    let verdict = if both.geomean_cost < guest.geomean_cost && both.geomean_cost < host.geomean_cost
    {
        "verdict: PCCs in both dimensions beat either dimension alone on geomean walk cost"
            .to_string()
    } else {
        h.log()
            .warn("virt: both-placement failed to beat a single placement");
        format!(
            "verdict: ANOMALY — both ({:.4}) does not beat guest ({:.4}) and host ({:.4})",
            both.geomean_cost, guest.geomean_cost, host.geomean_cost
        )
    };
    // No --sim-threads in the header: the text must be byte-identical at
    // any shard count (CI cmp's 1 vs 8); the count lives in the JSON.
    let text = format!(
        "Virtualization — 4 VMs under nested (2D) translation, PCC placement ablation\n\
         {t}\n{s}\n{verdict}\n"
    );
    let json = json::virt_json(&r);
    (text, json)
}

/// Renders the design-choice ablation table (DESIGN.md's ablation
/// targets: cold-miss filter, decay, replacement, PWC alternative).
pub fn render_ablation(h: &Harness, profile: &SimProfile, app: AppId) -> String {
    let rows = ablation_design_choices_on(h, profile, app);
    let mut t = TextTable::new(["variant", "speedup", "PTW rate", "promotions"]);
    for r in &rows {
        t.row([
            r.variant.clone(),
            fmt_speedup(r.speedup),
            fmt_pct(r.walk_ratio),
            r.promotions.to_string(),
        ]);
    }
    format!(
        "Ablations — PCC design choices on {}
{t}",
        app.name()
    )
}

/// Renders the multi-dataset sweep (Table 1's inputs across sorted and
/// unsorted variants, with the paper's geomean summary).
pub fn render_datasets(h: &Harness, profile: &SimProfile, apps: &[AppId]) -> String {
    let rows = dataset_sweep_on(h, profile, apps);
    let mut t = TextTable::new([
        "app",
        "dataset",
        "variant",
        "base PTW%",
        "pcc@4% speedup",
        "ideal",
    ]);
    for r in &rows {
        t.row([
            r.app.clone(),
            r.dataset.clone(),
            if r.dbg_sorted {
                "dbg-sorted"
            } else {
                "unsorted"
            }
            .to_string(),
            fmt_pct(r.base_walk_ratio),
            fmt_speedup(r.pcc_speedup_4pct),
            fmt_speedup(r.ideal_speedup),
        ]);
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.pcc_speedup_4pct).collect();
    let geo = geomean_line(h, "geomean pcc@4% speedup", &speedups);
    format!(
        "Dataset sweep — graph kernels across Table 1 networks
{t}
{geo}
"
    )
}

/// Renders Table 1 (evaluation applications and inputs).
pub fn render_table1() -> String {
    let mut t = TextTable::new(["application", "input", "paper footprint"]);
    for r in paper_table1() {
        t.row([
            r.app.name().to_string(),
            r.input.to_string(),
            format!("{} MB", r.paper_footprint_bytes >> 20),
        ]);
    }
    format!("Table 1 — evaluation applications and inputs (paper values)\n{t}")
}

/// Renders Table 2 (system parameters) from the active profile.
pub fn render_table2(profile: &SimProfile) -> String {
    let s = &profile.system;
    let mut t = TextTable::new(["parameter", "value"]);
    let tlb = |l: hpage_types::TlbLevelConfig| format!("{} entries, {}-way", l.entries, l.ways);
    t.row(["L1 D-TLB 4KB".to_string(), tlb(s.tlb.l1_4k)]);
    t.row(["L1 D-TLB 2MB".to_string(), tlb(s.tlb.l1_2m)]);
    t.row(["L1 D-TLB 1GB".to_string(), tlb(s.tlb.l1_1g)]);
    t.row(["L2 TLB (unified)".to_string(), tlb(s.tlb.l2)]);
    t.row([
        "2MB PCC (per core)".to_string(),
        format!(
            "{} entries, fully associative, {}-bit tags, {}-bit counters",
            s.pcc_2m.entries, s.pcc_2m.tag_bits, s.pcc_2m.counter_bits
        ),
    ]);
    t.row([
        "promotion cadence".to_string(),
        format!(
            "up to {} promotions every {} accesses",
            s.regions_to_promote, s.promotion_interval_accesses
        ),
    ]);
    t.row([
        "physical memory".to_string(),
        format!("{} MiB", s.phys_mem_bytes >> 20),
    ]);
    format!("Table 2 — system parameters (active profile)\n{t}")
}

/// Renders the §3.2.1 PCC storage arithmetic.
pub fn render_storage() -> String {
    let p2m = hpage_types::PccConfig::paper_2m();
    let p1g = hpage_types::PccConfig::paper_1g();
    let mut t = TextTable::new(["structure", "entry bits", "entries", "bytes"]);
    t.row([
        "2MB PCC".to_string(),
        p2m.entry_bits().to_string(),
        p2m.entries.to_string(),
        p2m.storage_bytes().to_string(),
    ]);
    t.row([
        "1GB PCC".to_string(),
        p1g.entry_bits().to_string(),
        p1g.entries.to_string(),
        p1g.storage_bytes().to_string(),
    ]);
    let total = p2m.storage_bytes() + p1g.storage_bytes();
    format!(
        "§3.2.1 — PCC storage arithmetic\n{t}\ntotal {total} B = {} TLB entries at 16 B/entry \
         (vs 64K base pages identifiable as candidates)\n",
        total / 16
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(render_table1().contains("Kronecker 25"));
        assert!(render_storage().contains("768"));
        assert!(render_storage().contains("50 TLB entries"));
        let t2 = render_table2(&SimProfile::paper());
        assert!(t2.contains("1024 entries, 8-way"));
        assert!(t2.contains("128 entries, fully associative"));
    }

    #[test]
    fn profile_from_env_defaults_are_valid() {
        let p = profile_from_env().unwrap();
        p.system.validate().unwrap();
    }

    #[test]
    fn fig2_renders_quickly() {
        let mut p = SimProfile::test();
        p.max_accesses_per_core = Some(100_000);
        let s = render_fig2(&Harness::sequential(), &p, AppId::Bfs, 100_000);
        assert!(s.contains("HUB"));
    }

    fn micro_profile() -> SimProfile {
        let mut p = SimProfile::test();
        p.max_accesses_per_core = Some(150_000);
        p.workloads.graph_scale = 10;
        p
    }

    #[test]
    fn fig7_render_contains_policies() {
        let s = render_fig7(
            &Harness::sequential(),
            &micro_profile(),
            &[AppId::Dedup],
            90,
        );
        assert!(s.contains("hawkeye"));
        assert!(s.contains("pcc+demote"));
        assert!(s.contains("dedup"));
    }

    #[test]
    fn fig9_render_contains_both_apps() {
        let s = render_fig9(
            &Harness::sequential(),
            &micro_profile(),
            Fig9Config {
                app_a: AppId::Dedup,
                app_b: AppId::Mcf,
            },
            &[0, 100],
        );
        assert!(s.contains("dedup speedup"));
        assert!(s.contains("mcf speedup"));
        assert!(s.contains("round-robin"));
    }

    #[test]
    fn fig6_render_labels_extremes() {
        let s = render_fig6(
            &Harness::sequential(),
            &micro_profile(),
            &[AppId::Dedup],
            &[4],
        );
        assert!(s.contains("baseline (no PCC)"));
        assert!(s.contains("ideal (all THPs)"));
    }

    #[test]
    fn geomean_line_renders_partial_and_empty() {
        let h = Harness::sequential();
        assert_eq!(geomean_line(&h, "geo", &[2.0, 2.0]), "geo: 2.00x");
        assert!(h.log().warnings().is_empty());
        let partial = geomean_line(&h, "geo", &[4.0, 0.0]);
        assert_eq!(partial, "geo: 4.00x (1 non-positive value(s) excluded)");
        let blank = geomean_line(&h, "geo", &[0.0]);
        assert_eq!(blank, "geo: n/a (1 non-positive value(s) excluded)");
        assert_eq!(h.log().warnings().len(), 2);
    }

    #[test]
    fn consolidation_render_reports_fairness_and_storms() {
        let h = Harness::sequential();
        let (text, json) = render_consolidation(&h, &SimProfile::test(), 8, 4);
        assert!(text.contains("Jain fairness over promotion shares:"));
        assert!(text.contains("shootdown storms:"));
        assert!(text.contains("t07-"), "all 8 tenants render");
        hpage_obs::json::assert_json_shape(&json);
        assert!(json.contains("\"fairness_index\":"));
        assert!(json.contains("\"sim_threads\":4"));
        assert!(
            h.log()
                .cells()
                .iter()
                .any(|c| c.label.starts_with("consolidation/8t")),
            "the run is timed into the bench artifact"
        );
    }

    #[test]
    fn virt_render_reports_verdict_at_any_jobs() {
        let mut p = SimProfile::test();
        p.max_accesses_per_core = Some(1_500_000);
        let (text, json) = render_virt(&Harness::sequential(), &p, 1);
        assert!(text.contains("PCC placement ablation"));
        assert!(
            text.contains("verdict: PCCs in both dimensions beat either dimension alone"),
            "verdict line must confirm the FHPM claim:\n{text}"
        );
        for placement in ["none", "guest", "host", "both"] {
            assert!(text.contains(placement), "{placement} row renders");
        }
        hpage_obs::json::assert_json_shape(&json);
        assert!(json.contains("\"scenario\":\"virt\""));
        let par = render_virt(&Harness::new(4), &p, 1);
        assert_eq!(
            (text, json),
            par,
            "virt must be byte-identical at any --jobs"
        );
    }

    #[test]
    fn parallel_render_matches_sequential() {
        let p = micro_profile();
        let seq = render_fig7(&Harness::sequential(), &p, &[AppId::Dedup], 90);
        let par = render_fig7(&Harness::new(4), &p, &[AppId::Dedup], 90);
        assert_eq!(seq, par, "tables must be byte-identical at any --jobs");
    }

    #[test]
    fn ledger_render_reports_accuracy_at_any_jobs() {
        let p = micro_profile();
        let apps = [AppId::Bfs, AppId::Sssp];
        let (text, jsonl) = render_ledger(&Harness::sequential(), &p, &apps);
        assert!(text.contains("prediction accuracy"));
        assert!(text.contains("mean prediction_accuracy:"));
        assert!(jsonl.contains("\"type\":\"ledger_run\""));
        assert!(jsonl.contains("\"type\":\"ledger_summary\""));
        for line in jsonl.lines() {
            hpage_obs::json::assert_json_shape(line);
        }
        let par = render_ledger(&Harness::new(4), &p, &apps);
        assert_eq!(
            (text, jsonl),
            par,
            "ledger must be byte-identical at any --jobs"
        );
    }
}
