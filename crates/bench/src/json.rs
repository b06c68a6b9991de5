//! Minimal JSON emission for experiment results (`repro --json`).
//!
//! The escaping/number helpers live in [`hpage_obs::json`] — one
//! implementation shared with the flight recorder's JSONL sink.

use hpage_obs::json::{esc, num};
use hpage_sim::{
    AblationRow, ConsolidationReport, DatasetRow, Fig1Row, Fig6Row, Fig7Row, Harness, VirtReport,
};

/// Serializes Fig. 1 rows.
pub fn fig1_json(rows: &[Fig1Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"miss_4k\":{},\"miss_2m\":{},\"miss_linux\":{},\
                 \"speedup_2m\":{},\"speedup_linux\":{}}}",
                esc(&r.app),
                num(r.miss_4k),
                num(r.miss_2m),
                num(r.miss_linux),
                num(r.speedup_2m),
                num(r.speedup_linux)
            )
        })
        .collect();
    format!("{{\"figure\":\"1\",\"rows\":[{}]}}", items.join(","))
}

/// Serializes Fig. 6 rows.
pub fn fig6_json(rows: &[Fig6Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"pcc_entries\":{},\"speedup\":{}}}",
                esc(&r.app),
                r.pcc_entries,
                num(r.speedup)
            )
        })
        .collect();
    format!("{{\"figure\":\"6\",\"rows\":[{}]}}", items.join(","))
}

/// Serializes Fig. 7 rows.
pub fn fig7_json(rows: &[Fig7Row], frag_pct: u8) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"hawkeye\":{},\"linux\":{},\"pcc\":{},\"pcc_demote\":{}}}",
                esc(&r.app),
                num(r.hawkeye),
                num(r.linux),
                num(r.pcc),
                num(r.pcc_demote)
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"7\",\"fragmentation_pct\":{frag_pct},\"rows\":[{}]}}",
        items.join(",")
    )
}

/// Serializes ablation rows.
pub fn ablation_json(app: &str, rows: &[AblationRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"variant\":\"{}\",\"speedup\":{},\"walk_ratio\":{},\"promotions\":{}}}",
                esc(&r.variant),
                num(r.speedup),
                num(r.walk_ratio),
                r.promotions
            )
        })
        .collect();
    format!(
        "{{\"ablation\":\"{}\",\"rows\":[{}]}}",
        esc(app),
        items.join(",")
    )
}

/// Serializes dataset-sweep rows.
pub fn datasets_json(rows: &[DatasetRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"dataset\":\"{}\",\"dbg_sorted\":{},\
                 \"base_walk_ratio\":{},\"pcc_speedup_4pct\":{},\"ideal_speedup\":{}}}",
                esc(&r.app),
                esc(&r.dataset),
                r.dbg_sorted,
                num(r.base_walk_ratio),
                num(r.pcc_speedup_4pct),
                num(r.ideal_speedup)
            )
        })
        .collect();
    format!("{{\"sweep\":\"datasets\",\"rows\":[{}]}}", items.join(","))
}

/// Serializes a consolidation run: the Jain fairness index over
/// per-tenant promotion shares, the shootdown-storm counters, and the
/// per-tenant rows.
pub fn consolidation_json(r: &ConsolidationReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\":\"{}\",\"mix\":\"{}\",\"accesses\":{},\"promotions\":{},\
                 \"walk_ratio\":{},\"faults\":{}}}",
                esc(&t.tenant),
                esc(t.mix),
                t.accesses,
                t.promotions,
                num(t.walk_ratio),
                t.faults
            )
        })
        .collect();
    format!(
        "{{\"scenario\":\"consolidation\",\"tenants\":{},\"sim_threads\":{},\"policy\":\"{}\",\
         \"fairness_index\":{},\"total_promotions\":{},\"promotion_failures\":{},\
         \"huge_pages_at_end\":{},\"shootdowns\":{},\"storms\":{{\"flushes\":{},\
         \"entries_flushed\":{},\"max_entries_flushed\":{}}},\"rows\":[{}]}}",
        r.tenants,
        r.sim_threads,
        esc(&r.policy),
        num(r.fairness_index),
        r.total_promotions,
        r.promotion_failures,
        r.huge_pages_at_end,
        r.shootdowns,
        r.storm_flushes,
        r.storm_entries_flushed,
        r.storm_entries_max,
        rows.join(",")
    )
}

/// Serializes the virtualization ablation: the per-placement geomean
/// walk costs and the per-(placement, VM) rows.
pub fn virt_json(r: &VirtReport) -> String {
    let placements: Vec<String> = r
        .placements
        .iter()
        .map(|p| {
            format!(
                "{{\"placement\":\"{}\",\"geomean_cost\":{},\"geomean_refs\":{},\
                 \"policy\":\"{}\",\"guest_promotions\":{},\"host_promotions\":{},\
                 \"host_shootdowns\":{}}}",
                p.placement,
                num(p.geomean_cost),
                num(p.geomean_refs),
                esc(&p.policy),
                p.guest_promotions,
                p.host_promotions,
                p.host_shootdowns
            )
        })
        .collect();
    let rows: Vec<String> = r
        .vm_rows
        .iter()
        .map(|v| {
            format!(
                "{{\"vm\":\"{}\",\"mix\":\"{}\",\"placement\":\"{}\",\"mean_refs\":{},\
                 \"walk_ratio\":{},\"refs_per_access\":{},\"promotions\":{},\
                 \"host_promotions\":{}}}",
                esc(&v.vm),
                esc(v.mix),
                v.placement,
                num(v.mean_refs),
                num(v.walk_ratio),
                num(v.refs_per_access),
                v.promotions,
                v.host_promotions
            )
        })
        .collect();
    format!(
        "{{\"scenario\":\"virt\",\"sim_threads\":{},\"placements\":[{}],\"rows\":[{}]}}",
        r.sim_threads,
        placements.join(","),
        rows.join(",")
    )
}

/// Serializes the `BENCH_repro.json` perf artifact: run metadata, the
/// harness's per-section and per-cell wall-clock timings, workload-cache
/// effectiveness, any rendering warnings, and any scenario fragments the
/// run produced — each `(key, json)` pair in `extras` embeds verbatim
/// under its key (e.g. `("consolidation", consolidation_json(..))`,
/// `("virt", virt_json(..))`).
pub fn bench_repro_json(
    h: &Harness,
    profile_name: &str,
    total_wall_s: f64,
    extras: &[(&str, &str)],
) -> String {
    let stats = h.cache().stats();
    let scenarios: String = extras
        .iter()
        .map(|(key, json)| format!("\"{}\":{json},", esc(key)))
        .collect();
    format!(
        "{{\"artifact\":\"repro-bench\",\"jobs\":{},\"profile\":\"{}\",\"total_wall_s\":{},\
         \"workload_cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}},{}{}}}",
        h.jobs(),
        esc(profile_name),
        num(total_wall_s),
        h.cache().len(),
        stats.hits,
        stats.misses,
        scenarios,
        h.log().to_json_fields()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn fig1_shape() {
        let rows = vec![Fig1Row {
            app: "BFS".into(),
            miss_4k: 0.295,
            miss_2m: 0.0,
            miss_linux: 0.294,
            speedup_2m: 2.54,
            speedup_linux: 1.0,
        }];
        let j = fig1_json(&rows);
        assert!(j.starts_with("{\"figure\":\"1\""));
        assert!(j.contains("\"app\":\"BFS\""));
        assert!(j.contains("\"speedup_2m\":2.540000"));
    }

    #[test]
    fn bench_artifact_shape() {
        let h = Harness::new(2);
        h.log().record_section("figure 1", 1.5);
        h.log().record_cell("fig1/BFS/base-4k", 0.7);
        h.log().warn("something partial");
        let j = bench_repro_json(&h, "test", 2.25, &[]);
        hpage_obs::json::assert_json_shape(&j);
        assert!(j.starts_with("{\"artifact\":\"repro-bench\",\"jobs\":2"));
        assert!(j.contains("\"profile\":\"test\""));
        assert!(j.contains("\"total_wall_s\":2.250000"));
        assert!(j.contains("\"sections\":[{\"label\":\"figure 1\""));
        assert!(j.contains("\"warnings\":[\"something partial\"]"));
        assert!(!j.contains("\"consolidation\""));
    }

    #[test]
    fn consolidation_artifact_shape() {
        use hpage_sim::ConsolidationTenantRow;
        let r = ConsolidationReport {
            tenants: 2,
            sim_threads: 4,
            policy: "pcc-highest-frequency".into(),
            rows: vec![
                ConsolidationTenantRow {
                    tenant: "t00-zipf".into(),
                    mix: "zipf",
                    accesses: 40_000,
                    promotions: 3,
                    walk_ratio: 0.125,
                    faults: 2048,
                },
                ConsolidationTenantRow {
                    tenant: "t01-stream".into(),
                    mix: "stream",
                    accesses: 30_000,
                    promotions: 1,
                    walk_ratio: 0.01,
                    faults: 1536,
                },
            ],
            fairness_index: 0.8,
            total_promotions: 4,
            promotion_failures: 0,
            huge_pages_at_end: 4,
            shootdowns: 4,
            storm_flushes: 4,
            storm_entries_flushed: 60,
            storm_entries_max: 21,
        };
        let j = consolidation_json(&r);
        hpage_obs::json::assert_json_shape(&j);
        assert!(j.contains("\"fairness_index\":0.800000"));
        assert!(j.contains("\"storms\":{\"flushes\":4"));
        assert!(j.contains("\"tenant\":\"t00-zipf\""));
        // And it embeds cleanly in the bench artifact.
        let h = Harness::new(1);
        h.log().record_cell("consolidation/2t/pcc", 0.3);
        let artifact = bench_repro_json(&h, "test", 0.5, &[("consolidation", &j)]);
        hpage_obs::json::assert_json_shape(&artifact);
        assert!(artifact.contains("\"consolidation\":{\"scenario\":\"consolidation\""));
    }

    #[test]
    fn virt_artifact_shape() {
        use hpage_sim::{VirtPlacementRow, VirtVmRow};
        let r = VirtReport {
            sim_threads: 2,
            vm_rows: vec![VirtVmRow {
                vm: "vm0-zipf".into(),
                mix: "zipf",
                placement: hpage_types::PccPlacement::Both,
                mean_refs: 2.5,
                walk_ratio: 0.05,
                refs_per_access: 0.125,
                promotions: 3,
                host_promotions: 2,
            }],
            placements: vec![VirtPlacementRow {
                placement: hpage_types::PccPlacement::Both,
                geomean_refs: 2.5,
                geomean_cost: 0.125,
                policy: "pcc-highest-frequency+nested-both".into(),
                guest_promotions: 3,
                host_promotions: 2,
                host_shootdowns: 2,
            }],
        };
        let j = virt_json(&r);
        hpage_obs::json::assert_json_shape(&j);
        assert!(j.contains("\"scenario\":\"virt\""));
        assert!(j.contains("\"placement\":\"both\""));
        assert!(j.contains("\"geomean_cost\":0.125000"));
        assert!(j.contains("\"vm\":\"vm0-zipf\""));
        let h = Harness::new(1);
        h.log().record_cell("virt/4vm/both", 0.2);
        let artifact = bench_repro_json(&h, "test", 0.5, &[("virt", &j)]);
        hpage_obs::json::assert_json_shape(&artifact);
        assert!(artifact.contains("\"virt\":{\"scenario\":\"virt\""));
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.5), "2.500000");
    }

    #[test]
    fn json_parses_as_json() {
        // Sanity with a tiny hand validator: balanced braces/brackets and
        // no raw control characters.
        let rows = vec![Fig6Row {
            app: "PR\"x".into(),
            pcc_entries: 128,
            speedup: 2.49,
        }];
        let j = fig6_json(&rows);
        let mut depth: i64 = 0;
        for c in j.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                c => assert!((c as u32) >= 0x20, "raw control char in JSON"),
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }
}
