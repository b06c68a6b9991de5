//! `repro` — regenerates every table and figure of the paper's
//! evaluation as terminal tables.
//!
//! ```text
//! repro --all                     # everything (scaled profile)
//! repro --all --jobs 8            # same tables, 8 parallel workers
//! repro --figure 5                # one figure
//! repro --table 1                 # one table
//! repro --table storage           # the §3.2.1 storage arithmetic
//! HPAGE_PROFILE=test repro --all  # fast smoke run
//! HPAGE_SCALE=20 repro --figure 5 # bigger graphs
//! ```
//!
//! All simulation cells run on one deterministic harness: tables are
//! byte-identical at any `--jobs`, and every run that simulates
//! anything writes a `BENCH_repro.json` wall-clock artifact
//! (`--bench-out` overrides the path).
//!
//! Sections are independent and each prints whole as it finishes, so a
//! long run can go one section per command, appending stdout to a file;
//! after a crash, rerun the sections the file does not hold yet.

use hpage_bench::*;
use hpage_sim::{catch_quietly, panic_message, Fig9Config, Harness};
use hpage_trace::AppId;

const USAGE: &str = "usage: repro [--all] [--figure 1|2|5|6|7|8|9a|9b] [--table 1|2|storage] [--ablation] [--datasets] [--timeline] [--consolidation] [--tenants N] [--virt] [--ledger-out FILE] [--json 1|6|7|ablation|datasets] [--jobs N|-j N] [--sim-threads N] [--bench-out FILE] [--quiet|-q] [--verbose|-v]
parallelism: --jobs N runs up to N simulation cells concurrently (default: available cores; tables are byte-identical at any N);
           --sim-threads N shards the consolidation/virt simulation loops across N threads (default 1;
           reports are byte-identical at any N — hpsim accepts the same flag for single-scenario runs)
consolidation: --consolidation co-locates --tenants N mixed tenants (default 32) on one machine under a churn
           plan and reports the Jain fairness index over per-tenant promotion shares plus shootdown-storm
           metrics; both land in BENCH_repro.json under \"consolidation\"
virtualization: --virt co-locates 4 mixed VMs under nested (2D) translation and ablates the PCC placement
           (none|guest|host|both), reporting 2D walk cost per placement; the table lands in
           BENCH_repro.json under \"virt\" (hpsim --nested runs one workload the same way)
artifacts: runs that simulate anything write wall-clock timings to BENCH_repro.json (override with --bench-out);
           --ledger-out runs the PCC policy with the promotion ledger on, prints the
           predicted-vs-realized attribution summary, and writes per-region entries to FILE as JSONL
supervision: each cell runs once, its panic isolated from the rest of the grid;
           a section with a failed cell renders an 'n/a (cell failed: ...)' row
exit codes: 0 ok, 1 runtime error, 2 usage error, 3 completed with failed cells (partial output)
verbosity: progress notes go to stderr; --quiet silences them, -v adds per-section timing
environment: HPAGE_PROFILE=test|scaled|paper   HPAGE_SCALE=<log2 vertices, 1..=30>";

/// Largest accepted `--jobs` value — far above any real machine, small
/// enough to catch typos like `--jobs 10000`.
const MAX_JOBS: usize = 512;

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parses and validates a `--jobs` operand: a usize in `1..=MAX_JOBS`.
/// Zero, garbage, and absurd values are usage errors (exit 2), never a
/// panic or a silent clamp.
fn parse_jobs(value: Option<&String>) -> usize {
    let Some(raw) = value else {
        die("--jobs needs a value");
    };
    match raw.parse::<usize>() {
        Ok(0) => die("--jobs must be at least 1"),
        Ok(n) if n > MAX_JOBS => die(&format!("--jobs {n} is out of range (max {MAX_JOBS})")),
        Ok(n) => n,
        Err(_) => die(&format!("--jobs expects a number, got '{raw}'")),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_JOBS))
        .unwrap_or(1)
}

/// Consumes a flag's operand, or usage-errors naming the flag when it
/// is missing or is itself a flag (`--ledger-out --all`).
fn path_value(flag: &str, it: &mut std::vec::IntoIter<String>) -> String {
    match it.next() {
        Some(v) if v.starts_with("--") => die(&format!("{flag} needs a value, got flag '{v}'")),
        Some(v) => v,
        None => die(&format!("{flag} needs a value")),
    }
}

fn num_value(flag: &str, it: &mut std::vec::IntoIter<String>) -> u64 {
    path_value(flag, it)
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} expects a number")))
}

/// Section runner: progress notes, wall-clock accounting, and
/// degraded rendering.
///
/// Every step (figure, table, JSON document and the `--ledger-out`
/// render) runs under [`catch_quietly`]: a grid with a failed cell
/// (the harness panics with an aggregate message *after* the grid
/// completes) degrades into an `n/a (cell failed: …)` row, reported
/// once on stderr and never by the panic hook, instead of aborting the
/// remaining sections, and the run exits with code 3.
struct Sections {
    verbosity: u8,
    failed: bool,
}

impl Sections {
    /// Runs `f` once under [`catch_quietly`] and records its wall-clock
    /// time. A panic sets `failed`, is reported once on stderr, and comes
    /// back as the section's `n/a (cell failed: …)` row.
    fn run<T>(&mut self, h: &Harness, label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
        if self.verbosity >= 1 {
            eprintln!("repro: rendering {label}...");
        }
        let t0 = std::time::Instant::now();
        let out = catch_quietly(f);
        let wall = t0.elapsed().as_secs_f64();
        h.log().record_section(label, wall);
        match out {
            Ok(value) => {
                if self.verbosity >= 2 {
                    eprintln!("repro: {label} done in {wall:.1}s");
                }
                Ok(value)
            }
            Err(payload) => {
                self.failed = true;
                let msg = panic_message(&*payload);
                eprintln!("repro: {label} failed: {msg}");
                Err(format!("{label}: n/a (cell failed: {msg})"))
            }
        }
    }
}

/// Every section `--all` renders, in order. Labels match the
/// single-section flags' (`--figure 7` is "figure 7"), so a section
/// reads the same in `BENCH_repro.json` however it was asked for.
const ALL_SECTIONS: [&str; 13] = [
    "table 1",
    "table 2",
    "storage table",
    "figure 1",
    "figure 2",
    "figure 5",
    "figure 6",
    "figure 7",
    "figure 8",
    "figure 9a",
    "figure 9b",
    "ablation",
    "timeline",
];

/// The `--json` targets.
const JSON_TARGETS: [&str; 5] = ["1", "6", "7", "ablation", "datasets"];

/// Turns the section arguments into the labels of the sections they
/// ask for, or usage-errors on the first bad one — before any section
/// runs, so a typo at the end of a long invocation costs nothing.
fn parse_steps(args: &[String]) -> Vec<String> {
    let mut steps = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--all" => steps.extend(ALL_SECTIONS.map(String::from)),
            "--figure" => {
                let which = it.next().unwrap_or("");
                let label = format!("figure {which}");
                if !ALL_SECTIONS.contains(&label.as_str()) {
                    die(&format!("unknown figure '{which}'"));
                }
                steps.push(label);
            }
            "--ablation" => steps.extend(["ablation omnetpp", "ablation bfs"].map(String::from)),
            "--datasets" | "--timeline" | "--consolidation" | "--virt" => {
                steps.push(arg["--".len()..].into())
            }
            "--json" => {
                let which = it.next().unwrap_or("");
                if !JSON_TARGETS.contains(&which) {
                    die(&format!("unknown json target '{which}'"));
                }
                steps.push(format!("json {which}"));
            }
            "--table" => steps.push(match it.next().unwrap_or("") {
                which @ ("1" | "2") => format!("table {which}"),
                "storage" => "storage table".into(),
                other => die(&format!("unknown table '{other}'")),
            }),
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    steps
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut verbosity: u8 = 1;
    args.retain(|a| match a.as_str() {
        "--quiet" | "-q" => {
            verbosity = 0;
            false
        }
        "--verbose" | "-v" => {
            verbosity = 2;
            false
        }
        _ => true,
    });
    // --jobs/--bench-out and friends take a value, so they can't go
    // through retain.
    let mut jobs: Option<usize> = None;
    let mut bench_out = String::from("BENCH_repro.json");
    let mut ledger_out: Option<String> = None;
    let mut sim_threads: usize = 1;
    let mut tenants: usize = 32;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => jobs = Some(parse_jobs(it.next().as_ref())),
            "--sim-threads" => {
                sim_threads = num_value("--sim-threads", &mut it)
                    .try_into()
                    .ok()
                    .filter(|&n| (1..=MAX_JOBS).contains(&n))
                    .unwrap_or_else(|| die("--sim-threads must be in 1..=512"));
            }
            "--tenants" => {
                tenants = num_value("--tenants", &mut it)
                    .try_into()
                    .ok()
                    .filter(|&n| (2..=4096).contains(&n))
                    .unwrap_or_else(|| die("--tenants must be in 2..=4096"));
            }
            "--bench-out" => bench_out = path_value("--bench-out", &mut it),
            "--ledger-out" => ledger_out = Some(path_value("--ledger-out", &mut it)),
            _ => rest.push(a),
        }
    }
    if rest.is_empty() && ledger_out.is_none() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let steps = parse_steps(&rest);
    let profile = profile_from_env().unwrap_or_else(|e| die(&e.to_string()));
    let profile_name = match std::env::var("HPAGE_PROFILE").as_deref() {
        Ok("test") => "test",
        Ok("paper") => "paper",
        _ => "scaled",
    };

    let jobs = jobs.unwrap_or_else(default_jobs);
    let harness = Harness::new(jobs);
    let h = &harness;
    if verbosity >= 1 && jobs > 1 {
        eprintln!("repro: running up to {jobs} simulation cells in parallel");
    }
    let mut sections = Sections {
        verbosity,
        failed: false,
    };
    let sweep: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 100];
    let quick_sweep: &[u64] = &[0, 1, 4, 16, 100];
    // Filled by the --consolidation / --virt sections so their metrics
    // ride along in the BENCH_repro.json artifact.
    let consolidation_json: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let virt_json: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let run_start = std::time::Instant::now();

    let render = |label: &str| -> String {
        match label {
            "table 1" => render_table1(),
            "table 2" => render_table2(&profile),
            "storage table" => render_storage(),
            "figure 1" => render_fig1(h, &profile, &AppId::ALL),
            "figure 2" => render_fig2(h, &profile, AppId::Bfs, 2_000_000),
            "figure 5" => render_fig5(h, &profile, &AppId::ALL, sweep),
            "figure 6" => render_fig6(
                h,
                &fig6_profile(&profile),
                &AppId::GRAPH,
                &[4, 8, 16, 32, 64, 128, 256, 512, 1024],
            ),
            "figure 7" => render_fig7(h, &profile, &AppId::GRAPH, 90),
            "figure 8" => render_fig8(h, &profile, &AppId::GRAPH, &[2, 4, 8], quick_sweep),
            "figure 9a" => render_fig9(
                h,
                &profile,
                Fig9Config {
                    app_a: AppId::PageRank,
                    app_b: AppId::Mcf,
                },
                quick_sweep,
            ),
            "figure 9b" => render_fig9(
                h,
                &profile,
                Fig9Config {
                    app_a: AppId::PageRank,
                    app_b: AppId::Sssp,
                },
                quick_sweep,
            ),
            "ablation" | "ablation bfs" => render_ablation(h, &profile, AppId::Bfs),
            "ablation omnetpp" => render_ablation(h, &profile, AppId::Omnetpp),
            "datasets" => render_datasets(h, &profile, &AppId::GRAPH),
            "timeline" => render_timeline(h, &profile, AppId::Bfs),
            "consolidation" => {
                let (text, json) = render_consolidation(h, &profile, tenants, sim_threads);
                *consolidation_json.borrow_mut() = Some(json);
                text
            }
            "virt" => {
                let (text, json) = render_virt(h, &profile, sim_threads);
                *virt_json.borrow_mut() = Some(json);
                text
            }
            "json 1" => hpage_bench::json::fig1_json(&hpage_sim::fig1_page_sizes_on(
                h,
                &profile,
                &AppId::ALL,
            )),
            "json 6" => hpage_bench::json::fig6_json(&hpage_sim::fig6_pcc_size_on(
                h,
                &fig6_profile(&profile),
                &AppId::GRAPH,
                &[4, 16, 64, 128, 512],
            )),
            "json 7" => hpage_bench::json::fig7_json(
                &hpage_sim::fig7_fragmentation_on(h, &profile, &AppId::GRAPH, 90),
                90,
            ),
            "json ablation" => hpage_bench::json::ablation_json(
                "BFS",
                &hpage_sim::ablation_design_choices_on(h, &profile, AppId::Bfs),
            ),
            "json datasets" => hpage_bench::json::datasets_json(&hpage_sim::dataset_sweep_on(
                h,
                &profile,
                &AppId::GRAPH,
            )),
            other => unreachable!("parse_steps produced no step '{other}'"),
        }
    };
    for label in &steps {
        match sections.run(h, label, || render(label)) {
            Ok(text) | Err(text) => println!("{text}"),
        }
    }

    if let Some(path) = &ledger_out {
        match sections.run(h, "promotion ledger", || {
            render_ledger(h, &profile, &AppId::GRAPH)
        }) {
            Ok((text, jsonl)) => {
                println!("{text}");
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("repro: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                if verbosity >= 1 {
                    eprintln!("repro: per-region ledger entries written to {path}");
                }
            }
            Err(row) => println!("{row}"),
        }
    }

    // Simulated anything, even only cells that failed? Persist the
    // wall-clock artifact, which also records the failures.
    if !h.log().cells().is_empty() || !h.log().failures().is_empty() {
        for w in h.log().warnings() {
            eprintln!("repro: warning: {w}");
        }
        let consolidation = consolidation_json.borrow();
        let virt = virt_json.borrow();
        let mut extras: Vec<(&str, &str)> = Vec::new();
        if let Some(j) = consolidation.as_deref() {
            extras.push(("consolidation", j));
        }
        if let Some(j) = virt.as_deref() {
            extras.push(("virt", j));
        }
        let artifact = hpage_bench::json::bench_repro_json(
            h,
            profile_name,
            run_start.elapsed().as_secs_f64(),
            &extras,
        );
        if let Err(e) = std::fs::write(&bench_out, artifact + "\n") {
            eprintln!("repro: cannot write {bench_out}: {e}");
            std::process::exit(1);
        }
        if verbosity >= 1 {
            eprintln!("repro: wall-clock timings written to {bench_out}");
        }
    }

    // Partial output: every requested section was attempted (degraded
    // ones rendered as `n/a` rows) but at least one cell failed.
    // Distinct from exit 1 so callers can keep partial artifacts while
    // still flagging the run.
    if sections.failed || !h.log().failures().is_empty() {
        if verbosity >= 1 {
            eprintln!("repro: completed with failed cells (partial output)");
        }
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_section_degrades_to_an_n_a_row() {
        let h = Harness::sequential();
        let mut sections = Sections {
            verbosity: 0,
            failed: false,
        };
        let row = sections.run(&h, "json 7", || -> String {
            panic!("1 cell(s) failed: fig7/BFS/pcc: panicked: boom")
        });
        assert_eq!(
            row.unwrap_err(),
            "json 7: n/a (cell failed: 1 cell(s) failed: fig7/BFS/pcc: panicked: boom)"
        );
        assert!(sections.failed);
        let recorded: Vec<String> = h.log().sections().into_iter().map(|s| s.label).collect();
        assert_eq!(recorded, ["json 7"]);
        // A later healthy section prints as is; the run still exits 3.
        assert_eq!(sections.run(&h, "table 1", || "rows"), Ok("rows"));
        assert!(sections.failed);
    }
}
