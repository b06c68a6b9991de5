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

use hpage_bench::*;
use hpage_sim::{CellJournal, Fig9Config, Harness, SupervisorConfig};
use hpage_trace::AppId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const USAGE: &str = "usage: repro [--all] [--figure 1|2|5|6|7|8|9a|9b] [--table 1|2|storage] [--ablation] [--datasets] [--timeline] [--consolidation] [--tenants N] [--virt] [--ledger-out FILE] [--json 1|6|7|ablation|datasets] [--jobs N|-j N] [--sim-threads N] [--bench-out FILE] [--journal FILE | --resume FILE] [--retries N] [--harness-faults FILE] [--soft-deadline-ms N] [--hard-deadline-ms N] [--quiet|-q] [--verbose|-v]
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
supervision: cells run under a supervisor — panics are isolated and retried (--retries, default 1)
           with seeded backoff; --soft/--hard-deadline-ms flag or abandon overrunning cells;
           --harness-faults injects cell_panic/cell_stall windows from a fault-plan JSON;
           a section whose cells still fail renders an 'n/a (cell failed: ...)' row
checkpoint: --journal FILE records completed cells+sections; --resume FILE replays completed
           sections byte-identically and re-runs only the rest
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

/// Consumes a flag's operand, or usage-errors naming the flag.
fn path_value(flag: &str, it: &mut std::vec::IntoIter<String>) -> String {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn num_value(flag: &str, it: &mut std::vec::IntoIter<String>) -> u64 {
    path_value(flag, it)
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} expects a number")))
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Section runner: progress notes, wall-clock accounting, journal
/// replay/record, and degraded rendering.
///
/// Each section runs under `catch_unwind`: a grid whose cells failed
/// past their retry budget (the harness panics with an aggregate
/// message *after* the grid completes) degrades into an
/// `n/a (cell failed: …)` row instead of aborting the remaining
/// sections, and the run exits with code 3. With a journal attached,
/// completed sections are recorded with their full rendered output;
/// on `--resume`, already-recorded sections replay that output
/// byte-identically without re-running any cells.
struct Sections {
    verbosity: u8,
    journal: Option<Arc<CellJournal>>,
    failed: std::cell::Cell<bool>,
}

impl Sections {
    fn run<F: FnOnce() -> String>(&self, h: &Harness, label: &str, f: F) -> String {
        if let Some(stored) = self
            .journal
            .as_ref()
            .and_then(|j| j.completed_section(label))
        {
            if self.verbosity >= 1 {
                eprintln!("repro: {label}: replayed from journal");
            }
            h.log().record_section(label, 0.0);
            return stored;
        }
        if self.verbosity >= 1 {
            eprintln!("repro: rendering {label}...");
        }
        let t0 = std::time::Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let wall = t0.elapsed().as_secs_f64();
        h.log().record_section(label, wall);
        match out {
            Ok(text) => {
                if self.verbosity >= 2 {
                    eprintln!("repro: {label} done in {wall:.1}s");
                }
                if let Some(j) = &self.journal {
                    if let Err(e) = j.record_section(label, &text) {
                        eprintln!("repro: warning: journal {}: {e}", j.path());
                    }
                }
                text
            }
            Err(payload) => {
                self.failed.set(true);
                let msg = panic_text(payload);
                eprintln!("repro: {label} failed: {msg}");
                format!("{label}: n/a (cell failed: {msg})")
            }
        }
    }
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
    let mut journal_out: Option<String> = None;
    let mut resume_from: Option<String> = None;
    let mut retries: u32 = 1;
    let mut harness_faults: Option<String> = None;
    let mut soft_deadline_ms: Option<u64> = None;
    let mut hard_deadline_ms: Option<u64> = None;
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
            "--journal" => journal_out = Some(path_value("--journal", &mut it)),
            "--resume" => resume_from = Some(path_value("--resume", &mut it)),
            "--harness-faults" => harness_faults = Some(path_value("--harness-faults", &mut it)),
            "--retries" => {
                retries = num_value("--retries", &mut it)
                    .try_into()
                    .unwrap_or_else(|_| die("--retries is out of range"))
            }
            "--soft-deadline-ms" => {
                soft_deadline_ms = Some(num_value("--soft-deadline-ms", &mut it))
            }
            "--hard-deadline-ms" => {
                hard_deadline_ms = Some(num_value("--hard-deadline-ms", &mut it))
            }
            _ => rest.push(a),
        }
    }
    let args = rest;
    if args.is_empty() && ledger_out.is_none() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if journal_out.is_some() && resume_from.is_some() {
        die("--journal and --resume are mutually exclusive (resume appends to its own file)");
    }
    let profile = profile_from_env().unwrap_or_else(|e| die(&e.to_string()));
    let profile_name = match std::env::var("HPAGE_PROFILE").as_deref() {
        Ok("test") => "test",
        Ok("paper") => "paper",
        _ => "scaled",
    };
    let scale = std::env::var("HPAGE_SCALE").unwrap_or_default();

    let mut supervisor = SupervisorConfig::default().with_max_retries(retries);
    if let Some(path) = &harness_faults {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("repro: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let plan = hpage_faults::FaultPlan::from_json(&text)
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        supervisor = supervisor.with_faults(plan);
    }
    if let Some(ms) = soft_deadline_ms {
        supervisor = supervisor.with_soft_deadline_ms(ms);
    }
    if let Some(ms) = hard_deadline_ms {
        supervisor = supervisor.with_hard_deadline_ms(ms);
    }

    let journal: Option<Arc<CellJournal>> = match (&journal_out, &resume_from) {
        (Some(path), None) => Some(Arc::new(
            CellJournal::create(path, profile_name, &scale).unwrap_or_else(|e| {
                eprintln!("repro: cannot create journal {path}: {e}");
                std::process::exit(1);
            }),
        )),
        (None, Some(path)) => {
            let j = CellJournal::resume(path, profile_name, &scale).unwrap_or_else(|e| {
                eprintln!("repro: {e}");
                std::process::exit(1);
            });
            if verbosity >= 1 {
                eprintln!(
                    "repro: resuming from {path}: {} section(s), {} cell(s) on record{}",
                    j.completed_sections(),
                    j.completed_cells(),
                    if j.skipped_lines() > 0 {
                        format!(", {} corrupt line(s) skipped", j.skipped_lines())
                    } else {
                        String::new()
                    }
                );
            }
            Some(Arc::new(j))
        }
        _ => None,
    };

    let jobs = jobs.unwrap_or_else(default_jobs);
    let mut harness = Harness::new(jobs).with_supervisor(supervisor);
    if let Some(j) = &journal {
        harness = harness.with_journal(Arc::clone(j));
    }
    let harness = harness;
    let h = &harness;
    if verbosity >= 1 && jobs > 1 {
        eprintln!("repro: running up to {jobs} simulation cells in parallel");
    }
    let sections = Sections {
        verbosity,
        journal,
        failed: std::cell::Cell::new(false),
    };
    let sweep: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 100];
    let quick_sweep: &[u64] = &[0, 1, 4, 16, 100];
    // Filled by the --consolidation / --virt sections so their metrics
    // ride along in the BENCH_repro.json artifact.
    let consolidation_json: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let virt_json: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let run_start = std::time::Instant::now();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => {
                println!("{}", sections.run(h, "table 1", render_table1));
                println!("{}", sections.run(h, "table 2", || render_table2(&profile)));
                println!("{}", sections.run(h, "storage table", render_storage));
                println!(
                    "{}",
                    sections.run(h, "figure 1", || render_fig1(h, &profile, &AppId::ALL))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 2", || render_fig2(
                        h,
                        &profile,
                        AppId::Bfs,
                        2_000_000
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 5", || render_fig5(
                        h,
                        &profile,
                        &AppId::ALL,
                        sweep
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 6", || render_fig6(
                        h,
                        &fig6_profile(&profile),
                        &AppId::GRAPH,
                        &[4, 8, 16, 32, 64, 128, 256, 512, 1024]
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 7", || render_fig7(
                        h,
                        &profile,
                        &AppId::GRAPH,
                        90
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 8", || render_fig8(
                        h,
                        &profile,
                        &AppId::GRAPH,
                        &[2, 4, 8],
                        quick_sweep
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 9a", || render_fig9(
                        h,
                        &profile,
                        Fig9Config {
                            app_a: AppId::PageRank,
                            app_b: AppId::Mcf
                        },
                        quick_sweep
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "figure 9b", || render_fig9(
                        h,
                        &profile,
                        Fig9Config {
                            app_a: AppId::PageRank,
                            app_b: AppId::Sssp
                        },
                        quick_sweep
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "ablation", || render_ablation(h, &profile, AppId::Bfs))
                );
                println!(
                    "{}",
                    sections.run(h, "timeline", || render_timeline(h, &profile, AppId::Bfs))
                );
            }
            "--figure" => {
                i += 1;
                let which = args.get(i).map(String::as_str).unwrap_or("");
                // Labels match the --all section names so a journal
                // written by one invocation resumes under the other.
                match which {
                    "1" => println!(
                        "{}",
                        sections.run(h, "figure 1", || render_fig1(h, &profile, &AppId::ALL))
                    ),
                    "2" => println!(
                        "{}",
                        sections.run(h, "figure 2", || render_fig2(
                            h,
                            &profile,
                            AppId::Bfs,
                            2_000_000
                        ))
                    ),
                    "5" => println!(
                        "{}",
                        sections.run(h, "figure 5", || render_fig5(
                            h,
                            &profile,
                            &AppId::ALL,
                            sweep
                        ))
                    ),
                    "6" => println!(
                        "{}",
                        sections.run(h, "figure 6", || render_fig6(
                            h,
                            &fig6_profile(&profile),
                            &AppId::GRAPH,
                            &[4, 8, 16, 32, 64, 128, 256, 512, 1024]
                        ))
                    ),
                    "7" => println!(
                        "{}",
                        sections.run(h, "figure 7", || render_fig7(
                            h,
                            &profile,
                            &AppId::GRAPH,
                            90
                        ))
                    ),
                    "8" => println!(
                        "{}",
                        sections.run(h, "figure 8", || render_fig8(
                            h,
                            &profile,
                            &AppId::GRAPH,
                            &[2, 4, 8],
                            quick_sweep
                        ))
                    ),
                    "9a" => println!(
                        "{}",
                        sections.run(h, "figure 9a", || render_fig9(
                            h,
                            &profile,
                            Fig9Config {
                                app_a: AppId::PageRank,
                                app_b: AppId::Mcf
                            },
                            quick_sweep
                        ))
                    ),
                    "9b" => println!(
                        "{}",
                        sections.run(h, "figure 9b", || render_fig9(
                            h,
                            &profile,
                            Fig9Config {
                                app_a: AppId::PageRank,
                                app_b: AppId::Sssp
                            },
                            quick_sweep
                        ))
                    ),
                    other => {
                        eprintln!("unknown figure '{other}'\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--ablation" => {
                println!(
                    "{}",
                    sections.run(h, "ablation omnetpp", || render_ablation(
                        h,
                        &profile,
                        AppId::Omnetpp
                    ))
                );
                println!(
                    "{}",
                    sections.run(h, "ablation bfs", || render_ablation(
                        h,
                        &profile,
                        AppId::Bfs
                    ))
                );
            }
            "--datasets" => {
                println!(
                    "{}",
                    sections.run(h, "datasets", || render_datasets(
                        h,
                        &profile,
                        &AppId::GRAPH
                    ))
                );
            }
            "--timeline" => {
                println!(
                    "{}",
                    sections.run(h, "timeline", || render_timeline(h, &profile, AppId::Bfs))
                );
            }
            "--consolidation" => {
                println!(
                    "{}",
                    sections.run(h, "consolidation", || {
                        let (text, json) = render_consolidation(h, &profile, tenants, sim_threads);
                        *consolidation_json.borrow_mut() = Some(json);
                        text
                    })
                );
            }
            "--virt" => {
                println!(
                    "{}",
                    sections.run(h, "virt", || {
                        let (text, json) = render_virt(h, &profile, sim_threads);
                        *virt_json.borrow_mut() = Some(json);
                        text
                    })
                );
            }
            "--json" => {
                i += 1;
                let which = args.get(i).map(String::as_str).unwrap_or("");
                match which {
                    "1" => println!(
                        "{}",
                        hpage_bench::json::fig1_json(&hpage_sim::fig1_page_sizes_on(
                            h,
                            &profile,
                            &AppId::ALL
                        ))
                    ),
                    "6" => println!(
                        "{}",
                        hpage_bench::json::fig6_json(&hpage_sim::fig6_pcc_size_on(
                            h,
                            &fig6_profile(&profile),
                            &AppId::GRAPH,
                            &[4, 16, 64, 128, 512]
                        ))
                    ),
                    "7" => println!(
                        "{}",
                        hpage_bench::json::fig7_json(
                            &hpage_sim::fig7_fragmentation_on(h, &profile, &AppId::GRAPH, 90),
                            90
                        )
                    ),
                    "ablation" => println!(
                        "{}",
                        hpage_bench::json::ablation_json(
                            "BFS",
                            &hpage_sim::ablation_design_choices_on(h, &profile, AppId::Bfs)
                        )
                    ),
                    "datasets" => println!(
                        "{}",
                        hpage_bench::json::datasets_json(&hpage_sim::dataset_sweep_on(
                            h,
                            &profile,
                            &AppId::GRAPH
                        ))
                    ),
                    other => {
                        eprintln!("unknown json target '{other}'\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--table" => {
                i += 1;
                let which = args.get(i).map(String::as_str).unwrap_or("");
                match which {
                    "1" => println!("{}", render_table1()),
                    "2" => println!("{}", render_table2(&profile)),
                    "storage" => println!("{}", render_storage()),
                    other => {
                        eprintln!("unknown table '{other}'\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = &ledger_out {
        if verbosity >= 1 {
            eprintln!("repro: rendering promotion ledger...");
        }
        let t0 = std::time::Instant::now();
        let (text, jsonl) = render_ledger(h, &profile, &AppId::GRAPH);
        h.log()
            .record_section("promotion ledger", t0.elapsed().as_secs_f64());
        println!("{text}");
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if verbosity >= 1 {
            eprintln!("repro: per-region ledger entries written to {path}");
        }
    }

    // Simulated anything? Persist the wall-clock artifact.
    if !h.log().cells().is_empty() {
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
    // ones rendered as `n/a` rows) but at least one cell exhausted its
    // retry budget. Distinct from exit 1 so callers can keep partial
    // artifacts while still flagging the run.
    if sections.failed.get() || !h.log().failures().is_empty() {
        if verbosity >= 1 {
            eprintln!("repro: completed with failed cells (partial output)");
        }
        std::process::exit(3);
    }
}
