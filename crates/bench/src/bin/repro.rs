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
use hpage_sim::{catch_quietly, CellJournal, Fig9Config, Harness, JournalError};
use hpage_trace::AppId;
use std::time::Duration;

const USAGE: &str = "usage: repro [--all] [--figure 1|2|5|6|7|8|9a|9b] [--table 1|2|storage] [--ablation] [--datasets] [--timeline] [--consolidation] [--tenants N] [--virt] [--ledger-out FILE] [--json 1|6|7|ablation|datasets] [--jobs N|-j N] [--sim-threads N] [--bench-out FILE] [--journal FILE | --resume FILE] [--soft-deadline-ms N] [--hard-deadline-ms N] [--quiet|-q] [--verbose|-v]
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
           --soft/--hard-deadline-ms flag or abandon overrunning cells;
           a section with a failed cell renders an 'n/a (cell failed: ...)' row
checkpoint: --journal FILE records each completed section; --resume FILE replays them
           byte-identically and re-runs only the rest (a malformed or mismatched journal is a usage error)
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

/// Parses a `--soft-deadline-ms`/`--hard-deadline-ms` operand. A zero
/// deadline would flag (soft) or abandon (hard) every cell before it
/// could finish, so it is a usage error.
fn deadline_ms(flag: &str, it: &mut std::vec::IntoIter<String>) -> u64 {
    match num_value(flag, it) {
        0 => die(&format!("{flag} must be at least 1")),
        ms => ms,
    }
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
/// Each section runs under [`catch_quietly`]: a grid with a failed cell
/// (the harness panics with an aggregate message *after* the grid
/// completes) degrades into an `n/a (cell failed: …)` row, reported
/// once on stderr and never by the panic hook, instead of aborting the
/// remaining sections, and the run exits with code 3. With a journal attached,
/// completed sections are recorded with their full rendered output;
/// on `--resume`, already-recorded sections replay that output
/// byte-identically without re-running any cells.
struct Sections {
    verbosity: u8,
    journal: Option<CellJournal>,
    failed: bool,
}

impl Sections {
    fn run<F: FnOnce() -> String>(&mut self, h: &Harness, label: &str, f: F) -> String {
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
        let out = catch_quietly(f);
        let wall = t0.elapsed().as_secs_f64();
        h.log().record_section(label, wall);
        match out {
            Ok(text) => {
                if self.verbosity >= 2 {
                    eprintln!("repro: {label} done in {wall:.1}s");
                }
                if let Some(j) = &mut self.journal {
                    if let Err(e) = j.record_section(label, &text) {
                        eprintln!("repro: warning: journal {}: {e}", j.path());
                    }
                }
                text
            }
            Err(payload) => {
                self.failed = true;
                let msg = panic_text(payload);
                eprintln!("repro: {label} failed: {msg}");
                format!("{label}: n/a (cell failed: {msg})")
            }
        }
    }
}

/// Every section `--all` renders, in order. Labels match the
/// single-section flags' (`--figure 7` is "figure 7"), so a journal
/// written by one invocation resumes under the other.
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

/// One unit of output, named by its label: a section run through
/// [`Sections::run`] (timed, journaled, degraded on failure), or a
/// table or JSON document printed as is.
enum Step {
    Section(String),
    Print(String),
}

/// Turns the section arguments into the steps they ask for, or
/// usage-errors on the first bad one — before any section runs, so a
/// typo at the end of a long invocation costs nothing.
fn parse_steps(args: &[String]) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--all" => steps.extend(ALL_SECTIONS.map(|label| Step::Section(label.into()))),
            "--figure" => {
                let which = it.next().unwrap_or("");
                let label = format!("figure {which}");
                if !ALL_SECTIONS.contains(&label.as_str()) {
                    die(&format!("unknown figure '{which}'"));
                }
                steps.push(Step::Section(label));
            }
            "--ablation" => steps.extend(
                ["ablation omnetpp", "ablation bfs"].map(|label| Step::Section(label.into())),
            ),
            "--datasets" | "--timeline" | "--consolidation" | "--virt" => {
                steps.push(Step::Section(arg["--".len()..].into()))
            }
            "--json" => {
                let which = it.next().unwrap_or("");
                if !JSON_TARGETS.contains(&which) {
                    die(&format!("unknown json target '{which}'"));
                }
                steps.push(Step::Print(format!("json {which}")));
            }
            "--table" => steps.push(Step::Print(match it.next().unwrap_or("") {
                which @ ("1" | "2") => format!("table {which}"),
                "storage" => "storage table".into(),
                other => die(&format!("unknown table '{other}'")),
            })),
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
    let mut journal_out: Option<String> = None;
    let mut resume_from: Option<String> = None;
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
            "--soft-deadline-ms" => {
                soft_deadline_ms = Some(deadline_ms("--soft-deadline-ms", &mut it))
            }
            "--hard-deadline-ms" => {
                hard_deadline_ms = Some(deadline_ms("--hard-deadline-ms", &mut it))
            }
            _ => rest.push(a),
        }
    }
    if rest.is_empty() && ledger_out.is_none() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let steps = parse_steps(&rest);
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

    let journal: Option<CellJournal> = match (&journal_out, &resume_from) {
        (Some(path), None) => Some(
            CellJournal::create(path, profile_name, &scale).unwrap_or_else(|e| {
                eprintln!("repro: cannot create journal {path}: {e}");
                std::process::exit(1);
            }),
        ),
        (None, Some(path)) => {
            let j = CellJournal::resume(path, profile_name, &scale).unwrap_or_else(|e| match e {
                JournalError::Invalid(_) => die(&e.to_string()),
                JournalError::Io(_) => {
                    eprintln!("repro: {e}");
                    std::process::exit(1);
                }
            });
            if verbosity >= 1 {
                eprintln!(
                    "repro: resuming from {path}: {} section(s) on record{}",
                    j.completed_sections(),
                    if j.skipped_lines() > 0 {
                        format!(", {} corrupt line(s) skipped", j.skipped_lines())
                    } else {
                        String::new()
                    }
                );
            }
            Some(j)
        }
        _ => None,
    };

    let jobs = jobs.unwrap_or_else(default_jobs);
    let harness = Harness::new(jobs).with_deadlines(
        soft_deadline_ms.map(Duration::from_millis),
        hard_deadline_ms.map(Duration::from_millis),
    );
    let h = &harness;
    if verbosity >= 1 && jobs > 1 {
        eprintln!("repro: running up to {jobs} simulation cells in parallel");
    }
    let mut sections = Sections {
        verbosity,
        journal,
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
    for step in &steps {
        match step {
            Step::Section(label) => println!("{}", sections.run(h, label, || render(label))),
            Step::Print(label) => println!("{}", render(label)),
        }
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
