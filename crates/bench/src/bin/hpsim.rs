//! `hpsim` — run one simulation configuration and print its report.
//!
//! ```text
//! hpsim --app bfs --policy pcc --budget-pct 4
//! hpsim --app canneal --policy linux --frag 90
//! hpsim --app pr --policy pcc --threads 4 --selection round-robin
//! hpsim --app sssp --policy pcc --schedule-out run.sched
//! hpsim --app sssp --policy replay --schedule-in run.sched
//! hpsim --app bfs --trace-out bfs.hpt      # dump the access trace
//! hpsim --app bfs --policy pcc --ledger    # predicted-vs-realized table
//! hpsim --app bfs --chrome-trace t.json    # spans for chrome://tracing
//! ```
//!
//! Profile selection follows `repro`: `HPAGE_PROFILE=test|scaled|paper`,
//! `HPAGE_SCALE=<log2 vertices>`.

use hpage_bench::profile_from_env;
use hpage_faults::FaultPlan;
use hpage_os::{read_schedule, write_schedule, PromotionBudget};
use hpage_perf::{fmt_pct, fmt_speedup, TextTable};
use hpage_sim::{JsonlSink, PolicyChoice, ProcessSpec, SimReport, Simulation, Tee};
use hpage_telemetry::TelemetryRecorder;
use hpage_trace::{instantiate, AnyWorkload, AppId, Dataset, Hpt2Writer, MmapTrace, Workload};
use hpage_types::{derive_seed, NestedConfig, PccPlacement, PromotionPolicyKind};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

const USAGE: &str = "usage: hpsim --app <bfs|sssp|pr|canneal|omnetpp|xalancbmk|dedup|mcf>
             [--dataset kronecker|twitter|web] [--policy base|ideal|linux|hawkeye|pcc|victim|replay]
             [--selection highest-frequency|round-robin] [--demotion]
             [--threads N] [--frag PCT] [--budget-pct PCT] [--seed N] [--max-accesses N]
             [--nested] [--pcc-placement guest|host|both|none]
             [--jobs N|-j N] [--sim-threads N] [--schedule-out FILE] [--schedule-in FILE] [--trace-out FILE]
             [--trace-in FILE] [--trace-info FILE] [--events FILE] [--metrics FILE]
             [--ledger] [--chrome-trace FILE] [--faults FILE] [--no-degrade]
             [--audit] [--throughput] [--quiet|-q] [--verbose|-v]
parallelism: --jobs 2+ runs the 4KB baseline concurrently with the
             instrumented run (default: available cores; the printed
             report is byte-identical at any N); --sim-threads N shards
             the simulation loop itself across N threads, the calling
             thread and N-1 workers; a process never spans shards
             (default 1; reports and event streams are byte-identical
             at any N)
virtualization: --nested runs the workload as a VM under nested (2D)
             translation: every guest-walk step is host-translated through
             per-VM host page tables, with 2D structure caches and a nested
             TLB; --pcc-placement picks which dimension(s) run PCC-guided
             promotion (default both; the printed baseline stays native 4KB,
             so the speedup column reads as nested-vs-native). repro --virt
             runs the full four-placement ablation
tracing:     --trace-out dumps the access stream as an HPT2 trace (blocked,
             with per-block restart points and checksums); --trace-in
             replays a recorded HPT2 trace straight out of the file mapping
             (FILE must be a regular file, validated in full before the run;
             --threads N splits its records round-robin over N cores);
             --trace-info summarises one
flight recorder: --events streams every simulation event (TLB hits, walks,
             faults, PCC updates, promotions, shootdowns, interval snapshots)
             as JSON Lines; --metrics writes the per-interval series plus the
             telemetry registry (counters, gauges, histograms) as JSONL
telemetry:   --ledger records predicted vs realized walk savings for every
             promoted region and prints the attribution table with a
             prediction_accuracy summary; --chrome-trace writes parent/child
             spans (walk -> PCC update, promotion -> shootdown/compaction) as
             chrome-trace-viewer JSON (load in chrome://tracing or Perfetto)
robustness:  --faults loads a JSON fault plan (OOM windows, fragmentation
             shocks, compaction stalls, PCC resets, shootdown spikes) and
             enables graceful degradation (--no-degrade opts out, for
             A/B runs); --audit cross-checks OS/TLB/PCC invariants every
             interval and exits 1 on any violation
throughput:  --throughput times the instrumented run and appends a
             simulator accesses/sec line
verbosity:   --quiet prints the results table only; -v adds the per-interval series
             and how many cores a trace producer thread fed
environment: HPAGE_PROFILE=test|scaled|paper   HPAGE_SCALE=<log2 vertices, 1..=30>";

/// Largest accepted `--jobs`, `--sim-threads` and `--threads` value —
/// far above any real machine, small enough to catch typos like
/// `--jobs 10000`.
const MAX_JOBS: usize = 512;

fn die(msg: &str) -> ! {
    eprintln!("hpsim: {msg}\n{USAGE}");
    exit(2)
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_JOBS))
        .unwrap_or(1)
}

/// Runtime failure (not a usage error): no usage text, exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("hpsim: {msg}");
    exit(1)
}

struct Options {
    app: AppId,
    dataset: Dataset,
    policy: String,
    selection: PromotionPolicyKind,
    demotion: bool,
    threads: u32,
    frag: u8,
    budget_pct: Option<u64>,
    seed: u64,
    max_accesses: Option<u64>,
    jobs: usize,
    sim_threads: usize,
    schedule_out: Option<String>,
    schedule_in: Option<String>,
    trace_out: Option<String>,
    trace_in: Option<String>,
    trace_info: Option<String>,
    events: Option<String>,
    metrics: Option<String>,
    nested: bool,
    pcc_placement: Option<PccPlacement>,
    ledger: bool,
    chrome_trace: Option<String>,
    faults: Option<String>,
    no_degrade: bool,
    audit: bool,
    throughput: bool,
    /// 0 = quiet (results table only), 1 = default, 2 = verbose.
    verbosity: u8,
}

fn parse_args() -> Options {
    let mut opts = Options {
        app: AppId::Bfs,
        dataset: Dataset::Kronecker,
        policy: "pcc".into(),
        selection: PromotionPolicyKind::HighestFrequency,
        demotion: false,
        threads: 1,
        frag: 0,
        budget_pct: None,
        seed: 0xC0FFEE,
        max_accesses: None,
        jobs: default_jobs(),
        sim_threads: 1,
        schedule_out: None,
        schedule_in: None,
        trace_out: None,
        trace_in: None,
        trace_info: None,
        events: None,
        metrics: None,
        nested: false,
        pcc_placement: None,
        ledger: false,
        chrome_trace: None,
        faults: None,
        no_degrade: false,
        audit: false,
        throughput: false,
        verbosity: 1,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| die("missing argument value"))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--app" => {
                opts.app = match value(&mut i).to_lowercase().as_str() {
                    "bfs" => AppId::Bfs,
                    "sssp" => AppId::Sssp,
                    "pr" | "pagerank" => AppId::PageRank,
                    "canneal" => AppId::Canneal,
                    "omnetpp" => AppId::Omnetpp,
                    "xalancbmk" => AppId::Xalancbmk,
                    "dedup" => AppId::Dedup,
                    "mcf" => AppId::Mcf,
                    other => die(&format!("unknown app '{other}'")),
                }
            }
            "--dataset" => {
                opts.dataset = match value(&mut i).to_lowercase().as_str() {
                    "kronecker" | "kron" => Dataset::Kronecker,
                    "twitter" => Dataset::Twitter,
                    "web" | "sd1" => Dataset::Web,
                    other => die(&format!("unknown dataset '{other}'")),
                }
            }
            "--policy" => opts.policy = value(&mut i).to_lowercase(),
            "--selection" => {
                opts.selection = match value(&mut i).to_lowercase().as_str() {
                    "highest-frequency" | "hf" => PromotionPolicyKind::HighestFrequency,
                    "round-robin" | "rr" => PromotionPolicyKind::RoundRobin,
                    other => die(&format!("unknown selection '{other}'")),
                }
            }
            "--demotion" => opts.demotion = true,
            "--threads" => {
                opts.threads = match value(&mut i).parse() {
                    Ok(0) => die("--threads must be at least 1"),
                    Ok(n) if n as usize > MAX_JOBS => {
                        die(&format!("--threads {n} is out of range (max {MAX_JOBS})"))
                    }
                    Ok(n) => n,
                    Err(_) => die("bad --threads"),
                }
            }
            "--frag" => {
                opts.frag = match value(&mut i).parse() {
                    Ok(pct) if pct > 100 => die(&format!("--frag {pct} is out of range (max 100)")),
                    Ok(pct) => pct,
                    Err(_) => die("bad --frag"),
                }
            }
            "--budget-pct" => {
                opts.budget_pct = match value(&mut i).parse() {
                    Ok(pct) if pct > 100 => {
                        die(&format!("--budget-pct {pct} is out of range (max 100)"))
                    }
                    Ok(pct) => Some(pct),
                    Err(_) => die("bad --budget-pct"),
                }
            }
            "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| die("bad --seed")),
            "--max-accesses" => {
                opts.max_accesses = match value(&mut i).parse() {
                    Ok(0) => die("--max-accesses must be at least 1"),
                    Ok(n) => Some(n),
                    Err(_) => die("bad --max-accesses"),
                }
            }
            "--jobs" | "-j" => {
                // Zero, garbage, and absurd values are usage errors
                // (exit 2), never a panic or a silent clamp.
                let raw = value(&mut i);
                opts.jobs = match raw.parse::<usize>() {
                    Ok(0) => die("--jobs must be at least 1"),
                    Ok(n) if n > MAX_JOBS => {
                        die(&format!("--jobs {n} is out of range (max {MAX_JOBS})"))
                    }
                    Ok(n) => n,
                    Err(_) => die(&format!("--jobs expects a number, got '{raw}'")),
                }
            }
            "--sim-threads" => {
                let raw = value(&mut i);
                opts.sim_threads = match raw.parse::<usize>() {
                    Ok(0) => die("--sim-threads must be at least 1"),
                    Ok(n) if n > MAX_JOBS => die(&format!(
                        "--sim-threads {n} is out of range (max {MAX_JOBS})"
                    )),
                    Ok(n) => n,
                    Err(_) => die(&format!("--sim-threads expects a number, got '{raw}'")),
                }
            }
            "--schedule-out" => opts.schedule_out = Some(value(&mut i)),
            "--schedule-in" => opts.schedule_in = Some(value(&mut i)),
            "--trace-out" => opts.trace_out = Some(value(&mut i)),
            "--trace-in" => opts.trace_in = Some(value(&mut i)),
            "--nested" => opts.nested = true,
            "--pcc-placement" => {
                let raw = value(&mut i);
                opts.pcc_placement = Some(
                    PccPlacement::parse(&raw)
                        .unwrap_or_else(|e| die(&format!("--pcc-placement {raw}: {e}"))),
                );
            }
            "--trace-info" => opts.trace_info = Some(value(&mut i)),
            "--events" => opts.events = Some(value(&mut i)),
            "--metrics" => opts.metrics = Some(value(&mut i)),
            "--ledger" => opts.ledger = true,
            "--chrome-trace" => opts.chrome_trace = Some(value(&mut i)),
            "--faults" => opts.faults = Some(value(&mut i)),
            "--no-degrade" => opts.no_degrade = true,
            "--audit" => opts.audit = true,
            "--throughput" => opts.throughput = true,
            "--quiet" | "-q" => opts.verbosity = 0,
            "--verbose" | "-v" => opts.verbosity = 2,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0)
            }
            other => die(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    opts
}

enum AnyOrRecorded {
    Builtin(AnyWorkload),
    /// `--trace-in`: replayed straight out of the file mapping.
    Mapped(MmapTrace),
}

// The baseline run may execute on a worker thread (`--jobs 2+`), reading
// the same workload as the instrumented run on the main thread.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<AnyOrRecorded>();
};

impl AnyOrRecorded {
    fn as_workload(&self) -> &dyn Workload {
        match self {
            AnyOrRecorded::Builtin(w) => w,
            AnyOrRecorded::Mapped(w) => w,
        }
    }
}

/// Maps and validates the HPT2 trace at `path`; any failure is a usage
/// error (exit 2).
fn open_trace(path: &str) -> MmapTrace {
    MmapTrace::open(format!("recorded:{path}"), std::path::Path::new(path)).unwrap_or_else(|e| {
        let verb = match e.kind() {
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => "parse",
            _ => "open",
        };
        die(&format!("{verb} {path}: {e}"))
    })
}

fn trace_info(path: &str) -> ! {
    use hpage_trace::ReuseAnalyzer;
    let w = open_trace(path);
    let mut analyzer = ReuseAnalyzer::new();
    analyzer.observe_all(w.trace());
    let (friendly, hubs, low) = analyzer.class_counts();
    let total = (friendly + hubs + low).max(1);
    let mut t = TextTable::new(["property", "value"]);
    t.row(["records".into(), w.records().to_string()]);
    t.row([
        "footprint".into(),
        format!("{} KiB", w.footprint_bytes() >> 10),
    ]);
    t.row([
        "2MiB regions touched".into(),
        (w.footprint_bytes().div_ceil(2 << 20)).to_string(),
    ]);
    t.row(["contiguous extents".into(), w.regions().len().to_string()]);
    t.row([
        "TLB-friendly pages".into(),
        format!(
            "{friendly} ({:.1}%)",
            100.0 * friendly as f64 / total as f64
        ),
    ]);
    t.row([
        "HUB pages".into(),
        format!("{hubs} ({:.1}%)", 100.0 * hubs as f64 / total as f64),
    ]);
    t.row([
        "low-reuse pages".into(),
        format!("{low} ({:.1}%)", 100.0 * low as f64 / total as f64),
    ]);
    t.row([
        "HUB regions".into(),
        analyzer.hub_regions().len().to_string(),
    ]);
    println!("{path}\n\n{t}");
    exit(0)
}

fn main() {
    let opts = parse_args();
    let profile = profile_from_env().unwrap_or_else(|e| die(&e.to_string()));
    if let Some(path) = &opts.trace_info {
        trace_info(path);
    }
    let holder = match &opts.trace_in {
        Some(path) => AnyOrRecorded::Mapped(open_trace(path)),
        None => AnyOrRecorded::Builtin(instantiate(
            opts.app,
            opts.dataset,
            profile.workloads,
            opts.seed,
        )),
    };
    let workload = holder.as_workload();
    let footprint = workload.footprint_bytes();

    if let Some(path) = &opts.trace_out {
        let file = File::create(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
        let cap = opts
            .max_accesses
            .or(profile.max_accesses_per_core)
            .unwrap_or(u64::MAX);
        let trace = workload.trace().take(cap as usize);
        let mut writer = Hpt2Writer::new(BufWriter::new(file))
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        writer
            .write_all(trace)
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        let n = writer.records();
        writer
            .finish()
            .unwrap_or_else(|e| fail(&format!("flush {path}: {e}")));
        println!("wrote {n} accesses of {} to {path} (hpt2)", workload.name());
        return;
    }

    let policy = match opts.policy.as_str() {
        "base" | "4k" => PolicyChoice::BasePages,
        "ideal" | "2m" => PolicyChoice::IdealHuge,
        "linux" | "thp" => PolicyChoice::LinuxThp,
        "hawkeye" => PolicyChoice::HawkEye,
        "pcc" => PolicyChoice::Pcc {
            selection: opts.selection,
            demotion: opts.demotion,
            bias: Vec::new(),
        },
        "victim" => PolicyChoice::VictimCache { entries: 128 },
        "replay" => {
            let path = opts
                .schedule_in
                .as_ref()
                .unwrap_or_else(|| die("--policy replay needs --schedule-in"));
            let file = File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
            let schedule =
                read_schedule(file).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
            PolicyChoice::Replay(schedule)
        }
        other => die(&format!("unknown policy '{other}'")),
    };
    if opts.pcc_placement.is_some() && !opts.nested {
        die("--pcc-placement requires --nested");
    }
    let placement = opts.pcc_placement.unwrap_or_default();
    // The placement gates each dimension's promotion engine: with the
    // guest dimension disabled the requested guest policy is overridden
    // to base pages, exactly as `repro --virt` does per ablation cell.
    let policy = if opts.nested && !placement.guest_enabled() {
        if opts.verbosity >= 1 && !matches!(policy, PolicyChoice::BasePages) {
            eprintln!("hpsim: --pcc-placement {placement} disables the guest dimension; guest runs base pages");
        }
        PolicyChoice::BasePages
    } else {
        policy
    };

    let sized = profile.clone().sized_for(footprint);
    let timing = sized.system.timing;
    let mut sim = Simulation::new(sized.system.clone(), policy);
    sim = sim.with_sim_threads(opts.sim_threads);
    if opts.nested {
        sim = sim.with_nested(NestedConfig::typical().with_placement(placement));
    }
    if let Some(n) = opts.max_accesses.or(profile.max_accesses_per_core) {
        sim = sim.with_max_accesses_per_core(n);
    }
    if opts.frag > 0 {
        // The fragmenter gets its own derived stream: feeding it the raw
        // workload seed would alias the two RNG sequences.
        sim = sim.with_fragmentation(opts.frag, derive_seed(opts.seed, "frag"));
    }
    if let Some(pct) = opts.budget_pct {
        sim = sim.with_budget(PromotionBudget::percent_of_footprint(pct, footprint));
    }
    if let Some(path) = &opts.faults {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
        let plan =
            FaultPlan::from_json(&text).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
        sim = sim.with_faults(plan);
        if !opts.no_degrade {
            sim = sim.with_degradation();
        }
    }
    if opts.audit {
        sim = sim.with_audit();
    }
    if opts.ledger {
        sim = sim.with_ledger();
    }

    // Baseline for the speedup column.
    let mut base_sim = Simulation::new(sized.system.clone(), PolicyChoice::BasePages)
        .with_sim_threads(opts.sim_threads);
    if let Some(n) = opts.max_accesses.or(profile.max_accesses_per_core) {
        base_sim = base_sim.with_max_accesses_per_core(n);
    }
    // `spec` captures the concrete holder (not `&dyn Workload`) so the
    // closure stays `Send` for the parallel baseline below.
    let spec = || {
        [ProcessSpec::with_threads(
            holder.as_workload(),
            opts.threads,
        )]
    };
    let run_base = || base_sim.run(&spec());
    // The instrumented run streams the flight recorder when requested;
    // the baseline run is never recorded (it is only a speedup anchor).
    // `--events` attaches the raw JSONL sink, `--metrics` and
    // `--chrome-trace` the telemetry recorder. With neither leg attached
    // the tee is disabled, and the run takes the recorder-less hot loop.
    let want_telemetry = opts.metrics.is_some() || opts.chrome_trace.is_some();
    type EventCounts = (u64, Vec<(String, u64)>);
    type PolicyOut = (
        SimReport,
        Option<EventCounts>,
        Option<TelemetryRecorder>,
        std::time::Duration,
    );
    let run_policy = || -> PolicyOut {
        let t0 = std::time::Instant::now();
        let sink = opts.events.as_deref().map(|path| {
            let file = File::create(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
            JsonlSink::new(BufWriter::new(file)).with_path(path)
        });
        let mut rec = Tee(sink, want_telemetry.then(TelemetryRecorder::new));
        let report = sim
            .try_run_recorded(&spec(), &mut rec)
            .unwrap_or_else(|e| fail(&format!("simulation failed: {e}")));
        let wall = t0.elapsed();
        let Tee(sink, telem) = rec;
        let event_counts = sink.zip(opts.events.as_deref()).map(|(sink, path)| {
            let total = sink.total();
            let counts = sink
                .finish()
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            let counts = counts
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            (total, counts)
        });
        (report, event_counts, telem, wall)
    };
    // Both runs are deterministic in their configuration, so overlapping
    // them changes wall-clock only, never the printed report.
    let (base, (report, event_counts, mut telemetry, policy_wall)) = if opts.jobs > 1 {
        std::thread::scope(|scope| {
            // Two engines at once: neither may take the other's CPU for
            // a trace producer.
            let _cpus = hpage_sim::claim_busy(2);
            let baseline = scope.spawn(|| {
                hpage_sim::cover_thread();
                run_base()
            });
            let policy_out = run_policy();
            (baseline.join().expect("baseline worker"), policy_out)
        })
    } else {
        (run_base(), run_policy())
    };
    // Fold the ledger's outcome accounting into the telemetry registry
    // so --metrics surfaces prediction_accuracy alongside the counters.
    if let (Some(telem), Some(ledger)) = (telemetry.as_mut(), report.ledger.as_ref()) {
        telem.ingest_ledger(ledger);
    }

    if opts.verbosity >= 1 {
        println!(
            "{} on {} ({} MiB footprint, {} threads, {}% fragmented)\n",
            workload.name(),
            opts.dataset.name(),
            footprint >> 20,
            opts.threads,
            opts.frag
        );
    }
    let mut t = TextTable::new(["metric", "baseline (4KB)", &report.policy]);
    let a = &report.aggregate;
    let b = &base.aggregate;
    t.row([
        "accesses".into(),
        b.accesses.to_string(),
        a.accesses.to_string(),
    ]);
    t.row([
        "PTW rate".into(),
        fmt_pct(b.walk_ratio()),
        fmt_pct(a.walk_ratio()),
    ]);
    t.row([
        "faults (base/huge)".into(),
        format!("{}/{}", b.faults_base, b.faults_huge),
        format!("{}/{}", a.faults_base, a.faults_huge),
    ]);
    t.row(["promotions".into(), "0".into(), a.promotions.to_string()]);
    t.row(["demotions".into(), "0".into(), a.demotions.to_string()]);
    if opts.nested {
        t.row([
            "host promotions".into(),
            "0".into(),
            a.host_promotions.to_string(),
        ]);
        t.row([
            "host shootdowns".into(),
            "0".into(),
            a.host_shootdowns.to_string(),
        ]);
        t.row([
            "2D refs/walk".into(),
            "-".into(),
            format!("{:.3}", a.walk_levels as f64 / a.walks.max(1) as f64),
        ]);
    }
    t.row([
        "huge pages at end".into(),
        base.huge_pages_at_end.to_string(),
        report.huge_pages_at_end.to_string(),
    ]);
    t.row([
        "memory bloat".into(),
        format!("{} KiB", base.bloat_bytes.iter().sum::<u64>() >> 10),
        format!("{} KiB", report.bloat_bytes.iter().sum::<u64>() >> 10),
    ]);
    t.row([
        "speedup".into(),
        fmt_speedup(1.0),
        fmt_speedup(report.speedup_over(&base, &timing)),
    ]);
    println!("{t}");

    if opts.throughput {
        // Simulator (host) throughput of the instrumented run: a quick
        // check, not a benchmark (hpbench is the benchmark). With
        // --jobs 2+ the 4KB baseline runs concurrently and contends for
        // the machine; use --jobs 1 for an uncontended measurement.
        let secs = policy_wall.as_secs_f64().max(1e-9);
        println!(
            "throughput: {} accesses in {secs:.3} s = {:.0} accesses/sec ({})",
            report.aggregate.accesses,
            report.aggregate.accesses as f64 / secs,
            report.policy
        );
    }

    if opts.verbosity >= 2 && !report.interval_series.is_empty() {
        let mut t = TextTable::new([
            "interval",
            "PTW rate",
            "L1 hit",
            "L2 hit",
            "promos",
            "demos",
            "PCC occ",
            "huge",
            "bloat KiB",
        ]);
        for (i, r) in report.interval_series.rows().iter().enumerate() {
            t.row([
                i.to_string(),
                fmt_pct(r.walk_rate),
                fmt_pct(r.l1_hit_rate),
                fmt_pct(r.l2_hit_rate),
                r.promotions.to_string(),
                r.demotions.to_string(),
                r.pcc_occupancy.to_string(),
                r.huge_pages_resident.to_string(),
                (r.bloat_bytes >> 10).to_string(),
            ]);
        }
        println!("per-interval series ({})\n{t}", report.policy);
    }
    if opts.verbosity >= 2 {
        // Whether the runs took the producer path; never in a report.
        println!(
            "producer-fed cores: {} (baseline and policy runs)",
            hpage_sim::producer_fed_cores()
        );
    }

    if let Some((total, counts)) = &event_counts {
        if opts.verbosity >= 1 {
            let mut t = TextTable::new(["event", "count"]);
            for (kind, n) in counts {
                t.row([kind.clone(), n.to_string()]);
            }
            println!(
                "flight recorder: {total} events -> {}\n{t}",
                opts.events.as_deref().unwrap_or_default()
            );
        }
    }

    // The attribution tables are the artifact --ledger asks for; print
    // them even at --quiet (CI greps the prediction_accuracy line).
    // Nested runs also score host promotions against host walks.
    for (name, ledger) in [
        ("promotion ledger", &report.ledger),
        ("host promotion ledger", &report.host_ledger),
    ] {
        if let Some(ledger) = ledger {
            println!("{name} ({})\n{}", report.policy, ledger.render_table());
        }
    }

    if let Some(telem) = &telemetry {
        if let Some(path) = &opts.chrome_trace {
            let mut file = File::create(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
            file.write_all(telem.chrome_trace_json().as_bytes())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            if opts.verbosity >= 1 {
                println!(
                    "wrote {} spans to {path} (load in chrome://tracing or ui.perfetto.dev)",
                    telem.spans().len()
                );
            }
        }
        if opts.verbosity >= 2 {
            println!(
                "telemetry registry\n{}",
                telem.metrics_snapshot().render_text()
            );
        }
    }

    if let Some(path) = &opts.metrics {
        let file = File::create(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
        let mut w = BufWriter::new(file);
        let telem = telemetry.as_ref().expect("--metrics attaches telemetry");
        w.write_all(report.interval_series.to_jsonl().as_bytes())
            .and_then(|()| w.write_all(telem.metrics_snapshot().to_jsonl().as_bytes()))
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        if opts.verbosity >= 1 {
            println!(
                "wrote {} interval metric rows and the telemetry registry to {path}",
                report.interval_series.len()
            );
        }
    }

    if let Some(path) = &opts.schedule_out {
        let file = File::create(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
        let mut w = BufWriter::new(file);
        write_schedule(&report.schedule, &mut w)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        println!(
            "wrote {} promotion events to {path} (replay with --policy replay --schedule-in)",
            report.schedule.len()
        );
    }

    if let Some(stats) = &report.fault_stats {
        if opts.verbosity >= 1 {
            let mut t = TextTable::new(["fault", "count"]);
            t.row([
                "faulted intervals".into(),
                stats.faulted_intervals.to_string(),
            ]);
            t.row(["OOM intervals".into(), stats.oom_intervals.to_string()]);
            t.row([
                "compaction stalls".into(),
                stats.compaction_stall_intervals.to_string(),
            ]);
            t.row([
                "fragmentation shocks".into(),
                stats.shocks_fired.to_string(),
            ]);
            t.row(["PCC resets".into(), stats.pcc_resets.to_string()]);
            t.row([
                "shootdown spikes".into(),
                stats.shootdown_spike_intervals.to_string(),
            ]);
            println!(
                "injected faults ({})\n{t}",
                opts.faults.as_deref().unwrap_or_default()
            );
        }
    }

    if opts.audit {
        if report.audit_violations.is_empty() {
            if opts.verbosity >= 1 {
                println!("audit: all invariants held every interval");
            }
        } else {
            eprintln!(
                "audit: {} invariant violation(s):",
                report.audit_violations.len()
            );
            for (interval, violation) in &report.audit_violations {
                eprintln!("  interval {interval}: {violation}");
            }
            exit(1);
        }
    }
}
