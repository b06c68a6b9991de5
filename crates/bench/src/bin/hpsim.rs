//! `hpsim` — record, replay and inspect one simulation configuration.
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
//! A command line parses into one `Mode` whose variant holds only the
//! flags that mode reads: `--trace-info` inspects a recorded trace,
//! `--trace-out` records a source's accesses, and anything else runs a
//! simulation. A flag the mode does not read is a usage error.
//!
//! Profile selection follows `repro`: `HPAGE_PROFILE=test|scaled|paper`,
//! `HPAGE_SCALE=<log2 vertices>`.

use hpage_bench::profile_from_env;
use hpage_faults::FaultPlan;
use hpage_os::{read_schedule, write_schedule, PromotionBudget};
use hpage_perf::{fmt_pct, fmt_speedup, TextTable};
use hpage_sim::{JsonlSink, PolicyChoice, ProcessSpec, SimProfile, SimReport, Simulation, Tee};
use hpage_telemetry::TelemetryRecorder;
use hpage_trace::{instantiate, AppId, Dataset, Hpt2Writer, MmapTrace, ReuseAnalyzer, Workload};
use hpage_types::{derive_seed, NestedConfig, PccPlacement, PromotionPolicyKind};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

const USAGE: &str = "usage: hpsim [SOURCE] [RUN FLAGS]                         run a simulation
       hpsim [SOURCE] --trace-out FILE [--max-accesses N]  record the source's accesses
       hpsim --trace-info FILE                             summarise a recorded trace
SOURCE:      --app bfs|sssp|pr|canneal|omnetpp|xalancbmk|dedup|mcf (default bfs)
             [--dataset kronecker|twitter|web] [--seed N], or --trace-in FILE
RUN FLAGS:   [--policy base|ideal|linux|hawkeye|pcc|victim|replay] [--demotion]
             [--selection highest-frequency|round-robin] [--schedule-in FILE] [--threads N]
             [--frag PCT] [--budget-pct PCT] [--max-accesses N] [--nested]
             [--pcc-placement guest|host|both|none] [--jobs N|-j N] [--sim-threads N]
             [--events FILE] [--metrics FILE] [--chrome-trace FILE] [--schedule-out FILE]
             [--ledger] [--faults FILE] [--no-degrade] [--audit] [--throughput]
             [--quiet|-q] [--verbose|-v]
parallelism: --jobs 2+ runs the 4KB baseline concurrently with the instrumented run
             (default: available cores); --sim-threads N (default 1) shards the simulation
             loop across N threads, the calling thread and N-1 workers, and a process never
             spans shards; reports and event streams are byte-identical at any N of either
virtualization: --nested runs the workload as a VM under nested (2D) translation, every
             guest-walk step host-translated through per-VM host page tables, with 2D
             structure caches and a nested TLB; --pcc-placement picks the dimension(s) that
             run PCC-guided promotion (default both; with the guest off, the guest runs base
             pages and takes no policy flag). The baseline stays native 4KB, so the speedup
             column reads as nested-vs-native; repro --virt runs the four-placement ablation
tracing:     --trace-out dumps the access stream as an HPT2 trace (blocked, with per-block
             restart points and checksums); --trace-in replays one straight out of the file
             mapping (a regular file, validated in full first; --threads N splits its records
             round-robin over N cores); --trace-info summarises one
flight recorder: --events streams every simulation event (TLB hits, walks, faults, PCC
             updates, promotions, shootdowns, interval snapshots) as JSON Lines; --metrics
             writes the per-interval series plus the telemetry registry as JSONL
telemetry:   --ledger prints predicted vs realized walk savings for every promoted region
             with a prediction_accuracy summary; --chrome-trace writes parent/child spans
             (walk -> PCC update, promotion -> shootdown/compaction) as chrome-trace-viewer
             JSON (load in chrome://tracing or Perfetto)
robustness:  --faults loads a JSON fault plan (OOM windows, fragmentation shocks, compaction
             stalls, PCC resets, shootdown spikes) and enables graceful degradation
             (--no-degrade opts out, for A/B runs); --audit cross-checks OS/TLB/PCC
             invariants every interval and exits 1 on any violation
throughput:  --throughput times the instrumented run and appends an accesses/sec line
verbosity:   --quiet prints the results table only; -v adds the per-interval series
             and how many cores a trace producer thread fed
usage errors (exit 2): a flag whose operand is missing or is another flag; a flag the
             mode does not read (--trace-info takes its FILE alone, --trace-out a SOURCE and
             --max-accesses, --trace-in no --app, --dataset or --seed) or whose parent is
             absent (--selection and --demotion need --policy pcc, --schedule-in --policy
             replay, --no-degrade --faults, --pcc-placement --nested, --dataset a graph app);
             an input that cannot be read or an output file that cannot be opened, all
             checked before any workload is built
environment: HPAGE_PROFILE=test|scaled|paper   HPAGE_SCALE=<log2 vertices, 1..=30>";

/// Largest accepted `--jobs`, `--sim-threads` and `--threads` value —
/// far above any real machine, small enough to catch typos like
/// `--jobs 10000`.
const MAX_JOBS: u64 = 512;

/// The workload seed without `--seed`.
const SEED: u64 = 0xC0FFEE;

fn die(msg: &str) -> ! {
    eprintln!("hpsim: {msg}\n{USAGE}");
    exit(2)
}

fn default_jobs() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| (n.get() as u64).min(MAX_JOBS))
}

/// Runtime failure (not a usage error): no usage text, exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("hpsim: {msg}");
    exit(1)
}

/// Every flag that takes an operand, and every switch. Which mode reads
/// a flag is not listed here: each mode takes its flags from `Args`, and
/// any flag left over is refused.
const OPERAND_FLAGS: &str = "--app --dataset --seed --trace-in --trace-out --trace-info \
    --max-accesses --policy --selection --schedule-in --threads --frag --budget-pct --jobs \
    --sim-threads --pcc-placement --faults --events --metrics --chrome-trace --schedule-out";
const SWITCHES: &str =
    "--demotion --nested --no-degrade --ledger --audit --throughput --quiet --verbose";

/// The command line as `(flag, operand)` pairs in the order given (a
/// switch's operand is empty). Each mode takes the flags it reads, and
/// `Mode::from_args` refuses whatever is left.
struct Args(Vec<(&'static str, String)>);

impl Args {
    /// Splits the command line into flags. An unknown flag, and a
    /// missing operand or another flag in its place (`--events
    /// --quiet`), is a usage error naming the flag; `--help` prints the
    /// usage and exits.
    fn parse(argv: impl IntoIterator<Item = String>) -> Args {
        let mut argv = argv.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            let name = match arg.as_str() {
                "-j" => "--jobs",
                "-q" => "--quiet",
                "-v" => "--verbose",
                "--help" | "-h" => {
                    println!("{USAGE}");
                    exit(0)
                }
                name => name,
            };
            let find = |flags: &'static str| flags.split_whitespace().find(|f| *f == name);
            let (flag, operand) = match (find(OPERAND_FLAGS), find(SWITCHES)) {
                (Some(flag), _) => (flag, true),
                (None, Some(flag)) => (flag, false),
                (None, None) => die(&format!("unknown argument '{arg}'")),
            };
            let value = match operand.then(|| argv.next()) {
                None => String::new(),
                Some(Some(v)) if v.starts_with("--") => {
                    die(&format!("{arg} needs a value, got flag '{v}'"))
                }
                Some(Some(v)) => v,
                Some(None) => die(&format!("{arg} needs a value")),
            };
            given.push((flag, value));
        }
        Args(given)
    }

    /// Takes `flag`'s operand; of a repeated flag, the last one wins.
    fn take(&mut self, flag: &str) -> Option<String> {
        self.0
            .extract_if(.., |(f, _)| *f == flag)
            .last()
            .map(|(_, v)| v)
    }

    /// Takes a switch: whether it was given.
    fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// `flag`'s operand as a number in `min..=max`: zero, garbage and
    /// absurd values are usage errors, never a panic or a silent clamp.
    fn number(&mut self, flag: &str, min: u64, max: u64) -> Option<u64> {
        self.take(flag).map(|raw| match raw.parse::<u64>() {
            Ok(n) if n < min => die(&format!("{flag} must be at least {min}")),
            Ok(n) if n > max => die(&format!("{flag} {n} is out of range (max {max})")),
            Ok(n) => n,
            Err(_) => die(&format!("{flag} expects a number, got '{raw}'")),
        })
    }

    /// `--quiet` (0) or `--verbose` (2), whichever came last; 1 for neither.
    fn verbosity(&mut self) -> u8 {
        let given = self
            .0
            .extract_if(.., |(f, _)| matches!(*f, "--quiet" | "--verbose"));
        given
            .last()
            .map_or(1, |(f, _)| if f == "--quiet" { 0 } else { 2 })
    }

    /// Refuses `flag` if it is still unread: only `parent` reads it.
    fn requires(&self, flag: &str, parent: &str) {
        if self.0.iter().any(|(f, _)| *f == flag) {
            die(&format!("{flag} requires {parent}"));
        }
    }
}

/// What one command line does. Each variant holds only the flags that
/// mode reads, with every input (trace, fault plan, schedule) already
/// read; its outputs open first thing when it runs.
enum Mode {
    /// `--trace-info FILE`: summarise a recorded trace.
    Info(String),
    /// `--trace-out FILE`: write at most `cap` of the source's accesses
    /// as an HPT2 trace.
    Record {
        source: Source,
        out: String,
        cap: Option<u64>,
    },
    /// Simulate the source under a policy beside a 4 KiB baseline.
    Run(Box<Run>),
}

impl Mode {
    fn from_args(mut args: Args, profile: &SimProfile) -> Mode {
        let mode = match args.take("--trace-info") {
            Some(path) => Mode::Info(path),
            None => {
                let source = Source::from_args(&mut args);
                let cap = args.number("--max-accesses", 1, u64::MAX);
                let cap = cap.or(profile.max_accesses_per_core);
                match args.take("--trace-out") {
                    Some(out) => Mode::Record { source, out, cap },
                    None => Mode::Run(Box::new(Run::from_args(source, cap, &mut args))),
                }
            }
        };
        // A flag no field of the mode read would be ignored.
        if let Some((flag, _)) = args.0.first() {
            let name = match &mode {
                Mode::Info(_) => "--trace-info",
                Mode::Record {
                    source: Source::App { .. },
                    ..
                } => "--trace-out",
                Mode::Record { .. } => "--trace-out from --trace-in",
                Mode::Run(run) if matches!(run.source, Source::Replay(_)) => "a --trace-in run",
                Mode::Run(_) => "a run",
            };
            die(&format!("{flag} does not apply to {name}"));
        }
        mode
    }
}

/// The accesses a record or a run reads.
enum Source {
    /// A built-in workload: `--app`, with its `--dataset` and `--seed`.
    App {
        app: AppId,
        dataset: Dataset,
        seed: u64,
    },
    /// `--trace-in`: a recorded HPT2 trace, mapped and validated in full.
    Replay(MmapTrace),
}

impl Source {
    fn from_args(args: &mut Args) -> Source {
        if let Some(path) = args.take("--trace-in") {
            return Source::Replay(open_trace(&path));
        }
        let app = args.take("--app").map(parse_app).unwrap_or(AppId::Bfs);
        let dataset = app
            .is_graph()
            .then(|| args.take("--dataset").map(parse_dataset))
            .flatten();
        args.requires("--dataset", "a graph app (bfs, sssp or pr)");
        Source::App {
            app,
            dataset: dataset.unwrap_or(Dataset::Kronecker),
            seed: args.number("--seed", 0, u64::MAX).unwrap_or(SEED),
        }
    }

    /// Builds the workload (a graph is generated here), or hands over the
    /// mapped trace. The baseline run may read it from a worker thread.
    fn load(self, profile: &SimProfile) -> Box<dyn Workload + Sync> {
        match self {
            Source::App { app, dataset, seed } => {
                Box::new(instantiate(app, dataset, profile.workloads, seed))
            }
            Source::Replay(trace) => Box::new(trace),
        }
    }
}

/// An output file, created before any workload is built, so a path that
/// cannot be opened is a usage error that costs no simulation time.
struct OutFile {
    path: String,
    file: File,
}

impl OutFile {
    fn create(path: String) -> OutFile {
        let file = File::create(&path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
        OutFile { path, file }
    }
}

/// `--faults`: the parsed plan, and whether the run degrades under it
/// (`--no-degrade` opts out).
struct Faults {
    path: String,
    plan: FaultPlan,
    degrade: bool,
}

/// A simulation run and every flag it reads.
struct Run {
    source: Source,
    policy: PolicyChoice,
    threads: u64,
    /// `--frag PCT` above 0, and the seed the fragmenter derives its
    /// stream from.
    frag: Option<(u8, u64)>,
    budget_pct: Option<u64>,
    /// Accesses per core, at most.
    max_accesses: Option<u64>,
    jobs: Option<u64>,
    sim_threads: u64,
    /// `--nested`, with its `--pcc-placement`.
    nested: Option<PccPlacement>,
    faults: Option<Faults>,
    ledger: bool,
    audit: bool,
    throughput: bool,
    /// 0 = quiet (results table only), 1 = default, 2 = verbose.
    verbosity: u8,
    events: Option<String>,
    metrics: Option<String>,
    chrome_trace: Option<String>,
    schedule_out: Option<String>,
}

impl Run {
    fn from_args(source: Source, max_accesses: Option<u64>, args: &mut Args) -> Run {
        let nested = args.switch("--nested").then(|| {
            let placement = args.take("--pcc-placement").map(|raw| {
                PccPlacement::parse(&raw)
                    .unwrap_or_else(|e| die(&format!("--pcc-placement {raw}: {e}")))
            });
            placement.unwrap_or_default()
        });
        args.requires("--pcc-placement", "--nested");
        // The placement gates each dimension's promotion engine: with the
        // guest dimension off the guest runs base pages, as `repro --virt`
        // does per ablation cell, and no policy flag applies.
        let policy = match nested {
            Some(placement) if !placement.guest_enabled() => PolicyChoice::BasePages,
            _ => policy(args),
        };
        args.requires("--policy", "--pcc-placement guest or both");
        args.requires("--selection", "--policy pcc");
        args.requires("--demotion", "--policy pcc");
        args.requires("--schedule-in", "--policy replay");
        let faults = args.take("--faults").map(|path| Faults {
            plan: read_fault_plan(&path),
            degrade: !args.switch("--no-degrade"),
            path,
        });
        args.requires("--no-degrade", "--faults");
        // A replayed trace reads no `--seed`: its fragmenter takes the
        // default, and no report, event or file depends on which frames
        // it breaks.
        let seed = match source {
            Source::App { seed, .. } => seed,
            Source::Replay(_) => SEED,
        };
        let frag = args.number("--frag", 0, 100).filter(|&pct| pct > 0);
        let frag = frag.map(|pct| (pct as u8, seed));
        Run {
            source,
            policy,
            threads: args.number("--threads", 1, MAX_JOBS).unwrap_or(1),
            frag,
            budget_pct: args.number("--budget-pct", 0, 100),
            max_accesses,
            jobs: args.number("--jobs", 1, MAX_JOBS),
            sim_threads: args.number("--sim-threads", 1, MAX_JOBS).unwrap_or(1),
            nested,
            faults,
            ledger: args.switch("--ledger"),
            audit: args.switch("--audit"),
            throughput: args.switch("--throughput"),
            verbosity: args.verbosity(),
            events: args.take("--events"),
            metrics: args.take("--metrics"),
            chrome_trace: args.take("--chrome-trace"),
            schedule_out: args.take("--schedule-out"),
        }
    }
}

/// `--policy` (default pcc), with the flags only its variant reads:
/// `--selection` and `--demotion` under pcc, `--schedule-in` under
/// replay (the schedule is read here).
fn policy(args: &mut Args) -> PolicyChoice {
    let name = args.take("--policy").unwrap_or_else(|| "pcc".into());
    match name.to_lowercase().as_str() {
        "base" | "4k" => PolicyChoice::BasePages,
        "ideal" | "2m" => PolicyChoice::IdealHuge,
        "linux" | "thp" => PolicyChoice::LinuxThp,
        "hawkeye" => PolicyChoice::HawkEye,
        "pcc" => PolicyChoice::Pcc {
            selection: args
                .take("--selection")
                .map(parse_selection)
                .unwrap_or(PromotionPolicyKind::HighestFrequency),
            demotion: args.switch("--demotion"),
            bias: Vec::new(),
        },
        "victim" => PolicyChoice::VictimCache { entries: 128 },
        "replay" => {
            let path = args
                .take("--schedule-in")
                .unwrap_or_else(|| die("--policy replay needs --schedule-in"));
            let file = File::open(&path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
            PolicyChoice::Replay(
                read_schedule(file).unwrap_or_else(|e| die(&format!("parse {path}: {e}"))),
            )
        }
        other => die(&format!("unknown policy '{other}'")),
    }
}

fn parse_app(raw: String) -> AppId {
    match raw.to_lowercase().as_str() {
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

fn parse_dataset(raw: String) -> Dataset {
    match raw.to_lowercase().as_str() {
        "kronecker" | "kron" => Dataset::Kronecker,
        "twitter" => Dataset::Twitter,
        "web" | "sd1" => Dataset::Web,
        other => die(&format!("unknown dataset '{other}'")),
    }
}

fn parse_selection(raw: String) -> PromotionPolicyKind {
    match raw.to_lowercase().as_str() {
        "highest-frequency" | "hf" => PromotionPolicyKind::HighestFrequency,
        "round-robin" | "rr" => PromotionPolicyKind::RoundRobin,
        other => die(&format!("unknown selection '{other}'")),
    }
}

fn read_fault_plan(path: &str) -> FaultPlan {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    FaultPlan::from_json(&text).unwrap_or_else(|e| die(&format!("parse {path}: {e}")))
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

fn trace_info(path: &str) {
    let w = open_trace(path);
    let mut analyzer = ReuseAnalyzer::new();
    analyzer.observe_all(w.trace());
    let (friendly, hubs, low) = analyzer.class_counts();
    let total = (friendly + hubs + low).max(1);
    // Profiles come sorted by page, so a page's 2 MiB region repeats
    // only next to itself.
    let mut regions: Vec<u64> = analyzer
        .profiles()
        .iter()
        .map(|p| p.page.index() >> 9)
        .collect();
    regions.dedup();
    let share = |n: u64| format!("{n} ({:.1}%)", 100.0 * n as f64 / total as f64);
    let mut t = TextTable::new(["property", "value"]);
    for (property, value) in [
        ("records", w.records().to_string()),
        ("footprint", format!("{} KiB", w.footprint_bytes() >> 10)),
        ("2MiB regions touched", regions.len().to_string()),
        ("contiguous extents", w.regions().len().to_string()),
        ("TLB-friendly pages", share(friendly)),
        ("HUB pages", share(hubs)),
        ("low-reuse pages", share(low)),
        ("HUB regions", analyzer.hub_regions().len().to_string()),
    ] {
        t.row([property.to_string(), value]);
    }
    println!("{path}\n\n{t}");
}

/// Writes the source's first accesses (thread 0's stream) as HPT2.
fn record(source: Source, out: String, cap: Option<u64>, profile: &SimProfile) {
    let OutFile { path, file } = OutFile::create(out);
    let workload = source.load(profile);
    let trace = workload
        .trace()
        .take(cap.map_or(usize::MAX, |n| n as usize));
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
}

fn simulate(run: Run, profile: &SimProfile) {
    let [events, metrics, chrome_trace, schedule_out] =
        [run.events, run.metrics, run.chrome_trace, run.schedule_out]
            .map(|p| p.map(OutFile::create));
    let workload = run.source.load(profile);
    let footprint = workload.footprint_bytes();

    let sized = profile.clone().sized_for(footprint);
    let timing = sized.system.timing;
    let mut sim = Simulation::new(sized.system.clone(), run.policy)
        .with_sim_threads(run.sim_threads as usize);
    if let Some(placement) = run.nested {
        sim = sim.with_nested(NestedConfig::typical().with_placement(placement));
    }
    if let Some(n) = run.max_accesses {
        sim = sim.with_max_accesses_per_core(n);
    }
    if let Some((pct, seed)) = run.frag {
        // The fragmenter gets its own derived stream: feeding it the raw
        // workload seed would alias the two RNG sequences.
        sim = sim.with_fragmentation(pct, derive_seed(seed, "frag"));
    }
    if let Some(pct) = run.budget_pct {
        sim = sim.with_budget(PromotionBudget::percent_of_footprint(pct, footprint));
    }
    if let Some(faults) = &run.faults {
        sim = sim.with_faults(faults.plan.clone());
        if faults.degrade {
            sim = sim.with_degradation();
        }
    }
    if run.audit {
        sim = sim.with_audit();
    }
    if run.ledger {
        sim = sim.with_ledger();
    }

    // Baseline for the speedup column.
    let mut base_sim = Simulation::new(sized.system.clone(), PolicyChoice::BasePages)
        .with_sim_threads(run.sim_threads as usize);
    if let Some(n) = run.max_accesses {
        base_sim = base_sim.with_max_accesses_per_core(n);
    }
    let spec = || [ProcessSpec::with_threads(&*workload, run.threads as u32)];
    let run_base = || base_sim.run(&spec());
    // The instrumented run streams the flight recorder when requested;
    // the baseline run is never recorded (it is only a speedup anchor).
    // `--events` attaches the raw JSONL sink, `--metrics` and
    // `--chrome-trace` the telemetry recorder. With neither leg attached
    // the tee is disabled, and the run takes the recorder-less hot loop.
    let want_telemetry = metrics.is_some() || chrome_trace.is_some();
    let events_path = events.as_ref().map(|out| out.path.clone());
    let run_policy = || {
        let t0 = std::time::Instant::now();
        let sink = events.map(|out| JsonlSink::new(BufWriter::new(out.file)).with_path(out.path));
        let mut rec = Tee(sink, want_telemetry.then(TelemetryRecorder::new));
        let report = sim
            .try_run_recorded(&spec(), &mut rec)
            .unwrap_or_else(|e| fail(&format!("simulation failed: {e}")));
        let wall = t0.elapsed();
        let Tee(sink, telem) = rec;
        let event_counts = sink.zip(events_path.as_deref()).map(|(sink, path)| {
            let total = sink.total();
            let counts = sink
                .finish()
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            (total, counts)
        });
        (report, event_counts, telem, wall)
    };
    // Both runs are deterministic in their configuration, so overlapping
    // them changes wall-clock only, never the printed report.
    let (base, (report, event_counts, mut telemetry, policy_wall)) =
        if run.jobs.unwrap_or_else(default_jobs) > 1 {
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

    if run.verbosity >= 1 {
        // A graph kernel's name carries its dataset ("BFS-Twitter");
        // no other workload has one.
        println!(
            "{} ({} MiB footprint, {} threads, {}% fragmented)\n",
            workload.name(),
            footprint >> 20,
            run.threads,
            run.frag.map_or(0, |(pct, _)| pct)
        );
    }
    let mut t = TextTable::new(["metric", "baseline (4KB)", &report.policy]);
    let mut row = |metric: &str, base: String, policy: String| {
        t.row([metric.to_string(), base, policy]);
    };
    let (a, b) = (&report.aggregate, &base.aggregate);
    row("accesses", b.accesses.to_string(), a.accesses.to_string());
    row("PTW rate", fmt_pct(b.walk_ratio()), fmt_pct(a.walk_ratio()));
    row(
        "faults (base/huge)",
        format!("{}/{}", b.faults_base, b.faults_huge),
        format!("{}/{}", a.faults_base, a.faults_huge),
    );
    row("promotions", "0".into(), a.promotions.to_string());
    row("demotions", "0".into(), a.demotions.to_string());
    if run.nested.is_some() {
        row("host promotions", "0".into(), a.host_promotions.to_string());
        row("host shootdowns", "0".into(), a.host_shootdowns.to_string());
        let refs = a.walk_levels as f64 / a.walks.max(1) as f64;
        row("2D refs/walk", "-".into(), format!("{refs:.3}"));
    }
    let bloat = |r: &SimReport| format!("{} KiB", r.bloat_bytes.iter().sum::<u64>() >> 10);
    row(
        "huge pages at end",
        base.huge_pages_at_end.to_string(),
        report.huge_pages_at_end.to_string(),
    );
    row("memory bloat", bloat(&base), bloat(&report));
    let speedup = report.speedup_over(&base, &timing);
    row("speedup", fmt_speedup(1.0), fmt_speedup(speedup));
    println!("{t}");

    if run.throughput {
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

    if run.verbosity >= 2 && !report.interval_series.is_empty() {
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
    if run.verbosity >= 2 {
        // Whether the runs took the producer path; never in a report.
        println!(
            "producer-fed cores: {} (baseline and policy runs)",
            hpage_sim::producer_fed_cores()
        );
    }

    if let (Some((total, counts)), Some(path)) = (&event_counts, &events_path) {
        if run.verbosity >= 1 {
            let mut t = TextTable::new(["event", "count"]);
            for (kind, n) in counts {
                t.row([kind.to_string(), n.to_string()]);
            }
            println!("flight recorder: {total} events -> {path}\n{t}");
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

    // The recorder is attached exactly when --metrics or --chrome-trace
    // asked for it.
    if let Some(telem) = &telemetry {
        if let Some(OutFile { path, mut file }) = chrome_trace {
            file.write_all(telem.chrome_trace_json().as_bytes())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            if run.verbosity >= 1 {
                println!(
                    "wrote {} spans to {path} (load in chrome://tracing or ui.perfetto.dev)",
                    telem.spans().len()
                );
            }
        }
        if run.verbosity >= 2 {
            println!(
                "telemetry registry\n{}",
                telem.metrics_snapshot().render_text()
            );
        }
        if let Some(OutFile { path, file }) = metrics {
            let mut w = BufWriter::new(file);
            w.write_all(report.interval_series.to_jsonl().as_bytes())
                .and_then(|()| w.write_all(telem.metrics_snapshot().to_jsonl().as_bytes()))
                .and_then(|()| w.flush())
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            if run.verbosity >= 1 {
                println!(
                    "wrote {} interval metric rows and the telemetry registry to {path}",
                    report.interval_series.len()
                );
            }
        }
    }

    if let Some(OutFile { path, file }) = schedule_out {
        let mut w = BufWriter::new(file);
        write_schedule(&report.schedule, &mut w)
            .and_then(|()| w.flush())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        println!(
            "wrote {} promotion events to {path} (replay with --policy replay --schedule-in)",
            report.schedule.len()
        );
    }

    if let (Some(stats), Some(faults)) = (&report.fault_stats, &run.faults) {
        if run.verbosity >= 1 {
            let mut t = TextTable::new(["fault", "count"]);
            for (fault, n) in [
                ("faulted intervals", stats.faulted_intervals),
                ("OOM intervals", stats.oom_intervals),
                ("compaction stalls", stats.compaction_stall_intervals),
                ("fragmentation shocks", stats.shocks_fired),
                ("PCC resets", stats.pcc_resets),
                ("shootdown spikes", stats.shootdown_spike_intervals),
            ] {
                t.row([fault.to_string(), n.to_string()]);
            }
            println!("injected faults ({})\n{t}", faults.path);
        }
    }

    if run.audit {
        if report.audit_violations.is_empty() {
            if run.verbosity >= 1 {
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

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let profile = profile_from_env().unwrap_or_else(|e| die(&e.to_string()));
    match Mode::from_args(args, &profile) {
        Mode::Info(path) => trace_info(&path),
        Mode::Record { source, out, cap } => record(source, out, cap, &profile),
        Mode::Run(run) => simulate(*run, &profile),
    }
}
