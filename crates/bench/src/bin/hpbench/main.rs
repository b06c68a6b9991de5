//! `hpbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! hpbench run [--seed N] [--workload NAME]... [--out FILE] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--trace`, a run sets up every selected workload three times,
//! runs one warm-up and `S` seconds (default 10) of timed rounds per
//! workload with tracing off, then one traced pass per workload, each in
//! a fresh child process (`--trace 1`), one after another. `--trace 0`
//! runs only the rounds; `--trace 1` only the traced pass, in this
//! process. Every
//! metric is printed by name with its unit; the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 when every check passed,
//! 1 when one failed, and 2 for bad input. See README.md.

mod e2e;
mod host;
mod mirror;
mod report;
mod stats;
mod traced;
mod workloads;

use std::any::Any;
use std::ffi::OsString;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

use hpage_sim::EXPERIMENT_SEED;

use report::{parse_line, result_field, result_line, WorkloadReport};
use workloads::{Setup, WorkloadId};

const USAGE: &str = "\
usage: hpbench run [--seed N] [--workload NAME]... [--out FILE] [--seconds S] [--trace 0|1]

  --seed N         seed of the seeded workloads (default 12648430, i.e. 0xC0FFEE)
  --workload NAME  bfs_pcc, canneal_base_mmap, mix4_st2 or fig7_j2 (repeatable;
                   default: all four)
  --out FILE       also write one JSON record, host fingerprint first
  --seconds S      seconds of timed rounds per workload (default 10)
  --trace 0|1      0: only the timed rounds; 1: only the traced pass
                   (default: both, the traced pass in child processes)";

/// Seconds of timed rounds per workload without `--seconds`. It keeps a
/// full run of all four workloads under four minutes. BENCHMARK.json
/// runs one workload at a time with `--seconds` set to its longer
/// `run_seconds`, because on a shared host a longer window reads
/// steadier (README.md, "Measured noise").
const DEFAULT_SECONDS: u64 = 10;

/// Where set-up may write temporary files (relative to the working
/// directory); it leaves nothing there.
const SCRATCH_DIR: &str = ".hpbench_tmp";

/// A command line the tool cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    NoCommand,
    UnknownCommand(String),
    UnknownFlag(String),
    MissingValue(&'static str),
    BadNumber { flag: &'static str, value: String },
    UnknownWorkload(String),
    OutUnwritable { path: String, reason: String },
    NotUtf8(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "missing command (expected `run`)"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}` (expected `run`)"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            CliError::BadNumber { flag, value } => {
                write!(f, "`{flag}` takes a whole number in range, not `{value}`")
            }
            CliError::UnknownWorkload(w) => write!(
                f,
                "unknown workload `{w}` (expected bfs_pcc, canneal_base_mmap, mix4_st2 or fig7_j2)"
            ),
            CliError::OutUnwritable { path, reason } => {
                write!(f, "cannot write `--out {path}`: {reason}")
            }
            CliError::NotUtf8(arg) => write!(f, "argument `{arg}` is not valid UTF-8"),
        }
    }
}

/// A checked `run` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOptions {
    seed: u64,
    workloads: Vec<WorkloadId>,
    out: Option<PathBuf>,
    seconds: u64,
    /// `None`: rounds, then traced children. `Some(false)`: rounds only.
    /// `Some(true)`: traced pass only, in this process.
    trace: Option<bool>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Invocation {
    Help,
    Run(RunOptions),
}

/// Parses a whole number, decimal or `0x` hexadecimal.
fn parse_u64(flag: &'static str, value: &str) -> Result<u64, CliError> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| CliError::BadNumber {
        flag,
        value: value.to_string(),
    })
}

fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None => return Err(CliError::NoCommand),
        Some("help" | "--help" | "-h") => return Ok(Invocation::Help),
        Some("run") => {}
        Some(other) => return Err(CliError::UnknownCommand(other.to_string())),
    }
    let mut opts = RunOptions {
        seed: EXPERIMENT_SEED,
        workloads: Vec::new(),
        out: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &'static str| it.next().ok_or(CliError::MissingValue(name));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Invocation::Help),
            "--seed" => opts.seed = parse_u64("--seed", value("--seed")?)?,
            "--workload" => {
                let name = value("--workload")?;
                let id = WorkloadId::parse(name)
                    .ok_or_else(|| CliError::UnknownWorkload(name.clone()))?;
                if !opts.workloads.contains(&id) {
                    opts.workloads.push(id);
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--seconds" => {
                let v = value("--seconds")?;
                match parse_u64("--seconds", v)? {
                    0 => {
                        return Err(CliError::BadNumber {
                            flag: "--seconds",
                            value: v.clone(),
                        })
                    }
                    s => opts.seconds = s,
                }
            }
            "--trace" => {
                opts.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(CliError::BadNumber {
                            flag: "--trace",
                            value: other.to_string(),
                        })
                    }
                })
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WorkloadId::ALL.to_vec();
    }
    Ok(Invocation::Run(opts))
}

/// Runs `f`, turning a panic into its message.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload: Box<dyn Any + Send>| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Runs `f` and returns its result with its wall time in seconds.
pub(crate) fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The traced pass of each workload, in this process.
fn traced_here(ids: &[WorkloadId], seed: u64) -> Vec<WorkloadReport> {
    ids.iter()
        .map(|&id| {
            let mut report = WorkloadReport::new(id);
            eprintln!("hpbench: traced pass of {}", id.name());
            match Setup::build(id, seed, Path::new(SCRATCH_DIR)) {
                Ok(setup) => traced::run(&setup, seed, &mut report),
                Err(e) => {
                    report.attempted += 1;
                    report.fail(format!("setup: {e}"));
                }
            }
            report
        })
        .collect()
}

/// Runs the traced pass of `report`'s workload in a child process and
/// folds its metrics and counts into `report`.
fn traced_child(report: &mut WorkloadReport, seed: u64) {
    let name = report.id.name();
    eprintln!("hpbench: traced pass of {name} (child process)");
    let seed = seed.to_string();
    let args = ["run", "--workload", name, "--seed", &seed, "--trace", "1"];
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    match output {
        Ok(o) => fold_traced(report, &String::from_utf8_lossy(&o.stdout), o.status),
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("traced pass: cannot start: {e}"));
        }
    }
}

/// Folds a traced child's standard output and exit status into `report`.
/// The child's `peak_rss_mb` is the workload's: it replaces any value
/// already there, so each metric name appears once.
fn fold_traced(report: &mut WorkloadReport, stdout: &str, status: ExitStatus) {
    for metric in stdout
        .lines()
        .filter_map(|l| parse_line(l, report.id.name()))
    {
        match metric.name.as_str() {
            "peak_rss_mb" => {
                report.end_to_end.retain(|m| m.name != metric.name);
                report.end_to_end.push(metric);
            }
            "failed_frac" => {}
            _ => report.per_layer.push(metric),
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    match (
        result_field(last, "attempted"),
        result_field(last, "failed"),
    ) {
        (Some(attempted), Some(failed)) => {
            report.attempted += attempted;
            report.failed += failed;
            if failed > 0 {
                // The child printed each failed check on standard error.
                report
                    .problems
                    .push(format!("traced pass: {failed} failed checks"));
            } else if !status.success() {
                report.fail(format!("traced pass exited with {status}"));
            }
        }
        _ => {
            report.attempted += 1;
            report.fail(format!("traced pass exited with {status} and no result"));
        }
    }
}

fn run(opts: &RunOptions, out: Option<File>) -> i32 {
    let host = host::Fingerprint::probe(opts.seed);
    println!("{}", host.line());
    let mut reports = match opts.trace {
        Some(true) => traced_here(&opts.workloads, opts.seed),
        // A traced child reports `peak_rss_mb` when one follows.
        trace => e2e::run(
            &opts.workloads,
            opts.seed,
            opts.seconds,
            trace == Some(false),
            Path::new(SCRATCH_DIR),
        ),
    };
    if opts.trace.is_none() {
        for r in &mut reports {
            traced_child(r, opts.seed);
        }
    }
    for r in &reports {
        for line in r.lines() {
            println!("{line}");
        }
    }
    let mut status = if reports.iter().all(WorkloadReport::ok) {
        0
    } else {
        1
    };
    if let Some(file) = out {
        let mut w = BufWriter::new(file);
        let written =
            writeln!(w, "{}", report::record(&host.json(), &reports)).and_then(|()| w.flush());
        if let Err(e) = written {
            eprintln!("hpbench: writing the --out record: {e}");
            status = 1;
        }
    }
    println!("{}", result_line(&reports, opts.trace == Some(true)));
    status
}

/// The whole command line: exit code 0 (every check passed), 1 (a check
/// failed) or 2 (bad input, before any work starts).
fn cli(args: &[OsString]) -> i32 {
    let parsed = args
        .iter()
        .map(|a| {
            a.to_str()
                .map(str::to_string)
                .ok_or_else(|| CliError::NotUtf8(a.to_string_lossy().into_owned()))
        })
        .collect::<Result<Vec<String>, CliError>>()
        .and_then(|args| parse(&args));
    let opts = match parsed {
        Ok(Invocation::Help) => {
            println!("{USAGE}");
            return 0;
        }
        Ok(Invocation::Run(opts)) => opts,
        Err(e) => {
            eprintln!("hpbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let out = match &opts.out {
        None => None,
        Some(path) => match File::create(path) {
            Ok(f) => Some(f),
            Err(e) => {
                let err = CliError::OutUnwritable {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                };
                eprintln!("hpbench: {err}");
                return 2;
            }
        },
    };
    run(&opts, out)
}

fn main() {
    let args: Vec<OsString> = std::env::args_os().skip(1).collect();
    std::process::exit(cli(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Metric;

    fn args(list: &[&str]) -> Vec<OsString> {
        list.iter().map(OsString::from).collect()
    }

    fn parsed(list: &[&str]) -> Result<Invocation, CliError> {
        let list: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse(&list)
    }

    #[test]
    fn defaults_select_every_workload_at_the_experiment_seed() {
        let Ok(Invocation::Run(o)) = parsed(&["run"]) else {
            panic!("`run` parses");
        };
        assert_eq!(o.seed, EXPERIMENT_SEED);
        assert_eq!(o.workloads, WorkloadId::ALL.to_vec());
        assert_eq!((o.out, o.seconds, o.trace), (None, DEFAULT_SECONDS, None));
    }

    #[test]
    fn single_workload_flags_parse() {
        let Ok(Invocation::Run(o)) = parsed(&[
            "run",
            "--workload",
            "fig7_j2",
            "--seed",
            "0x2a",
            "--seconds",
            "10",
            "--trace",
            "0",
            "--workload",
            "fig7_j2",
        ]) else {
            panic!("flags parse");
        };
        assert_eq!(o.workloads, vec![WorkloadId::Fig7J2]);
        assert_eq!((o.seed, o.seconds, o.trace), (42, 10, Some(false)));
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        assert_eq!(
            parsed(&["run", "--rounds", "3"]),
            Err(CliError::UnknownFlag("--rounds".into()))
        );
        assert_eq!(cli(&args(&["run", "--rounds", "3"])), 2);
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        assert_eq!(
            parsed(&["run", "--workload", "bfs18_e2e"]),
            Err(CliError::UnknownWorkload("bfs18_e2e".into()))
        );
        assert_eq!(cli(&args(&["run", "--workload", "bfs18_e2e"])), 2);
    }

    #[test]
    fn missing_seed_is_a_typed_error() {
        assert_eq!(
            parsed(&["run", "--seed"]),
            Err(CliError::MissingValue("--seed"))
        );
        assert_eq!(cli(&args(&["run", "--seed"])), 2);
    }

    #[test]
    fn non_numeric_seed_is_a_typed_error() {
        for bad in ["seven", "-1", "0xZZ", "18446744073709551616"] {
            assert_eq!(
                parsed(&["run", "--seed", bad]),
                Err(CliError::BadNumber {
                    flag: "--seed",
                    value: bad.into()
                })
            );
            assert_eq!(cli(&args(&["run", "--seed", bad])), 2);
        }
    }

    #[test]
    fn other_bad_values_are_typed_errors() {
        assert!(matches!(
            parsed(&["run", "--trace", "2"]),
            Err(CliError::BadNumber {
                flag: "--trace",
                ..
            })
        ));
        assert!(matches!(
            parsed(&["run", "--seconds", "0"]),
            Err(CliError::BadNumber {
                flag: "--seconds",
                ..
            })
        ));
        assert_eq!(parsed(&[]), Err(CliError::NoCommand));
        assert_eq!(
            parsed(&["bench"]),
            Err(CliError::UnknownCommand("bench".into()))
        );
        assert_eq!(parsed(&["run", "--help"]), Ok(Invocation::Help));
    }

    #[test]
    fn non_utf8_argument_exits_2() {
        use std::os::unix::ffi::OsStringExt;
        let bad = OsString::from_vec(vec![b'b', 0xff, b'x']);
        assert_eq!(
            cli(&[OsString::from("run"), OsString::from("--workload"), bad]),
            2
        );
    }

    /// The standard output of `hpbench run --workload bfs_pcc --trace 1`,
    /// cut down to a few metrics.
    fn child_stdout(attempted: u64, failed: u64) -> String {
        let rss = Metric::new("peak_rss_mb", 218.8, "MiB");
        let calls = Metric::new("tlb.lookup.calls", 36198241.0, "count");
        format!(
            "host: seed=1\n{}\n{}\nbfs_pcc failed_frac 0 (0 of 14 runs failed)\n\
             {{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{}}}}",
            rss.line("bfs_pcc"),
            calls.line("bfs_pcc"),
        )
    }

    fn exit(code: i32) -> ExitStatus {
        use std::os::unix::process::ExitStatusExt;
        ExitStatus::from_raw(code << 8)
    }

    /// The metric names of a result line, in order.
    fn keys(line: &str) -> Vec<String> {
        let metrics = &line[line.find("\"metrics\":{").expect("metrics") + 11..];
        metrics
            .split("\"unit\":")
            .filter_map(|part| {
                let at = part.rfind("\":{\"value\"")?;
                let start = part[..at].rfind('"')? + 1;
                Some(part[start..at].to_string())
            })
            .collect()
    }

    #[test]
    fn a_workload_run_with_its_traced_child_reports_each_metric_once() {
        // `run --workload bfs_pcc`: the rounds read no RSS because a
        // traced child follows, and the child's value is the only one.
        let rounds = || {
            let mut report = WorkloadReport::new(WorkloadId::BfsPcc);
            report.attempted = 12;
            report.end_to_end.push(Metric::new("wall_s", 0.74, "s"));
            report.end_to_end.push(Metric::new("setup_s", 4.3, "s"));
            report
        };
        let mut report = rounds();
        fold_traced(&mut report, &child_stdout(14, 0), exit(0));
        let line = result_line(std::slice::from_ref(&report), false);
        hpage_obs::json::assert_json_shape(&line);
        assert_eq!(keys(&line), ["wall_s", "setup_s", "peak_rss_mb"], "{line}");
        assert_eq!((report.attempted, report.failed), (26, 0));
        assert!(report.ok());
        let layers = result_line(std::slice::from_ref(&report), true);
        assert_eq!(keys(&layers), ["tlb.lookup.calls"], "{layers}");

        // Had the rounds read one too, the child's would replace it.
        let mut both = rounds();
        both.end_to_end
            .push(Metric::new("peak_rss_mb", 300.0, "MiB"));
        fold_traced(&mut both, &child_stdout(14, 0), exit(0));
        let line = result_line(std::slice::from_ref(&both), false);
        assert_eq!(keys(&line), ["wall_s", "setup_s", "peak_rss_mb"], "{line}");
        assert!(line.contains("\"peak_rss_mb\":{\"value\":218.8,"), "{line}");
    }

    #[test]
    fn a_failed_traced_child_fails_the_workload() {
        let mut report = WorkloadReport::new(WorkloadId::BfsPcc);
        fold_traced(&mut report, &child_stdout(14, 2), exit(1));
        assert_eq!((report.attempted, report.failed), (14, 2));
        assert!(!report.ok());
        let mut silent = WorkloadReport::new(WorkloadId::BfsPcc);
        fold_traced(&mut silent, "host: seed=1\n", exit(101));
        assert_eq!((silent.attempted, silent.failed), (1, 1));
        let mut crashed = WorkloadReport::new(WorkloadId::BfsPcc);
        fold_traced(&mut crashed, &child_stdout(14, 0), exit(1));
        assert_eq!((crashed.attempted, crashed.failed), (14, 1));
    }

    #[test]
    fn unwritable_out_exits_2_before_any_work() {
        // A path under a regular file can never be created.
        let path = format!("{}/Cargo.toml/record.json", env!("CARGO_MANIFEST_DIR"));
        assert_eq!(
            cli(&args(&["run", "--workload", "fig7_j2", "--out", &path])),
            2
        );
    }
}
