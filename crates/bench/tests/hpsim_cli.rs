//! Error paths of the `hpsim` command line for inputs it does not
//! accept: a trace in the retired `HPT1` container, an `HPT2` trace with
//! junk after its end magic, a path that is not a regular file, retired
//! flags, numeric flags out of range or malformed, a flag where an
//! operand belongs, a flag the run would ignore, an output file that
//! cannot be opened, a malformed fault plan (truncated, an unknown kind
//! or key, a bad or missing `at`, or nested too deep to parse), and an
//! `HPAGE_PROFILE` or `HPAGE_SCALE` that names no profile.
//! Each must be a usage error (exit 2) with a message naming the
//! problem, never a panic, a hang or a silent fallback. An output file
//! that opens but cannot be written is a runtime error instead: exit 1,
//! without the usage text. `every_flag_acts_or_is_refused_in_every_mode`
//! crosses every flag with each of hpsim's modes (inspect, record, run;
//! a record or run reading an app or a replayed trace).

use std::collections::{BTreeSet, HashMap};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn hpsim(args: &[&str]) -> Output {
    hpsim_in(Path::new("."), args)
}

/// Runs hpsim with `dir` as its working directory.
fn hpsim_in<S: AsRef<OsStr>>(dir: &Path, args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpsim"))
        .current_dir(dir)
        .args(args)
        .env("HPAGE_PROFILE", "test")
        .output()
        .expect("spawn hpsim")
}

/// Runs hpsim in a new, empty directory under `root`, so relative output
/// paths land there; returns the output and the directory.
fn hpsim_fresh<S: AsRef<OsStr>>(root: &Path, args: &[S]) -> (Output, PathBuf) {
    static CELLS: AtomicUsize = AtomicUsize::new(0);
    let dir = root.join(format!("cell{}", CELLS.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir(&dir).unwrap();
    (hpsim_in(&dir, args), dir)
}

/// Asserts that `what` was refused at parse time: exit 2, `needle` on
/// stderr, nothing on stdout and no file created in `dir`.
fn assert_refused(what: &str, out: &Output, dir: &Path, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr:\n{stderr}");
    assert!(
        stderr.contains(needle) && !stderr.contains("unknown argument"),
        "{what}: want {needle:?} in stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what}: stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{what}: printed before failing");
    let files: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(files.is_empty(), "{what}: created {files:?}");
}

/// Asserts a usage error: exit 2, no panic, and `needle` on stderr.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "want {needle:?} in stderr:\n{stderr}"
    );
}

/// A unique temp path for this test process.
fn temp_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("hpage-hpsim-cli-{}-{name}", std::process::id()));
    path
}

#[test]
fn hpt1_trace_is_rejected() {
    let path = temp_path("trace.hpt1");
    // An HPT1 header followed by one record: header byte, varint delta.
    std::fs::write(&path, b"HPT1\x00\x02").unwrap();
    let p = path.to_str().unwrap();

    let out = hpsim(&["--trace-in", p, "--quiet"]);
    assert_usage_error(&out, &format!("hpsim: parse {p}: not an HPT2 trace file"));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn trace_with_trailing_bytes_is_rejected() {
    let path = temp_path("trailing.hpt2");
    let p = path.to_str().unwrap();
    let out = hpsim(&["--app", "bfs", "--trace-out", p, "--max-accesses", "5000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Junk after the `2TPH` end magic.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0xAB; 8]);
    std::fs::write(&path, bytes).unwrap();

    let want = format!("hpsim: parse {p}: HPT2 trace has trailing bytes");
    assert_usage_error(&hpsim(&["--trace-in", p, "--quiet"]), &want);
    assert_usage_error(&hpsim(&["--trace-info", p]), &want);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn non_regular_trace_is_rejected() {
    // Replay memory-maps the trace; a directory (like a pipe) cannot be.
    let dir = std::env::temp_dir();
    let d = dir.to_str().unwrap();
    let want = format!("hpsim: open {d}: HPT2 replay needs a regular file");
    assert_usage_error(&hpsim(&["--trace-in", d, "--quiet"]), &want);
    assert_usage_error(&hpsim(&["--trace-info", d]), &want);
}

#[test]
fn unopenable_output_files_fail_before_the_run() {
    // Each used to exit 2 only after both runs and the whole report.
    let path = "/nonexistent/dir/x";
    for flag in ["--events", "--metrics", "--chrome-trace", "--schedule-out"] {
        let out = hpsim(&["--app", "bfs", "--policy", "pcc", flag, path]);
        assert_usage_error(&out, &format!("hpsim: open {path}: "));
        assert!(out.stdout.is_empty(), "{flag}: printed before failing");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn write_failures_are_runtime_errors() {
    // `/dev/full` opens, then fails every write with ENOSPC.
    for flag in ["--events", "--metrics", "--chrome-trace", "--schedule-out"] {
        let out = hpsim(&[
            "--app",
            "bfs",
            "--policy",
            "pcc",
            "--max-accesses",
            "20000",
            flag,
            "/dev/full",
            "--quiet",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: stderr:\n{stderr}");
        assert!(
            stderr.contains("/dev/full: No space left on device"),
            "{flag}: stderr:\n{stderr}"
        );
        assert!(!stderr.contains("usage:"), "{flag}: stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: stderr:\n{stderr}");
    }
    // A record reads no run flag, so `--trace-out` goes without them.
    let out = hpsim(&[
        "--app",
        "bfs",
        "--max-accesses",
        "20000",
        "--trace-out",
        "/dev/full",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("/dev/full: No space left on device"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("usage:"), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_event_stream_is_reported_once() {
    // The sink's error reaches `hpsim: write ...` through `finish`; the
    // sink's own drop must not warn about the same failure again.
    let out = hpsim(&[
        "--app",
        "bfs",
        "--policy",
        "pcc",
        "--max-accesses",
        "20000",
        "--events",
        "/dev/full",
        "--quiet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert_eq!(
        stderr.matches("No space left on device").count(),
        1,
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("jsonl sink"), "stderr:\n{stderr}");
}

#[test]
fn retired_flag_is_an_unknown_argument() {
    for args in [
        &["--trace-format", "hpt2"][..],
        &["--mmap"],
        &["--bias", "0"],
    ] {
        let mut argv = vec!["--app", "bfs"];
        argv.extend_from_slice(args);
        argv.push("--quiet");
        let out = hpsim(&argv);
        assert_usage_error(&out, &format!("hpsim: unknown argument '{}'", args[0]));
    }
}

#[test]
fn flags_the_run_would_ignore_are_usage_errors() {
    // Each of these used to run without the flag taking effect: a
    // nonexistent schedule exited 0, `--events --quiet` wrote events to
    // a file named `--quiet` and was not quiet.
    let rows: [(&[&str], &str); 7] = [
        (
            &["--schedule-in", "/nonexistent"],
            "hpsim: --schedule-in requires --policy replay",
        ),
        (
            &["--policy", "linux", "--selection", "rr"],
            "hpsim: --selection requires --policy pcc",
        ),
        (
            &["--policy", "base", "--demotion"],
            "hpsim: --demotion requires --policy pcc",
        ),
        (&["--no-degrade"], "hpsim: --no-degrade requires --faults"),
        (
            &["--app", "mcf", "--dataset", "twitter"],
            "hpsim: --dataset requires a graph app",
        ),
        (
            &["--pcc-placement", "host"],
            "hpsim: --pcc-placement requires --nested",
        ),
        (
            &["--events", "--quiet"],
            "hpsim: --events needs a value, got flag '--quiet'",
        ),
    ];
    for (args, want) in rows {
        let out = hpsim(args);
        assert_usage_error(&out, want);
        assert!(out.stdout.is_empty(), "{args:?}: printed before failing");
    }
}

#[test]
fn out_of_range_numbers_are_usage_errors() {
    // Past the parser the first three would panic (fragmentation is a
    // percentage, a process needs a thread) and a huge thread count
    // aborts on allocation or runs for minutes; a zero access budget
    // simulates nothing.
    for (flag, value, want) in [
        (
            "--frag",
            "101",
            "hpsim: --frag 101 is out of range (max 100)",
        ),
        (
            "--frag",
            "150",
            "hpsim: --frag 150 is out of range (max 100)",
        ),
        ("--threads", "0", "hpsim: --threads must be at least 1"),
        (
            "--threads",
            "513",
            "hpsim: --threads 513 is out of range (max 512)",
        ),
        (
            "--threads",
            "4294967295",
            "hpsim: --threads 4294967295 is out of range (max 512)",
        ),
        (
            "--max-accesses",
            "0",
            "hpsim: --max-accesses must be at least 1",
        ),
        (
            "--budget-pct",
            "101",
            "hpsim: --budget-pct 101 is out of range (max 100)",
        ),
        (
            "--budget-pct",
            "18446744073709551615",
            "hpsim: --budget-pct 18446744073709551615 is out of range (max 100)",
        ),
    ] {
        let out = hpsim(&["--app", "bfs", flag, value, "--quiet"]);
        assert_usage_error(&out, want);
    }
}

#[test]
fn numeric_flags_never_panic_on_malformed_values() {
    // Every numeric flag against values a `u64`/`usize`/`u8` parser
    // rejects: negative, not a number, one past `u64::MAX`, empty. Exit
    // 0 or 2 is acceptable; 101 (a panic) never is.
    let flags = [
        "--threads",
        "--frag",
        "--budget-pct",
        "--seed",
        "--max-accesses",
        "--jobs",
        "--sim-threads",
    ];
    let values = ["-1", "abc", "18446744073709551616", ""];
    for flag in flags {
        for value in values {
            let out = hpsim(&["--app", "bfs", flag, value, "--quiet"]);
            let code = out.status.code();
            assert!(
                matches!(code, Some(0 | 2)),
                "hpsim {flag} {value:?} exited {code:?}, stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn malformed_fault_plans_are_usage_errors() {
    // `cell_panic` and `cell_stall` were harness-level kinds the
    // simulation ignored; a plan naming them is now refused. The deep
    // row would overflow the stack of an unbounded recursive parser.
    let deep = format!("{}{}", "[".repeat(30_000), "]".repeat(30_000));
    let rows: [(&str, &str, &str); 12] = [
        (
            "truncated",
            r#"{"faults": [{"kind": "oom", "at": 1"#,
            "expected ',' or '}'",
        ),
        (
            "unknown-kind",
            r#"{"faults": [{"kind": "warp_core_breach", "at": 0}]}"#,
            "unknown kind \"warp_core_breach\"",
        ),
        (
            "cell-panic",
            r#"{"faults": [{"kind": "cell_panic", "at": 0, "failures": 1}]}"#,
            "unknown kind \"cell_panic\"",
        ),
        (
            "cell-stall",
            r#"{"faults": [{"kind": "cell_stall", "at": 0, "millis": 5}]}"#,
            "unknown kind \"cell_stall\"",
        ),
        (
            "unknown-key",
            r#"{"faults": [{"kind": "oom", "at": 0, "typo": 1}]}"#,
            "unknown key \"typo\"",
        ),
        (
            "unknown-top-key",
            r#"{"faults": [], "extra": true}"#,
            "unknown key \"extra\"",
        ),
        (
            "float-at",
            r#"{"faults": [{"kind": "oom", "at": 1.5}]}"#,
            "non-integer number",
        ),
        (
            "negative-at",
            r#"{"faults": [{"kind": "oom", "at": -1}]}"#,
            "negative number",
        ),
        (
            "missing-at",
            r#"{"faults": [{"kind": "oom"}]}"#,
            "missing \"at\" interval",
        ),
        (
            "string-at",
            r#"{"faults": [{"kind": "oom", "at": "3"}]}"#,
            "\"at\" must be an unsigned integer",
        ),
        ("not-an-object", "[1, 2]", "top level must be an object"),
        ("deep", &deep, "nesting deeper than 128 levels"),
    ];
    for (name, plan, needle) in rows {
        let path = temp_path(&format!("plan-{name}.json"));
        std::fs::write(&path, plan).unwrap();
        let p = path.to_str().unwrap();
        let out = hpsim(&["--app", "bfs", "--faults", p, "--quiet"]);
        assert_usage_error(&out, &format!("hpsim: parse {p}: "));
        assert_usage_error(&out, needle);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn bad_profile_environment_is_a_usage_error() {
    // Scales outside 1..=30 used to panic inside the generator (hpsim
    // exited 101, repro 3); garbage used to fall back to the default.
    let cases = [
        ("HPAGE_SCALE", "0"),
        ("HPAGE_SCALE", "31"),
        ("HPAGE_SCALE", "-1"),
        ("HPAGE_SCALE", "abc"),
        ("HPAGE_PROFILE", "bogus"),
    ];
    for (var, value) in cases {
        let want = match var {
            "HPAGE_SCALE" => format!("HPAGE_SCALE must be an integer in 1..=30, got \"{value}\""),
            _ => format!("HPAGE_PROFILE must be test, scaled or paper, got \"{value}\""),
        };
        for (bin, args) in [
            (
                env!("CARGO_BIN_EXE_hpsim"),
                &["--app", "bfs", "--quiet"][..],
            ),
            (
                env!("CARGO_BIN_EXE_repro"),
                &["--figure", "7", "--quiet"][..],
            ),
        ] {
            let out = Command::new(bin)
                .args(args)
                .env("HPAGE_PROFILE", "test")
                .env(var, value)
                .output()
                .expect("spawn");
            assert_usage_error(&out, &want);
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("usage: "),
                "{var}={value}: no usage"
            );
        }
    }
}

#[test]
fn flags_a_mode_does_not_read_are_usage_errors() {
    // Each of these used to exit 0 with the flags after the mode's own
    // dropped: a record ran no simulation, so its --faults, --metrics,
    // --policy and --nested did nothing, and a replay read no --app.
    let root = temp_path("unread");
    std::fs::create_dir_all(&root).unwrap();
    let trace = root.join("t.hpt2");
    let t = trace.to_str().unwrap();
    let out = hpsim(&["--app", "bfs", "--trace-out", t, "--max-accesses", "5000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let rows: [(&[&str], &str); 6] = [
        (
            &[
                "--app",
                "bfs",
                "--trace-out",
                "x.hpt2",
                "--max-accesses",
                "5000",
                "--faults",
                "/nonexistent.json",
                "--threads",
                "4",
                "--metrics",
                "m.jsonl",
            ],
            "hpsim: --faults does not apply to --trace-out",
        ),
        (
            &["--trace-out", "x.hpt2", "--policy", "bogus"],
            "hpsim: --policy does not apply to --trace-out",
        ),
        (
            &[
                "--trace-info",
                t,
                "--policy",
                "bogus",
                "--events",
                "/nonexistent/x",
            ],
            "hpsim: --policy does not apply to --trace-info",
        ),
        (
            &["--trace-in", t, "--app", "mcf"],
            "hpsim: --app does not apply to a --trace-in run",
        ),
        (
            &["--trace-in", t, "--dataset", "twitter"],
            "hpsim: --dataset does not apply to a --trace-in run",
        ),
        (
            &[
                "--app",
                "bfs",
                "--trace-out",
                "x.hpt2",
                "--nested",
                "--ledger",
                "--audit",
            ],
            "hpsim: --nested does not apply to --trace-out",
        ),
    ];
    for (args, want) in rows {
        let (out, dir) = hpsim_fresh(&root, args);
        assert_refused(&format!("{args:?}"), &out, &dir, want);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn trace_info_counts_the_regions_its_records_touch() {
    use hpage_trace::Workload;
    let path = temp_path("regions.hpt2");
    let p = path.to_str().unwrap();
    let out = hpsim(&["--app", "bfs", "--trace-out", p, "--max-accesses", "5000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let trace = hpage_trace::MmapTrace::open("regions", &path).unwrap();
    let regions: BTreeSet<u64> = trace.trace().map(|a| a.addr.raw() >> 21).collect();

    let out = hpsim(&["--trace-info", p]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("2MiB regions touched"))
        .unwrap_or_else(|| panic!("no regions row in:\n{stdout}"));
    assert_eq!(
        row.split_whitespace().last(),
        Some(regions.len().to_string().as_str()),
        "{stdout}"
    );
    std::fs::remove_file(&path).unwrap();
}

/// How one flag shows in one mode of hpsim.
#[derive(Clone, Copy, Debug)]
enum Cell {
    /// Refused at parse time: exit 2, stderr names the flag, stdout is
    /// empty and no file is created.
    No,
    /// Exit 0, with stdout or the recorded trace unlike the baseline's.
    Changes,
    /// Exit 0, with this file written.
    Writes(&'static str),
    /// Exit 0, with stdout equal to the baseline's: the flag changes wall
    /// time only, and the report is promised byte-identical at any value.
    Same,
}

#[test]
fn every_flag_acts_or_is_refused_in_every_mode() {
    use Cell::{Changes, No, Same, Writes};
    let root = temp_path("modes");
    std::fs::create_dir_all(&root).unwrap();
    let at = |name: &str| root.join(name).to_str().unwrap().to_string();
    let (omnetpp, bfs, sched) = (at("omnetpp.hpt2"), at("bfs.hpt2"), at("run.sched"));
    let chaos = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/chaos.json");
    for setup in [
        [
            "--app",
            "omnetpp",
            "--max-accesses",
            "500000",
            "--trace-out",
            &omnetpp,
        ],
        [
            "--app",
            "bfs",
            "--max-accesses",
            "20000",
            "--trace-out",
            &bfs,
        ],
        [
            "--app",
            "omnetpp",
            "--max-accesses",
            "100000",
            "--schedule-out",
            &sched,
        ],
    ] {
        let out = hpsim(&setup);
        assert_eq!(out.status.code(), Some(0), "{setup:?}: {out:?}");
    }
    // A record writes `out.hpt2` in its own directory, so two runs'
    // stdout compare equal unless the flag changed them.
    let modes: [(&str, &[&str]); 5] = [
        ("info", &["--trace-info", &omnetpp]),
        (
            "record from app",
            &[
                "--app",
                "omnetpp",
                "--trace-out",
                "out.hpt2",
                "--max-accesses",
                "20000",
            ],
        ),
        (
            "record from replay",
            &[
                "--trace-in",
                &omnetpp,
                "--trace-out",
                "out.hpt2",
                "--max-accesses",
                "20000",
            ],
        ),
        (
            "run from app",
            &["--app", "omnetpp", "--max-accesses", "20000"],
        ),
        (
            "run from replay",
            &["--trace-in", &omnetpp, "--max-accesses", "20000"],
        ),
    ];
    const RUN: [Cell; 5] = [No, No, No, Changes, Changes];
    let writes = |file| [No, No, No, Writes(file), Writes(file)];
    // Each row: the flag under test first, then any flag it needs; the
    // arguments its effect is measured against; its cell in each mode.
    // A budget and degradation only show once promotions start, so those
    // two rows run longer.
    let rows: &[(&[&str], &[&str], [Cell; 5])] = &[
        (&["--app", "mcf"], &[], [No, Changes, No, Changes, No]),
        (
            &["--dataset", "twitter", "--app", "bfs"],
            &["--app", "bfs"],
            [No, Changes, No, Changes, No],
        ),
        // A replayed trace has no workload seed, and nothing a run prints
        // or writes depends on the fragmenter's seed.
        (&["--seed", "7"], &[], [No, Changes, No, Changes, No]),
        (
            &["--trace-in", "{bfs}"],
            &[],
            [No, No, Changes, No, Changes],
        ),
        (
            &["--trace-out", "x.hpt2"],
            &[],
            [
                No,
                Writes("x.hpt2"),
                Writes("x.hpt2"),
                Writes("x.hpt2"),
                Writes("x.hpt2"),
            ],
        ),
        (&["--trace-info", "{bfs}"], &[], [Changes, No, No, No, No]),
        (
            &["--max-accesses", "10000"],
            &[],
            [No, Changes, Changes, Changes, Changes],
        ),
        (&["--policy", "linux"], &[], RUN),
        (&["--selection", "rr"], &[], RUN),
        (&["--demotion"], &[], RUN),
        (
            &["--schedule-in", "{sched}", "--policy", "replay"],
            &[],
            RUN,
        ),
        (&["--threads", "2"], &[], RUN),
        (&["--frag", "50"], &[], RUN),
        (
            &["--budget-pct", "1", "--max-accesses", "100000"],
            &["--max-accesses", "100000"],
            RUN,
        ),
        (&["--jobs", "1"], &[], [No, No, No, Same, Same]),
        (&["--sim-threads", "2"], &[], [No, No, No, Same, Same]),
        (&["--nested"], &[], RUN),
        (
            &["--pcc-placement", "guest", "--nested"],
            &["--nested"],
            RUN,
        ),
        (&["--faults", "{chaos}"], &[], RUN),
        (
            &[
                "--no-degrade",
                "--faults",
                "{chaos}",
                "--max-accesses",
                "500000",
            ],
            &["--faults", "{chaos}", "--max-accesses", "500000"],
            RUN,
        ),
        (&["--events", "e.jsonl"], &[], writes("e.jsonl")),
        (&["--metrics", "m.jsonl"], &[], writes("m.jsonl")),
        (&["--chrome-trace", "c.json"], &[], writes("c.json")),
        (&["--schedule-out", "s.sched"], &[], writes("s.sched")),
        (&["--ledger"], &[], RUN),
        (&["--audit"], &[], RUN),
        (&["--throughput"], &[], RUN),
        (&["--quiet"], &[], RUN),
        (&["--verbose"], &[], RUN),
    ];

    // Every flag in the usage synopsis has a row.
    let help = String::from_utf8(hpsim(&["--help"]).stdout).unwrap();
    let synopsis = &help[..help.find("parallelism:").expect("usage sections")];
    let listed: BTreeSet<&str> = synopsis
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect();
    let tested: BTreeSet<&str> = rows.iter().map(|(args, ..)| args[0]).collect();
    assert_eq!(
        listed, tested,
        "a flag without a row, or a row without a flag"
    );

    let arg = |a: &&str| match *a {
        "{bfs}" => bfs.clone(),
        "{sched}" => sched.clone(),
        "{chaos}" => chaos.to_string(),
        a => a.to_string(),
    };
    // The observable result of an accepted command: stdout and the trace
    // a record wrote.
    let effect = |out: &Output, dir: &Path| {
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (stdout, std::fs::read(dir.join("out.hpt2")).ok())
    };
    let mut baselines = HashMap::new();
    for (args, base, cells) in rows {
        for ((mode, mode_args), cell) in modes.iter().zip(cells) {
            let argv: Vec<String> = mode_args.iter().chain(*args).map(arg).collect();
            let (out, dir) = hpsim_fresh(&root, &argv);
            let what = format!("{mode}: {argv:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            match *cell {
                No => assert_refused(&what, &out, &dir, args[0]),
                Writes(file) => {
                    assert_eq!(out.status.code(), Some(0), "{what}\n{stderr}");
                    let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
                    assert!(len > 0, "{what}: wrote no {file}");
                }
                Changes | Same => {
                    assert_eq!(out.status.code(), Some(0), "{what}\n{stderr}");
                    let base: Vec<String> = mode_args.iter().chain(*base).map(arg).collect();
                    let want = baselines.entry(base).or_insert_with_key(|base| {
                        let (out, dir) = hpsim_fresh(&root, base);
                        effect(&out, &dir)
                    });
                    let got = effect(&out, &dir);
                    match cell {
                        Changes => assert_ne!(&got, want, "{what}: no effect"),
                        _ => assert_eq!(&got, want, "{what}: output changed"),
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
