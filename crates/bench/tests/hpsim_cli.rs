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
//! without the usage text.

use std::process::{Command, Output};

fn hpsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpsim"))
        .args(args)
        .env("HPAGE_PROFILE", "test")
        .output()
        .expect("spawn hpsim")
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
    for flag in [
        "--events",
        "--metrics",
        "--chrome-trace",
        "--schedule-out",
        "--trace-out",
    ] {
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
