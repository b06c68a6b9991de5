//! Error paths of the `repro` command line: numeric flags given zero
//! where zero means nothing useful, garbage, a missing operand, values
//! past the flag's range and past `u64::MAX`; retired flags; a bad
//! section argument after good ones; and a `--resume` journal that is
//! malformed or recorded under another profile. Each must be a usage
//! error (exit 2) whose message names the flag or file, never a panic,
//! a run of every cell to failure, or a silent fallback. Only a journal
//! that cannot be read exits 1. Cells that fail at run time exit 3,
//! reported without a panic message.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("HPAGE_PROFILE", "test")
        .env_remove("HPAGE_SCALE")
        .output()
        .expect("spawn repro")
}

/// Asserts a usage error: exit 2, no panic, and a first stderr line that
/// starts with `prefix` (the usage text after it names every flag, so
/// only the first line says which one was wrong).
fn assert_usage_error(args: &[&str], prefix: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}, stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}, stderr:\n{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(prefix),
        "{args:?}: want a first line starting {prefix:?}, got:\n{stderr}"
    );
}

/// The numeric flags, each with a value past its range where it has
/// one. Zero is invalid for all of them.
const FLAGS: [(&str, Option<&str>); 5] = [
    ("--jobs", Some("513")),
    ("--sim-threads", Some("513")),
    ("--tenants", Some("4097")),
    ("--soft-deadline-ms", None),
    ("--hard-deadline-ms", None),
];

#[test]
fn numeric_flags_reject_bad_operands() {
    for (flag, past_range) in FLAGS {
        let prefix = format!("repro: {flag} ");
        let mut values = vec!["abc", "-1", "", "18446744073709551616", "0"];
        values.extend(past_range);
        for value in values {
            assert_usage_error(&["--figure", "7", flag, value, "--quiet"], &prefix);
        }
        // A missing operand: the flag is the last argument.
        assert_usage_error(&["--figure", "7", "--quiet", flag], &prefix);
    }
}

#[test]
fn zero_deadlines_are_usage_errors() {
    // A zero hard deadline used to abandon every cell and exit 3 with a
    // panic backtrace; a zero soft deadline silently flagged every cell.
    for flag in ["--soft-deadline-ms", "--hard-deadline-ms"] {
        assert_usage_error(
            &["--figure", "1", flag, "0", "--quiet"],
            &format!("repro: {flag} must be at least 1"),
        );
    }
}

#[test]
fn retired_flags_are_unknown_arguments() {
    // Cells run once and the harness injects no cell faults, so the
    // retry budget and the harness fault plan are gone.
    for args in [&["--retries", "1"][..], &["--harness-faults", "x"]] {
        let mut argv = args.to_vec();
        argv.extend(["--figure", "7", "--quiet"]);
        assert_usage_error(&argv, &format!("repro: unknown argument '{}'", args[0]));
    }
}

/// A per-process path in the temp directory for this test's `name`.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hpage-repro-cli-{}-{name}", std::process::id()))
}

#[test]
fn section_arguments_are_checked_before_any_section_runs() {
    // A bad argument after a good section used to surface only after
    // that section had printed.
    let bench = temp_path("upfront.json");
    let journal = temp_path("upfront.jsonl");
    let (b, j) = (bench.to_str().unwrap(), journal.to_str().unwrap());
    let rows: [(&[&str], &str); 4] = [
        (
            &["--table", "1", "--bogus"],
            "repro: unknown argument '--bogus'",
        ),
        (
            &["--figure", "7", "--figure", "3"],
            "repro: unknown figure '3'",
        ),
        (
            &["--table", "storage", "--json", "x"],
            "repro: unknown json target 'x'",
        ),
        (&["--all", "--table"], "repro: unknown table ''"),
    ];
    for (args, prefix) in rows {
        let mut argv = args.to_vec();
        argv.extend(["--bench-out", b, "--journal", j]);
        assert_usage_error(&argv, prefix);
        let out = repro(&argv);
        assert!(out.stdout.is_empty(), "{argv:?} printed before failing");
        assert!(!bench.exists(), "{argv:?} wrote the artifact");
        assert!(!journal.exists(), "{argv:?} created the journal");
    }
}

#[test]
fn handled_cell_failures_print_no_panic() {
    // Every cell overruns a 1 ms hard deadline: the section degrades
    // to an n/a row and the run exits 3, and stderr says so without
    // the panic hook's "panicked at" and backtrace.
    let bench = temp_path("deadline.json");
    let b = bench.to_str().unwrap();
    let out = repro(&[
        "--figure",
        "7",
        "--hard-deadline-ms",
        "1",
        "-j",
        "2",
        "--bench-out",
        b,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("repro: figure 7 failed: "),
        "stderr:\n{stderr}"
    );
    assert!(
        stdout.starts_with("figure 7: n/a (cell failed: "),
        "stdout:\n{stdout}"
    );
    let artifact = std::fs::read_to_string(&bench).unwrap();
    std::fs::remove_file(&bench).unwrap();
    assert!(artifact.contains("\"failures\":[{\"label\":"), "{artifact}");
}

/// A journal header with the given magic, version, profile and scale.
fn header(magic: &str, version: u64, profile: &str, scale: &str) -> String {
    format!(
        "{{\"journal\":\"{magic}\",\"version\":{version},\"profile\":\"{profile}\",\"scale\":\"{scale}\"}}\n"
    )
}

#[test]
fn malformed_or_mismatched_journals_are_usage_errors() {
    // This run is profile=test with no HPAGE_SCALE (scale ""); a
    // version-1 journal is what builds with per-cell records wrote.
    let rows = [
        ("empty", String::new(), "empty file"),
        ("non-json", "not a journal\n".to_string(), "bad header"),
        ("array", "[1, 2]\n".to_string(), "header is not an object"),
        ("no-magic", "{}\n".to_string(), "header missing \"journal\""),
        (
            "magic",
            header("other", 2, "test", ""),
            "not an hpage-repro journal",
        ),
        (
            "version-1",
            header("hpage-repro", 1, "test", ""),
            "version 1 (this build reads 2)",
        ),
        (
            "profile",
            header("hpage-repro", 2, "paper", ""),
            "recorded under profile=paper scale=",
        ),
        (
            "scale",
            header("hpage-repro", 2, "test", "14"),
            "recorded under profile=test scale=14",
        ),
    ];
    for (name, text, needle) in rows {
        let path = temp_path(&format!("{name}.jsonl"));
        std::fs::write(&path, text).unwrap();
        let p = path.to_str().unwrap();
        assert_usage_error(
            &["--figure", "7", "--resume", p, "--quiet"],
            &format!("repro: journal {p}: {needle}"),
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn unreadable_journal_is_a_runtime_error() {
    let path = temp_path("missing.jsonl");
    let p = path.to_str().unwrap();
    let out = repro(&["--figure", "7", "--resume", p, "--quiet"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.starts_with(&format!("repro: journal {p}: cannot read")),
        "stderr:\n{stderr}"
    );
}
