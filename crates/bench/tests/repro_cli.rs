//! Error paths of the `repro` command line: numeric flags given zero
//! where zero means nothing useful, garbage, a missing operand, values
//! past the flag's range and past `u64::MAX`; a flag where an operand
//! belongs; retired flags; and a bad section argument after good ones.
//! Each must be a usage error (exit 2) whose message names the flag,
//! never a panic, a run of every cell to failure, or a silent fallback.

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
const FLAGS: [(&str, Option<&str>); 3] = [
    ("--jobs", Some("513")),
    ("--sim-threads", Some("513")),
    ("--tenants", Some("4097")),
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
fn retired_flags_are_unknown_arguments() {
    // Cells run once on the pool and the harness injects no cell faults,
    // so the retry budget, the harness fault plan and the per-cell
    // deadlines are gone; a long run resumes by rerunning the sections
    // its saved stdout lacks, so the section journal is gone too.
    for args in [
        &["--retries", "1"][..],
        &["--harness-faults", "x"],
        &["--soft-deadline-ms", "1"],
        &["--hard-deadline-ms", "1"],
        &["--journal", "F"],
        &["--resume", "F"],
    ] {
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
    let b = bench.to_str().unwrap();
    let rows: [(&[&str], &str); 5] = [
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
        // Once ran only the ledger and wrote it to a file named `--all`.
        (
            &["--ledger-out", "--all"],
            "repro: --ledger-out needs a value, got flag '--all'",
        ),
    ];
    for (args, prefix) in rows {
        let mut argv = args.to_vec();
        argv.extend(["--bench-out", b]);
        assert_usage_error(&argv, prefix);
        let out = repro(&argv);
        assert!(out.stdout.is_empty(), "{argv:?} printed before failing");
        assert!(!bench.exists(), "{argv:?} wrote the artifact");
    }
}
