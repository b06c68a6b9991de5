//! Error paths of the `repro` command line for numeric flags it does not
//! accept: zero where zero means nothing useful, garbage, a missing
//! operand, values past the flag's range and past `u64::MAX`. Each must
//! be a usage error (exit 2) whose message names the flag, never a
//! panic, a run of every cell to failure, or a silent fallback.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("HPAGE_PROFILE", "test")
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
/// one. Zero is swept for every flag but `--retries`, where it is a
/// valid budget (no retry; `ci.sh` runs with it).
const FLAGS: [(&str, bool, Option<&str>); 6] = [
    ("--jobs", true, Some("513")),
    ("--sim-threads", true, Some("513")),
    ("--tenants", true, Some("4097")),
    ("--retries", false, Some("4294967296")),
    ("--soft-deadline-ms", true, None),
    ("--hard-deadline-ms", true, None),
];

#[test]
fn numeric_flags_reject_bad_operands() {
    for (flag, zero_is_invalid, past_range) in FLAGS {
        let prefix = format!("repro: {flag} ");
        let mut values = vec!["abc", "-1", "", "18446744073709551616"];
        if zero_is_invalid {
            values.push("0");
        }
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
