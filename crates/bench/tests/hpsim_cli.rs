//! Error paths of the `hpsim` command line for inputs it no longer
//! accepts: a trace in the retired `HPT1` container and the retired
//! flag that chose between containers. Each must be a usage error
//! (exit 2) with a message naming the problem, never a panic.

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

#[test]
fn hpt1_trace_is_rejected_with_and_without_mmap() {
    let mut path = std::env::temp_dir();
    path.push(format!("hpage-hpsim-cli-{}.hpt1", std::process::id()));
    // An HPT1 header followed by one record: header byte, varint delta.
    std::fs::write(&path, b"HPT1\x00\x02").unwrap();
    let p = path.to_str().unwrap();

    let out = hpsim(&["--trace-in", p, "--quiet"]);
    assert_usage_error(&out, &format!("hpsim: parse {p}: not an HPT2 trace file"));

    let out = hpsim(&["--trace-in", p, "--mmap", "--quiet"]);
    assert_usage_error(&out, &format!("hpsim: mmap {p}: not an HPT2 trace file"));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn container_flag_is_an_unknown_argument() {
    let flag = "--trace-format";
    let out = hpsim(&["--app", "bfs", flag, "hpt2", "--quiet"]);
    assert_usage_error(&out, &format!("hpsim: unknown argument '{flag}'"));
}
