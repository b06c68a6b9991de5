//! Golden-fixture diff test for the promotion ledgers.
//!
//! `tests/golden/ledger_test.txt` pins `hpsim --ledger` under the
//! `test` profile for four runs: BFS on four cores, omnetpp under the
//! `examples/chaos.json` fault plan, a nested omnetpp VM (guest ledger
//! plus host ledger), and Linux THP at 50% fragmentation. Each run's
//! stdout follows a `$ hpsim ARGS` header line. The ledgers are scored
//! against exact per-region walk counts, so this is the byte pin on
//! those counts, guest and host, and it must hold at any
//! `--sim-threads`.
//!
//! Regenerate (only after an *intentional* semantic change): run each
//! header's arguments from the workspace root as
//!
//! ```text
//! HPAGE_PROFILE=test hpsim ARGS -j 1 --quiet --sim-threads 1
//! ```
//! and concatenate header and stdout in order (`ci.sh` does exactly
//! that and compares the result with the fixture).

use std::path::Path;
use std::process::Command;

const RUNS: [&str; 4] = [
    "--app bfs --policy pcc --ledger --threads 4",
    "--app omnetpp --policy pcc --ledger --threads 2 --faults examples/chaos.json --max-accesses 500000",
    "--app omnetpp --policy pcc --ledger --nested --threads 2 --max-accesses 500000",
    "--app canneal --policy linux --frag 50 --ledger --threads 2 --max-accesses 500000",
];

/// The fixture's text for every run at `sim_threads` shards.
fn render(sim_threads: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut text = String::new();
    for args in RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_hpsim"))
            .current_dir(&root)
            .env("HPAGE_PROFILE", "test")
            .env_remove("HPAGE_SCALE")
            .args(args.split(' '))
            .args(["-j", "1", "--quiet", "--sim-threads", sim_threads])
            .output()
            .expect("spawn hpsim");
        assert!(out.status.success(), "hpsim {args}: {out:?}");
        text.push_str(&format!("$ hpsim {args}\n"));
        text.push_str(&String::from_utf8(out.stdout).expect("utf-8 report"));
    }
    text
}

#[test]
fn ledgers_match_committed_golden() {
    let want = include_str!("golden/ledger_test.txt");
    for sim_threads in ["1", "2"] {
        let got = render(sim_threads);
        assert!(
            got == want,
            "ledgers at --sim-threads {sim_threads} drifted from the committed golden fixture\n\
             --- expected ---\n{want}\n--- got ---\n{got}"
        );
    }
}
