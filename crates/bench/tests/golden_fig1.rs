//! Golden-fixture diff test for Fig. 1.
//!
//! `tests/golden/repro_all_test.txt` is the stdout of
//! `HPAGE_PROFILE=test repro --all -j 1 --quiet`; `ci.sh` byte-compares
//! the whole file at `-j 1` and `-j 2`. This test slices Fig. 1 out of
//! it (from its title line up to, not including, the blank line before
//! Fig. 2's title) so the default test run still checks one figure
//! through the full engine. Fig. 1 was first pinned before the
//! page-table maps moved from SipHash `HashMap` to the vendored
//! [`FxHashMap`](hpage_types::FxHashMap) and before the array-backed
//! PMD/PTE levels, chunked trace generation, and derived TLB counters
//! landed: hashing and layout may only affect map iteration order, and
//! every iteration that reaches an output must be sorted first.
//!
//! Regenerate (only after an *intentional* semantic change):
//!
//! ```text
//! HPAGE_PROFILE=test cargo run --release -p hpage-bench --bin repro -- --all -j 1 --quiet \
//!     > crates/bench/tests/golden/repro_all_test.txt
//! ```

use hpage_bench::render_fig1;
use hpage_sim::{Harness, SimProfile};
use hpage_trace::AppId;

/// Fig. 1's section of the `repro --all` fixture: its title line through
/// the newline before the blank line that separates it from Fig. 2.
fn fig1_golden() -> &'static str {
    let all = include_str!("golden/repro_all_test.txt");
    let start = all
        .find("Fig. 1 — ")
        .expect("repro_all_test.txt has no Fig. 1 section");
    let len = all[start..]
        .find("\n\nFig. 2 — ")
        .expect("Fig. 2 does not follow Fig. 1 in repro_all_test.txt")
        + 1;
    &all[start..start + len]
}

#[test]
fn fig1_matches_committed_golden() {
    let got = render_fig1(&Harness::sequential(), &SimProfile::test(), &AppId::ALL);
    let want = fig1_golden();
    assert!(
        got == want,
        "fig1 output drifted from the committed golden fixture\n\
         --- expected ---\n{want}\n--- got ---\n{got}"
    );
}
