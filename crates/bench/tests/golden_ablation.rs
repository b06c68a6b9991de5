//! Golden-fixture diff test for the design-choice ablation.
//!
//! `tests/golden/ablation_test.txt` pins both tables `repro --ablation`
//! prints (omnetpp, then BFS) under the `test` profile. It is the only
//! byte-exact pin on the native page-walk cache through the engine: the
//! "PWC only" and "PWC + PCC" rows run with a split paging-structure
//! cache, while fig1 runs without one and the virt golden covers only
//! the nested walker.
//!
//! The fixture is exactly the command's stdout. Regenerate (only after
//! an *intentional* semantic change):
//!
//! ```text
//! HPAGE_PROFILE=test cargo run --release -p hpage-bench --bin repro -- --ablation -j 1 -q
//! ```

use hpage_bench::render_ablation;
use hpage_sim::{Harness, SimProfile};
use hpage_trace::AppId;

#[test]
fn ablation_matches_committed_golden() {
    let h = Harness::sequential();
    let profile = SimProfile::test();
    let got = format!(
        "{}\n{}\n",
        render_ablation(&h, &profile, AppId::Omnetpp),
        render_ablation(&h, &profile, AppId::Bfs)
    );
    let want = include_str!("golden/ablation_test.txt");
    assert!(
        got == want,
        "ablation output drifted from the committed golden fixture\n\
         --- expected ---\n{want}\n--- got ---\n{got}"
    );
}
