//! Fences graph set-up's memory. Building the CSR of a Kronecker graph
//! files its edges by source block and fills the CSR one block at a
//! time, so the process never holds the whole edge list (8 bytes per
//! edge) next to the neighbour array (4 bytes per edge): its peak grows
//! by about 7 bytes per edge at scale 18, against 13 for a build from
//! one edge list. The records are freed as the CSR fills, and they must
//! leave the process rather than stay resident in the allocator.
//!
//! Both figures are process-wide (`VmHWM`, `VmRSS`), so this test has a
//! binary of its own: nothing else runs in the process while it
//! measures.

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`), in bytes.
#[cfg(target_os = "linux")]
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    let kib: u64 = line
        .trim()
        .strip_suffix("kB")
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line {line:?}"));
    kib * 1024
}

#[cfg(target_os = "linux")]
#[test]
fn graph_set_up_peaks_below_nine_bytes_per_edge_and_frees_its_records() {
    use hpage_trace::{generate_rmat, CsrGraph, RmatParams};

    let bytes = |g: &CsrGraph| (g.offsets().len() * 8 + g.neighbors().len() * 4) as u64;
    let rss_before = status_bytes("VmRSS");
    let peak_before = status_bytes("VmHWM");
    let kronecker = generate_rmat(&RmatParams::kronecker(18), 0xC0FFEE);
    let growth = status_bytes("VmHWM") - peak_before;
    let per_edge = growth as f64 / kronecker.edge_count() as f64;
    assert!(
        per_edge <= 9.0,
        "building kronecker(18) grew the peak RSS by {growth} bytes, {per_edge:.2} per edge"
    );
    // A second graph, built after the first one's records were freed,
    // as `mix4_st2` builds its two: what stays resident is the graphs.
    let social = generate_rmat(&RmatParams::social(18), 0xC0FFEE);
    let kept = status_bytes("VmRSS").saturating_sub(rss_before);
    let graphs = bytes(&kronecker) + bytes(&social);
    assert!(
        kept <= graphs + (4 << 20),
        "two scale-18 graphs of {graphs} bytes left {kept} bytes resident"
    );
}
