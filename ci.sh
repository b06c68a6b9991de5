#!/usr/bin/env bash
# CI gate: build, test, fmt and clippy over the whole workspace, then
# end-to-end smokes of the hpsim and repro binaries. The GitHub Actions
# workflow runs this script. Everything is offline: the external
# dependencies are stand-ins under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark smoke: hpbench as its own package, pinned digest =="
# Build hpbench through its standalone manifest, as BENCHMARK.json's
# runner does, and run one short workload: exit 0 means every run's
# digest matched the one pinned in hpbench.
CARGO_TARGET_DIR=.bench_build cargo build --offline --release \
    --manifest-path crates/bench/src/bin/hpbench/Cargo.toml
./.bench_build/release/hpbench run --workload bfs_pcc --seconds 1 --trace 0

echo "== chaos smoke: hpsim --faults examples/chaos.json --audit =="
HPAGE_PROFILE=test ./target/release/hpsim --policy pcc \
    --faults examples/chaos.json --audit --quiet

echo "== telemetry smoke: hpsim --ledger --metrics --chrome-trace =="
HPAGE_PROFILE=test ./target/release/hpsim --policy pcc --ledger \
    --metrics /tmp/hpsim_metrics.jsonl --chrome-trace trace_smoke.json \
    --quiet | tee /tmp/hpsim_ledger.txt
# The attribution table must report a finite run-level accuracy in [0,1].
grep -E '^prediction_accuracy: [01]\.[0-9]+$' /tmp/hpsim_ledger.txt
grep '"name":"ledger.prediction_accuracy_ppm"' /tmp/hpsim_metrics.jsonl
test -s trace_smoke.json

echo "== repro smoke: parallel harness determinism (-j 2 vs -j 1) =="
HPAGE_PROFILE=test ./target/release/repro --figure 7 --ablation \
    --jobs 2 --bench-out BENCH_repro.json --quiet > /tmp/repro_j2.txt
HPAGE_PROFILE=test ./target/release/repro --figure 7 --ablation \
    --jobs 1 --bench-out /tmp/BENCH_repro_j1.json --quiet > /tmp/repro_j1.txt
cmp /tmp/repro_j1.txt /tmp/repro_j2.txt
test -s BENCH_repro.json
if ./target/release/repro --figure 7 --jobs 0 --quiet > /dev/null 2>&1; then
    echo "repro accepted --jobs 0" >&2
    exit 1
fi

echo "== shard smoke: --sim-threads 4 report is byte-identical to 1 =="
HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc \
    --sim-threads 1 --quiet > /tmp/hpsim_st1.txt
HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc \
    --sim-threads 4 --quiet > /tmp/hpsim_st4.txt
cmp /tmp/hpsim_st1.txt /tmp/hpsim_st4.txt
if ./target/release/hpsim --app bfs --sim-threads 0 --quiet > /dev/null 2>&1; then
    echo "hpsim accepted --sim-threads 0" >&2
    exit 1
fi

echo "== trace pipeline smoke: record -> mmap replay byte-identical =="
# Record an HPT2 trace, then replay it through the zero-copy mmap path
# and the in-memory path: SimReport and event JSONL must be
# byte-identical at every --sim-threads/--jobs, including strided
# multi-thread replay (--threads 4).
HPAGE_PROFILE=test ./target/release/hpsim --app bfs \
    --trace-out /tmp/ci_trace.hpt2 --max-accesses 200000 > /dev/null
for st in 1 2 8; do
    HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
        --threads 4 --sim-threads "$st" --events /tmp/ci_mem_$st.jsonl \
        --quiet > /tmp/ci_mem_$st.txt
    HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
        --mmap --threads 4 --sim-threads "$st" --events /tmp/ci_map_$st.jsonl \
        --quiet > /tmp/ci_map_$st.txt
    cmp /tmp/ci_mem_$st.txt /tmp/ci_map_$st.txt
    cmp /tmp/ci_mem_$st.jsonl /tmp/ci_map_$st.jsonl
done
cmp /tmp/ci_mem_1.txt /tmp/ci_mem_8.txt
HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
    --mmap --threads 4 --jobs 8 --quiet > /tmp/ci_map_j8.txt
HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
    --threads 4 --jobs 1 --quiet > /tmp/ci_mem_j1.txt
cmp /tmp/ci_mem_j1.txt /tmp/ci_map_j8.txt

echo "== consolidation smoke: 32 tenants, fairness + storms in artifact =="
HPAGE_PROFILE=test ./target/release/repro --consolidation --tenants 32 \
    --sim-threads 4 --bench-out BENCH_consolidation.json --quiet \
    > /tmp/repro_consolidation.txt
grep -q 'Jain fairness over promotion shares:' /tmp/repro_consolidation.txt
grep -q '"consolidation":{"scenario":"consolidation","tenants":32' \
    BENCH_consolidation.json
grep -q '"fairness_index":' BENCH_consolidation.json
grep -q '"storms":{"flushes":' BENCH_consolidation.json

echo "== virt smoke: nested ablation deterministic, golden-pinned =="
# The 2D-translation ablation must be byte-identical at any shard/job
# count, match the committed golden fixture (stdout is the fixture plus
# repro's trailing blank line), and embed under "virt" in the artifact.
HPAGE_PROFILE=test ./target/release/repro --virt --sim-threads 1 --jobs 1 \
    --bench-out BENCH_virt.json --quiet > /tmp/repro_virt_1.txt
HPAGE_PROFILE=test ./target/release/repro --virt --sim-threads 8 --jobs 8 \
    --bench-out /tmp/BENCH_virt_8.json --quiet > /tmp/repro_virt_8.txt
cmp /tmp/repro_virt_1.txt /tmp/repro_virt_8.txt
cmp <(cat crates/bench/tests/golden/virt_test.txt; echo) /tmp/repro_virt_1.txt
grep -q 'verdict: PCCs in both dimensions beat either dimension alone' \
    /tmp/repro_virt_1.txt
grep -q '"virt":{"scenario":"virt"' BENCH_virt.json
HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc --nested \
    --sim-threads 1 --quiet > /tmp/hpsim_nested_1.txt
HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc --nested \
    --sim-threads 4 --quiet > /tmp/hpsim_nested_4.txt
cmp /tmp/hpsim_nested_1.txt /tmp/hpsim_nested_4.txt
grep -q 'host promotions' /tmp/hpsim_nested_1.txt
if ./target/release/hpsim --app bfs --pcc-placement host --quiet \
    > /dev/null 2>&1; then
    echo "hpsim accepted --pcc-placement without --nested" >&2
    exit 1
fi

echo "== supervisor smoke: injected panic -> partial output, exit 3 =="
# With no retry budget the injected cell panic must degrade exactly one
# section to an n/a row and exit with the partial-failure code, not 1.
set +e
HPAGE_PROFILE=test ./target/release/repro --figure 7 \
    --harness-faults examples/cell_chaos.json --retries 0 --jobs 2 \
    --bench-out /tmp/BENCH_repro_chaos.json --quiet \
    > /tmp/repro_chaos.txt 2>/dev/null
chaos_rc=$?
set -e
test "$chaos_rc" -eq 3
grep -q 'n/a (cell failed:' /tmp/repro_chaos.txt

echo "== supervisor smoke: retries absorb the same plan byte-identically =="
HPAGE_PROFILE=test ./target/release/repro --figure 7 --jobs 2 \
    --bench-out /tmp/BENCH_repro_fig7.json --quiet > /tmp/repro_fig7.txt
HPAGE_PROFILE=test ./target/release/repro --figure 7 \
    --harness-faults examples/cell_chaos.json --retries 2 --jobs 2 \
    --bench-out /tmp/BENCH_repro_retry.json --quiet > /tmp/repro_retry.txt
cmp /tmp/repro_retry.txt /tmp/repro_fig7.txt

echo "== checkpoint smoke: journal a partial run, resume the full one =="
# First run journals only figure 7; the resumed run replays it and adds
# the ablation, and must be byte-identical to the uninterrupted run.
HPAGE_PROFILE=test ./target/release/repro --figure 7 \
    --journal BENCH_repro_journal.jsonl --jobs 2 \
    --bench-out /tmp/BENCH_repro_part.json --quiet > /tmp/repro_part.txt
HPAGE_PROFILE=test ./target/release/repro --figure 7 --ablation \
    --resume BENCH_repro_journal.jsonl --jobs 2 \
    --bench-out /tmp/BENCH_repro_resumed.json --quiet > /tmp/repro_resumed.txt
cmp /tmp/repro_resumed.txt /tmp/repro_j2.txt
test -s BENCH_repro_journal.jsonl

echo "CI OK"
