#!/usr/bin/env bash
# CI gate: build, test, fmt and clippy over the whole workspace, then
# end-to-end smokes of the hpsim and repro binaries. The GitHub Actions
# workflow runs this script. Everything is offline: the external
# dependencies are stand-ins under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

# bounded NAME CMD...: runs a --sim-threads smoke under a time limit, so
# a deadlocked shard handoff fails the step by name instead of hanging
# the job.
bounded() {
    local name=$1
    shift
    local rc=0
    timeout 300 "$@" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "$name: no result after 300 s (shard handoff deadlock?)" >&2
    fi
    return "$rc"
}

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark smoke: hpbench as its own package, pinned digests =="
# Build hpbench through its standalone manifest, as BENCHMARK.json's
# runner does, and run both workloads briefly: exit 0 means every run's
# digest matched the one pinned in hpbench. mix4_st2 is the
# fragmentation and compaction run, so it also covers the allocator.
CARGO_TARGET_DIR=.bench_build cargo build --offline --release \
    --manifest-path crates/bench/src/bin/hpbench/Cargo.toml
./.bench_build/release/hpbench run --workload bfs_pcc --workload mix4_st2 \
    --seconds 1 --trace 0

echo "== probe smoke: l1_rate's TLB outcomes pinned =="
# The TLB-probe layer bench over the first 300k accesses of each stream:
# every column but ns/access (the fourth) must match the committed rows,
# so any change to a TLB outcome fails here by name, and the example
# keeps building and running.
cargo run --quiet --release -p hpage-sim --example l1_rate -- 1 300000 |
    awk 'NR > 1 { $4 = "-"; print }' > /tmp/l1_rate.txt
cmp crates/sim/tests/golden/l1_rate_300k.txt /tmp/l1_rate.txt

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

echo "== ledger smoke: promotion ledgers golden-pinned =="
# The fixture is each run's stdout after a `$ hpsim ARGS` header; rerun
# every header's arguments and compare, at one and at two shard threads.
ledger_golden=crates/bench/tests/golden/ledger_test.txt
for st in 1 2; do
    sed -n 's/^\$ hpsim //p' "$ledger_golden" | while read -r args; do
        echo "\$ hpsim $args"
        # shellcheck disable=SC2086 # the header holds whitespace-split flags
        bounded "hpsim $args --sim-threads $st" env HPAGE_PROFILE=test \
            ./target/release/hpsim $args -j 1 --quiet --sim-threads "$st"
    done > /tmp/hpsim_ledger_st$st.txt
    cmp "$ledger_golden" /tmp/hpsim_ledger_st$st.txt
done

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

echo "== ablation smoke: design-choice ablation golden-pinned =="
# The only byte-exact pin on the native page-walk cache through the
# engine (its "PWC only" and "PWC + PCC" rows). Stdout is the fixture.
HPAGE_PROFILE=test ./target/release/repro --ablation -j 1 \
    --bench-out /tmp/BENCH_repro_ablation.json --quiet > /tmp/repro_ablation.txt
cmp crates/bench/tests/golden/ablation_test.txt /tmp/repro_ablation.txt

echo "== figure smoke: every table and figure golden-pinned =="
# The whole of repro --all at the test profile; stdout is the fixture,
# at one and at two workers. golden_fig1 slices Fig. 1 out of it.
all_golden=crates/bench/tests/golden/repro_all_test.txt
for j in 1 2; do
    HPAGE_PROFILE=test ./target/release/repro --all -j "$j" \
        --bench-out "/tmp/BENCH_repro_all_j$j.json" --quiet > "/tmp/repro_all_j$j.txt"
    cmp "$all_golden" "/tmp/repro_all_j$j.txt"
done

echo "== shard smoke: --sim-threads 4 report is byte-identical to 1 =="
bounded "hpsim --sim-threads 1" env HPAGE_PROFILE=test ./target/release/hpsim \
    --app bfs --policy pcc --sim-threads 1 --quiet > /tmp/hpsim_st1.txt
bounded "hpsim --sim-threads 4" env HPAGE_PROFILE=test ./target/release/hpsim \
    --app bfs --policy pcc --sim-threads 4 --quiet > /tmp/hpsim_st4.txt
cmp /tmp/hpsim_st1.txt /tmp/hpsim_st4.txt
if ./target/release/hpsim --app bfs --sim-threads 0 --quiet > /dev/null 2>&1; then
    echo "hpsim accepted --sim-threads 0" >&2
    exit 1
fi

echo "== set-up and producer smoke: results do not depend on the host's cores =="
# At scale 18 (4M edges) graph set-up draws and builds on one thread per
# core; pinned to one core it runs as one range. A run also generates a
# core's trace on a producer thread only while a CPU is spare: pinned to
# one core it gets none, unpinned (one job, so the 4KB baseline does not
# run beside it) its first core gets one on a host with two or more.
# Reports and event streams must be byte-identical, so neither set-up
# threads nor producers ever reach a result. --threads 3 is one shard
# with three cores, only some of them fed by a producer; its event
# streams cover the first 300k accesses of each core. The HPT2 replay
# (strided over three cores) and the synthetic omnetpp run cover the
# producer over the other two kinds of trace source. -v adds the
# per-interval series and a "producer-fed cores" line: everything but
# that line must match, pinned runs must feed no core from a producer,
# and unpinned ones (on two or more CPUs) at least one, so the step
# shows that the producer path ran. Each run streams its events to one
# path, so -v's "flight recorder" line names the same file both ways.
all_cpus="0-$(($(nproc) - 1))"
events=/tmp/hpsim_setup_events.jsonl
HPAGE_PROFILE=test ./target/release/hpsim --app bfs \
    --trace-out /tmp/hpsim_setup_trace.hpt2 --max-accesses 200000 > /dev/null
for cpus in 0 "$all_cpus"; do
    HPAGE_PROFILE=test HPAGE_SCALE=18 taskset -c "$cpus" ./target/release/hpsim \
        --app bfs --policy pcc -j 1 -v > "/tmp/hpsim_setup_$cpus.txt"
    HPAGE_PROFILE=test HPAGE_SCALE=18 taskset -c "$cpus" ./target/release/hpsim \
        --app bfs --policy pcc -j 1 --threads 3 --max-accesses 300000 \
        --events "$events" -v > "/tmp/hpsim_setup_t3_$cpus.txt"
    mv "$events" "/tmp/hpsim_setup_t3_$cpus.jsonl"
    HPAGE_PROFILE=test taskset -c "$cpus" ./target/release/hpsim \
        --trace-in /tmp/hpsim_setup_trace.hpt2 --policy pcc -j 1 --threads 3 \
        --events "$events" -v > "/tmp/hpsim_setup_replay_$cpus.txt"
    mv "$events" "/tmp/hpsim_setup_replay_$cpus.jsonl"
    HPAGE_PROFILE=test taskset -c "$cpus" ./target/release/hpsim \
        --app omnetpp --policy pcc -j 1 --threads 2 --max-accesses 300000 \
        --events "$events" -v > "/tmp/hpsim_setup_omnetpp_$cpus.txt"
    mv "$events" "/tmp/hpsim_setup_omnetpp_$cpus.jsonl"
done
fed_line='^producer-fed cores: '
# fed FILE: the count on FILE's producer-fed line; fails without one.
fed() {
    grep "$fed_line" "$1" | cut -d' ' -f3 ||
        { echo "$1 has no producer-fed cores line" >&2; return 1; }
}
for run in setup setup_t3 setup_replay setup_omnetpp; do
    cmp <(grep -v "$fed_line" "/tmp/hpsim_${run}_0.txt") \
        <(grep -v "$fed_line" "/tmp/hpsim_${run}_$all_cpus.txt")
    pinned=$(fed "/tmp/hpsim_${run}_0.txt")
    unpinned=$(fed "/tmp/hpsim_${run}_$all_cpus.txt")
    if [ "$pinned" -ne 0 ]; then
        echo "$run pinned to one CPU fed $pinned cores from a producer, want 0" >&2
        exit 1
    fi
    if [ "$(nproc)" -ge 2 ] && [ "$unpinned" -lt 1 ]; then
        echo "$run on $(nproc) CPUs fed no core from a producer" >&2
        exit 1
    fi
    echo "$run: producer-fed cores pinned $pinned, unpinned $unpinned"
done
if [ "$(nproc)" -lt 2 ]; then
    echo "producer check skipped: one CPU, so no run starts a producer"
fi
for run in setup_t3 setup_replay setup_omnetpp; do
    cmp "/tmp/hpsim_${run}_0.jsonl" "/tmp/hpsim_${run}_$all_cpus.jsonl"
done
# A scale the generator cannot take is a usage error, not a panic.
for scale in 0 abc; do
    scale_rc=0
    HPAGE_SCALE=$scale ./target/release/hpsim --app bfs --policy pcc \
        --quiet > /dev/null 2>&1 || scale_rc=$?
    if [ "$scale_rc" -ne 2 ]; then
        echo "hpsim HPAGE_SCALE=$scale exited $scale_rc, want 2" >&2
        exit 1
    fi
done

echo "== recording-purity smoke: recording leaves the report unchanged =="
# The flight recorder is pure observation: the report of a run that
# streams its events must be byte-identical to the run without them.
purity() {
    local name=$1
    shift
    bounded "hpsim $name" env HPAGE_PROFILE=test ./target/release/hpsim \
        "$@" --quiet > /tmp/ci_purity_plain.txt
    bounded "hpsim $name --events" env HPAGE_PROFILE=test ./target/release/hpsim \
        "$@" --events /tmp/ci_purity.jsonl --quiet > /tmp/ci_purity_recorded.txt
    cmp /tmp/ci_purity_plain.txt /tmp/ci_purity_recorded.txt
}
purity "omnetpp victim --threads 2" --app omnetpp --policy victim --threads 2
purity "bfs pcc --nested" --app bfs --policy pcc --nested
purity "bfs pcc --threads 4" --app bfs --policy pcc --threads 4
# Both recorder legs at once (the JSONL sink teed with telemetry): the
# report must equal the plain run's above, and the event stream the
# --events-only run's.
bounded "hpsim bfs pcc --threads 4 --events --metrics --chrome-trace" \
    env HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc --threads 4 \
    --events /tmp/ci_purity_tee.jsonl --metrics /tmp/ci_purity_tee_metrics.jsonl \
    --chrome-trace /tmp/ci_purity_tee_trace.json --quiet > /tmp/ci_purity_tee.txt
cmp /tmp/ci_purity_plain.txt /tmp/ci_purity_tee.txt
cmp /tmp/ci_purity.jsonl /tmp/ci_purity_tee.jsonl

echo "== event-stream smoke: two-core PCC runs' events are checksum-pinned =="
# The recorder path (every TLB hit, walk and fault with its timestamp)
# is otherwise checked only for equality across thread counts; this
# compares the whole stream against a committed SHA-256.
events_sum=crates/bench/tests/golden/events_bfs_pcc_t2.sha256
HPAGE_PROFILE=test ./target/release/hpsim --app bfs --policy pcc --threads 2 \
    --max-accesses 200000 --events /tmp/hpsim_events_t2.jsonl --quiet > /dev/null
events_got=$(sha256sum /tmp/hpsim_events_t2.jsonl | cut -d' ' -f1)
events_want=$(grep -v '^#' "$events_sum")
if [ "$events_got" != "$events_want" ]; then
    echo "event stream sha256 $events_got, want $events_want ($events_sum)" >&2
    exit 1
fi
# A faulted omnetpp run degrades: its stream holds the PCC policy's
# backoff deferrals and pressure transitions.
chaos_sum=crates/bench/tests/golden/events_omnetpp_chaos_t2.sha256
HPAGE_PROFILE=test ./target/release/hpsim --app omnetpp --policy pcc --threads 2 \
    --faults examples/chaos.json --max-accesses 500000 \
    --events /tmp/hpsim_events_chaos_t2.jsonl --quiet > /dev/null
grep -q '"type":"defer"' /tmp/hpsim_events_chaos_t2.jsonl
grep -q '"type":"pressure_enter"' /tmp/hpsim_events_chaos_t2.jsonl
chaos_got=$(sha256sum /tmp/hpsim_events_chaos_t2.jsonl | cut -d' ' -f1)
chaos_want=$(grep -v '^#' "$chaos_sum")
if [ "$chaos_got" != "$chaos_want" ]; then
    echo "event stream sha256 $chaos_got, want $chaos_want ($chaos_sum)" >&2
    exit 1
fi

echo "== trace pipeline smoke: record -> replay byte-identical =="
# Record an HPT2 trace and replay it: SimReport and event JSONL must be
# byte-identical at every --sim-threads/--jobs, including strided
# multi-thread replay (--threads 4). Re-recording the replayed trace
# must reproduce the file byte for byte.
HPAGE_PROFILE=test ./target/release/hpsim --app bfs \
    --trace-out /tmp/ci_trace.hpt2 --max-accesses 200000 > /dev/null
for st in 1 2 8; do
    bounded "replay --sim-threads $st" env HPAGE_PROFILE=test \
        ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
        --threads 4 --sim-threads "$st" --events /tmp/ci_replay_$st.jsonl \
        --quiet > /tmp/ci_replay_$st.txt
done
for st in 2 8; do
    cmp /tmp/ci_replay_1.txt /tmp/ci_replay_$st.txt
    cmp /tmp/ci_replay_1.jsonl /tmp/ci_replay_$st.jsonl
done
HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
    --threads 4 --jobs 8 --quiet > /tmp/ci_replay_j8.txt
HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
    --threads 4 --jobs 1 --quiet > /tmp/ci_replay_j1.txt
cmp /tmp/ci_replay_j1.txt /tmp/ci_replay_j8.txt
HPAGE_PROFILE=test ./target/release/hpsim --trace-in /tmp/ci_trace.hpt2 \
    --trace-out /tmp/ci_trace_again.hpt2 --max-accesses 200000 > /dev/null
cmp /tmp/ci_trace.hpt2 /tmp/ci_trace_again.hpt2

echo "== consolidation smoke: 32 tenants, fairness + storms in artifact =="
bounded "repro --consolidation --sim-threads 4" env HPAGE_PROFILE=test \
    ./target/release/repro --consolidation --tenants 32 \
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
bounded "repro --virt --sim-threads 1" env HPAGE_PROFILE=test \
    ./target/release/repro --virt --sim-threads 1 --jobs 1 \
    --bench-out BENCH_virt.json --quiet > /tmp/repro_virt_1.txt
bounded "repro --virt --sim-threads 8" env HPAGE_PROFILE=test \
    ./target/release/repro --virt --sim-threads 8 --jobs 8 \
    --bench-out /tmp/BENCH_virt_8.json --quiet > /tmp/repro_virt_8.txt
cmp /tmp/repro_virt_1.txt /tmp/repro_virt_8.txt
cmp <(cat crates/bench/tests/golden/virt_test.txt; echo) /tmp/repro_virt_1.txt
grep -q 'verdict: PCCs in both dimensions beat either dimension alone' \
    /tmp/repro_virt_1.txt
grep -q '"virt":{"scenario":"virt"' BENCH_virt.json
bounded "hpsim --nested --sim-threads 1" env HPAGE_PROFILE=test \
    ./target/release/hpsim --app bfs --policy pcc --nested \
    --sim-threads 1 --quiet > /tmp/hpsim_nested_1.txt
bounded "hpsim --nested --sim-threads 4" env HPAGE_PROFILE=test \
    ./target/release/hpsim --app bfs --policy pcc --nested \
    --sim-threads 4 --quiet > /tmp/hpsim_nested_4.txt
cmp /tmp/hpsim_nested_1.txt /tmp/hpsim_nested_4.txt
grep -q 'host promotions' /tmp/hpsim_nested_1.txt
if ./target/release/hpsim --app bfs --pcc-placement host --quiet \
    > /dev/null 2>&1; then
    echo "hpsim accepted --pcc-placement without --nested" >&2
    exit 1
fi
# A flag the mode does not read is refused before any output file is
# created: each must exit 2 with nothing on stdout.
HPAGE_PROFILE=test ./target/release/hpsim --app bfs \
    --trace-out /tmp/ci_unread.hpt2 --max-accesses 5000 > /dev/null
rm -rf /tmp/ci_unread && mkdir /tmp/ci_unread
while read -r args; do
    unread_rc=0
    (cd /tmp/ci_unread && HPAGE_PROFILE=test "$OLDPWD/target/release/hpsim" $args \
        > /tmp/ci_unread.txt 2> /dev/null) || unread_rc=$?
    if [ "$unread_rc" -ne 2 ] || [ -s /tmp/ci_unread.txt ] ||
        [ -n "$(ls -A /tmp/ci_unread)" ]; then
        echo "hpsim $args exited $unread_rc, printed or wrote a file; want 2 and none" >&2
        exit 1
    fi
done <<'EOF'
--app bfs --trace-out t.hpt2 --max-accesses 5000 --faults /nonexistent.json --threads 4 --metrics m.jsonl
--trace-out t.hpt2 --policy bogus
--trace-info /tmp/ci_unread.hpt2 --policy bogus --events /nonexistent/x
--trace-in /tmp/ci_unread.hpt2 --app mcf
--trace-in /tmp/ci_unread.hpt2 --dataset twitter
--app bfs --trace-out t.hpt2 --nested --ledger --audit
EOF

echo "== argument smoke: a bad argument fails before any section runs =="
bogus_rc=0
HPAGE_PROFILE=test ./target/release/repro --table 1 --bogus \
    > /tmp/repro_bogus.txt 2> /dev/null || bogus_rc=$?
if [ "$bogus_rc" -ne 2 ] || [ -s /tmp/repro_bogus.txt ]; then
    echo "repro --table 1 --bogus exited $bogus_rc with output, want 2 and none" >&2
    exit 1
fi
# Retired flags (the per-cell deadline, the section journal) are unknown
# arguments like any other: exit 2, nothing on stdout, no artifact.
for retired in "--hard-deadline-ms 1" "--journal F" "--resume F"; do
    retired_rc=0
    rm -f /tmp/BENCH_repro_retired.json
    # shellcheck disable=SC2086 # the flag and its operand split on purpose
    HPAGE_PROFILE=test ./target/release/repro --figure 7 $retired \
        --bench-out /tmp/BENCH_repro_retired.json \
        > /tmp/repro_retired.txt 2> /dev/null || retired_rc=$?
    if [ "$retired_rc" -ne 2 ] || [ -s /tmp/repro_retired.txt ] ||
        [ -e /tmp/BENCH_repro_retired.json ]; then
        echo "repro $retired exited $retired_rc, want 2, no output, no artifact" >&2
        exit 1
    fi
done

echo "== split-run smoke: one section per command concatenates to one run =="
# Sections are independent and print whole, so a long run resumes by
# rerunning the sections its saved stdout lacks: two commands' stdout,
# concatenated, must equal the single run's byte for byte.
HPAGE_PROFILE=test ./target/release/repro --figure 7 --jobs 2 \
    --bench-out /tmp/BENCH_repro_part.json --quiet > /tmp/repro_split.txt
HPAGE_PROFILE=test ./target/release/repro --ablation --jobs 2 \
    --bench-out /tmp/BENCH_repro_part.json --quiet >> /tmp/repro_split.txt
cmp /tmp/repro_split.txt /tmp/repro_j2.txt

echo "CI OK"
