#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
# The workflow runs these gates as parallel jobs; this script runs the
# same gate functions sequentially, or a single one via `--gate NAME`
# (which is exactly what each workflow job invokes):
#
#   build        cargo build --release
#   fmt          cargo fmt --check
#   clippy       cargo clippy --all-targets -- -D warnings
#   test         cargo test -q, plus the lt-perf benchmark's own unit
#                tests (a separate package, so `cargo test` skips them)
#   determinism  every deterministic results file produced twice
#                (LT_BENCH_THREADS=1 vs =4, smoke runs repeated) must
#                match byte-for-byte: fig6/table4/fig4, drift full +
#                smoke, fleet smoke, serve-load smoke, crash smoke; and
#                lt-serve-load --smoke --shards 1 vs --shards 2 (a real
#                coordinator + shard daemons over loopback) must yield the
#                same winners. Both serving smokes exit non-zero on a
#                failed session or a bad /metrics, so they gate too
#   trace        LT_TRACE=1 fig6 must emit a trace whose per-phase
#                self-times sum to the run wall time (trace_check)
#   planner      planner_bench --smoke runs to completion (timing is
#                informational; enumerator properties gate under test)
#   drift        drift_bench --smoke acceptance bounds (zero false
#                alarms, bounded detection, warm-start budget)
#   fleet        fleet_bench --smoke acceptance bounds + trace_check
#                on its sidecar
#   crash        crash-bench --smoke: crash-injection recovery gate —
#                every enumerated WAL kill point, torn/corrupt logs,
#                and live LT_WAL_CRASH_AT child kills must recover
#                with no lost acknowledged sessions, byte-identical
#                winners, and no duplicated re-tunes
#   store        store_bench --smoke: the real lt-store engine must
#                respond to the knobs (hit rate rises with
#                shared_buffers, spills fall with work_mem), the
#                calibrated cost fit must beat the uncalibrated one,
#                and λ-Tune's winner must beat the default; its trace
#                sidecar must pass trace_check
#   synth        synth_bench --smoke: the seeded workload-synthesis
#                engine — every generated query catalog-valid, mixes
#                within tolerance, synthesized streams through the
#                drift monitor, spec feeds over HTTP, and delta-prompt
#                re-tuning bounded against the blind warm restart;
#                trace sidecar checked with trace_check
#
# Per-gate wall seconds are printed at the end and written to
# results/ci_timing.txt (the workflow uploads it as an artifact).
set -euo pipefail
cd "$(dirname "$0")"

export LT_TRIALS="${LT_TRIALS:-1}" LT_SEED="${LT_SEED:-42}"

gate_build() {
    cargo build --release
}

gate_fmt() {
    cargo fmt --check
}

gate_clippy() {
    cargo clippy --all-targets -- -D warnings
}

gate_test() {
    cargo test -q
    cargo test -q --release --manifest-path lt-perf/Cargo.toml
}

# Files every determinism run must reproduce byte-for-byte. The first
# three honour LT_BENCH_THREADS; the smoke files assert that repeated
# runs (whatever the ambient parallelism) are byte-identical.
DETERMINISM_FILES="fig6.json table4.json fig4.json BENCH_drift.json \
BENCH_drift.smoke.json BENCH_fleet.smoke.json serve_load.smoke.json \
BENCH_crash.smoke.json BENCH_synth.smoke.json"

determinism_pass() {
    LT_BENCH_THREADS="$1" ./target/release/fig6 > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/table4 > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/fig4 > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/drift_bench > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/drift_bench --smoke > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/fleet_bench --smoke > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/lt-serve-load --smoke > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/crash-bench --smoke > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/store_bench --smoke > /dev/null
    LT_BENCH_THREADS="$1" ./target/release/synth_bench --smoke > /dev/null
}

gate_determinism() {
    rm -rf results/.ci-seq && mkdir -p results/.ci-seq
    determinism_pass 1
    for f in $DETERMINISM_FILES; do cp "results/$f" results/.ci-seq/; done
    cp results/BENCH_store.smoke.json results/.ci-seq/
    determinism_pass 4
    for f in $DETERMINISM_FILES; do
        if ! cmp -s "results/.ci-seq/$f" "results/$f"; then
            echo "DETERMINISM FAILURE: results/$f differs between runs" >&2
            diff "results/.ci-seq/$f" "results/$f" >&2 || true
            exit 1
        fi
        echo "results/$f identical across runs"
    done
    # The store engine's result carries wall-clock diagnostic fields
    # (names start with "wall"); everything else — counters, proxy
    # times, calibration — must be thread-count invariant.
    if ! cmp -s <(grep -v '"wall' results/.ci-seq/BENCH_store.smoke.json) \
                <(grep -v '"wall' results/BENCH_store.smoke.json); then
        echo "DETERMINISM FAILURE: results/BENCH_store.smoke.json differs between runs" >&2
        diff <(grep -v '"wall' results/.ci-seq/BENCH_store.smoke.json) \
             <(grep -v '"wall' results/BENCH_store.smoke.json) >&2 || true
        exit 1
    fi
    echo "results/BENCH_store.smoke.json identical across runs (wall fields excluded)"
    # Sharded serving: the same client set through a 1-shard and a 2-shard
    # fabric must produce identical per-seed winners — placement (which
    # shard a session lands on) must never leak into results.
    ./target/release/lt-serve-load --smoke --shards 1 > /dev/null
    cp results/serve_shard.smoke.json results/.ci-seq/
    ./target/release/lt-serve-load --smoke --shards 2 > /dev/null
    if ! cmp -s <(grep -v '"wall' results/.ci-seq/serve_shard.smoke.json) \
                <(grep -v '"wall' results/serve_shard.smoke.json); then
        echo "DETERMINISM FAILURE: results/serve_shard.smoke.json differs between 1 and 2 shards" >&2
        diff <(grep -v '"wall' results/.ci-seq/serve_shard.smoke.json) \
             <(grep -v '"wall' results/serve_shard.smoke.json) >&2 || true
        exit 1
    fi
    echo "results/serve_shard.smoke.json identical across shard counts (wall fields excluded)"
    rm -rf results/.ci-seq
}

gate_trace() {
    LT_TRACE=1 LT_BENCH_THREADS=1 ./target/release/fig6 > /dev/null
    ./target/release/trace_check results/fig6.trace.json
}

gate_planner() {
    ./target/release/planner_bench --smoke
}

gate_drift() {
    ./target/release/drift_bench --smoke
}

gate_fleet() {
    LT_BENCH_THREADS=1 ./target/release/fleet_bench --smoke
    ./target/release/trace_check results/BENCH_fleet.trace.json
}

gate_crash() {
    ./target/release/crash-bench --smoke
}

gate_store() {
    LT_TRACE=1 LT_BENCH_THREADS=1 ./target/release/store_bench --smoke
    ./target/release/trace_check results/BENCH_store.trace.json
}

gate_synth() {
    LT_TRACE=1 LT_BENCH_THREADS=1 ./target/release/synth_bench --smoke
    ./target/release/trace_check results/BENCH_synth.trace.json
}

ALL_GATES="build fmt clippy test determinism trace planner drift fleet crash store synth"
TIMING=()

run_gate() {
    local name="$1"
    echo
    echo "=== $name ==="
    local start elapsed
    start=$SECONDS
    "gate_$name"
    elapsed=$((SECONDS - start))
    TIMING+=("$(printf '%-12s %5ss' "$name" "$elapsed")")
}

# Writes the per-gate wall-seconds table. Single-gate runs append so a
# workflow job invoking several gates accumulates one table.
report_timing() {
    echo
    echo "=== gate timing ==="
    mkdir -p results
    if [[ "${1:-}" == "append" ]]; then
        printf '%s\n' "${TIMING[@]}" | tee -a results/ci_timing.txt
    else
        printf '%s\n' "${TIMING[@]}" | tee results/ci_timing.txt
    fi
}

if [[ "${1:-}" == "--gate" ]]; then
    gate="${2:-}"
    if [[ " $ALL_GATES " != *" $gate "* ]]; then
        echo "usage: ci.sh [--gate NAME]; gates: $ALL_GATES" >&2
        exit 2
    fi
    run_gate "$gate"
    report_timing append
    echo
    echo "ci.sh: gate '$gate' passed"
    exit 0
elif [[ $# -gt 0 ]]; then
    echo "usage: ci.sh [--gate NAME]; gates: $ALL_GATES" >&2
    exit 2
fi

for gate in $ALL_GATES; do
    run_gate "$gate"
done
report_timing
echo
echo "ci.sh: all gates passed"
