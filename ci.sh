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
#   determinism  runs every bench driver in two passes, then compares
#                every deterministic results file whole, byte for byte:
#                  pass 1  LT_TRACE=1, 1 thread, 1 shard; then trace_check
#                          on every trace sidecar it wrote
#                  pass 2  untraced, 4 threads, 2 shards; also the full
#                          store_bench
#                so tracing, thread count and shard count may never
#                change a result. Then the committed deterministic
#                results the gate regenerates (BENCH_drift.json,
#                BENCH_store.json) must match their committed bytes
#                (git diff --exit-code). Every driver also exits non-zero
#                when one of its bounds fails (README.md "CI" lists them).
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
    # --locked: a dependency change must fail here, not silently rewrite
    # the benchmark's committed lockfile.
    cargo test -q --release --locked --manifest-path lt-perf/Cargo.toml
}

# Files both determinism passes must write byte for byte.
DETERMINISM_FILES="fig6.json table4.json fig4.json BENCH_drift.json \
BENCH_drift.smoke.json BENCH_fleet.smoke.json serve_load.smoke.json \
serve_shard.smoke.json BENCH_crash.smoke.json BENCH_store.smoke.json \
BENCH_synth.smoke.json"

# Trace sidecars the traced pass writes (results/<name>.trace.json).
# fleet_bench writes none: its sessions run on server worker threads, whose
# spans are roots of their own until spans carry their parent across threads.
TRACES="fig6 table4 fig4 BENCH_drift BENCH_store BENCH_synth"

# Committed results the passes rewrite; each must keep its committed bytes.
COMMITTED_FILES="results/BENCH_drift.json results/BENCH_store.json"

# determinism_pass THREADS SHARDS: every bench driver, once.
determinism_pass() {
    local -x LT_BENCH_THREADS="$1"
    ./target/release/fig6 > /dev/null
    ./target/release/table4 > /dev/null
    ./target/release/fig4 > /dev/null
    ./target/release/drift_bench > /dev/null
    ./target/release/drift_bench --smoke > /dev/null
    ./target/release/fleet_bench --smoke > /dev/null
    ./target/release/lt-serve-load --smoke > /dev/null
    ./target/release/lt-serve-load --smoke --shards "$2" > /dev/null
    ./target/release/crash-bench --smoke > /dev/null
    ./target/release/store_bench --smoke > /dev/null
    ./target/release/synth_bench --smoke > /dev/null
}

gate_determinism() {
    local name f
    rm -rf results/.ci-pass1 results/*.trace.json
    mkdir -p results/.ci-pass1
    LT_TRACE=1 determinism_pass 1 1
    for name in $TRACES; do
        ./target/release/trace_check "results/$name.trace.json"
    done
    for f in $DETERMINISM_FILES; do cp "results/$f" results/.ci-pass1/; done
    LT_TRACE=0 determinism_pass 4 2
    LT_TRACE=0 LT_BENCH_THREADS=4 ./target/release/store_bench > /dev/null
    for f in $DETERMINISM_FILES; do
        if ! cmp -s "results/.ci-pass1/$f" "results/$f"; then
            echo "DETERMINISM FAILURE: results/$f differs between the passes" >&2
            diff "results/.ci-pass1/$f" "results/$f" >&2 || true
            exit 1
        fi
        echo "results/$f identical across passes"
    done
    rm -rf results/.ci-pass1
    if ! git diff --exit-code -- $COMMITTED_FILES; then
        echo "DETERMINISM FAILURE: a committed result changed; commit it if intended" >&2
        exit 1
    fi
    echo "$COMMITTED_FILES identical to the committed files"
}

ALL_GATES="build fmt clippy test determinism"
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
