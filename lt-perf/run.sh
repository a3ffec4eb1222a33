#!/usr/bin/env bash
# Builds the `lt-serve` daemon and the `lt-perf` benchmark from source,
# then runs `lt-perf run` with the given arguments. Run it from the root of
# the repository:
#
#   bash lt-perf/run.sh --workload serve-read --seed 7 --seconds 20 --trace 0
#
# Both builds go to one target directory, CARGO_TARGET_DIR or `target`,
# because `lt-perf` starts the `lt-serve` binary that sits next to it.
set -euo pipefail
target_dir="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target_dir" \
    --manifest-path Cargo.toml -p lt-serve --bin lt-serve
cargo build --release --offline --quiet --target-dir "$target_dir" \
    --manifest-path lt-perf/Cargo.toml
exec "$target_dir/release/lt-perf" run "$@"
