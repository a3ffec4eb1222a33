#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation (§6).
# Results are printed and also written as JSON under results/.
#
#   LT_TRIALS=3 ./run_all.sh     # paper's trial count (slow)
#   LT_TRIALS=1 ./run_all.sh     # quick pass
#   LT_TRACE=1 ./run_all.sh      # also write results/<bin>.trace.json
set -euo pipefail
cd "$(dirname "$0")"

export LT_TRIALS="${LT_TRIALS:-3}" LT_SEED="${LT_SEED:-42}"

cargo build --release -p lt-bench

for target in table3 table4 table5 fig3 fig4 fig5 fig6 fig7 fig8; do
    echo "================================================================"
    echo "== $target"
    echo "================================================================"
    cargo run --release -p lt-bench --bin "$target"
    echo
done

echo "JSON results written to results/"
