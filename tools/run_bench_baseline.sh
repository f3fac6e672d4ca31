#!/bin/sh
# Regenerates the committed benchmark baselines at the repository root:
#   BENCH_parallelism.json  -- bench_parallelism (DAG scheduler, t1 vs t4)
#   BENCH_table3.json       -- bench_table3_eval_seq1 (paper Table 3)
# Usage: run_bench_baseline.sh [build-dir]   (default: ./build)
# Run from an idle machine on a Release build (check_bench_json.sh rejects
# debug recordings via context.owlqr_build_type); the table 3 sweep takes
# about a minute at the default OWLQR_SCALE.  The parallelism run includes
# the batch-vs-scalar A/B cells (Parallelism/len15/Tw/ab/*), which must
# show the columnar executor >= 1.5x ahead of the scalar oracle at t4 —
# validated below, so a regeneration on a degraded machine fails loudly
# instead of committing a baseline that trips hygiene/bench_json later.
# Compare a fresh run against the committed files before/after a
# performance change (see EXPERIMENTS.md); tools/check_counters_identical.sh
# separately pins the sequential t1 counters to their historical values.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="${1:-$ROOT/build}"

for bin in bench_parallelism bench_table3_eval_seq1; do
  if [ ! -x "$BUILD/bench/$bin" ]; then
    echo "FAIL: $BUILD/bench/$bin not built (cmake --build $BUILD --target $bin)" >&2
    exit 1
  fi
done

echo "Writing $ROOT/BENCH_parallelism.json ..."
"$BUILD/bench/bench_parallelism" \
    --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_parallelism.json" \
    --benchmark_out_format=json > /dev/null

echo "Writing $ROOT/BENCH_table3.json ..."
"$BUILD/bench/bench_table3_eval_seq1" \
    --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_table3.json" \
    --benchmark_out_format=json > /dev/null

"$ROOT/tools/check_bench_json.sh" "$ROOT/BENCH_parallelism.json" \
    "$ROOT/BENCH_table3.json"
echo "Baselines regenerated."
