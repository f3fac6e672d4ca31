#!/bin/sh
# Counter diff against the committed Table 3 baseline: reruns every cell of
# bench_table3_eval_seq1 (all of them sequential, t1) and compares each
# cell's GeneratedTuples, JoinEmissions and DedupNewTuples with
# BENCH_table3.json.  Evaluator changes that claim to keep every counter
# exact (join orders, views, batching) must report 0 differing cells; only
# the time columns may move.
#
# Usage: compare_table3_counters.sh <bench_table3_eval_seq1-binary> [baseline]
# Runs at the default OWLQR_SCALE / OWLQR_TUPLE_BUDGET the baseline was
# recorded at and takes about a minute on a Release build, so it is not
# registered in ctest.
set -eu

BIN="${1:?usage: compare_table3_counters.sh <bench_table3_eval_seq1-binary> [baseline]}"
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BASELINE="${2:-$ROOT/BENCH_table3.json}"
if [ ! -x "$BIN" ]; then
  echo "FAIL: $BIN not built (cmake --build <dir> --target bench_table3_eval_seq1)"
  exit 1
fi

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
env -u OWLQR_SCALE -u OWLQR_TUPLE_BUDGET -u OWLQR_TRACE \
    "$BIN" --benchmark_format=json > "$OUT" 2>/dev/null

python3 - "$BASELINE" "$OUT" <<'EOF'
import json
import sys

COUNTERS = ("GeneratedTuples", "JoinEmissions", "DedupNewTuples")


def cells(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data.get("benchmarks", [])}


want = cells(sys.argv[1])
got = cells(sys.argv[2])
differing = 0
for name, base in sorted(want.items()):
    live = got.get(name)
    if live is None:
        print(f"MISSING: {name}")
        differing += 1
        continue
    diffs = [f"{c} {base.get(c)} -> {live.get(c)}" for c in COUNTERS
             if base.get(c) != live.get(c)]
    if diffs:
        print(f"DIFF: {name}: " + ", ".join(diffs))
        differing += 1
extra = sorted(set(got) - set(want))
for name in extra:
    print(f"EXTRA: {name}")
print(f"{len(want)} baseline cells, {differing} differing, "
      f"{len(extra)} not in the baseline")
sys.exit(1 if differing or extra else 0)
EOF
