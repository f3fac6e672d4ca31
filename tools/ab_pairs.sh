#!/bin/sh
# Interleaved A/B pairs of the end-to-end benchmark.
#
# Usage: tools/ab_pairs.sh <workload> <seconds> <pairs> <dirA> <dirB>
#
# <dirA> and <dirB> are two checkouts (say, the parent and the change).
# Pair i runs `perfbench/run.py --workload <workload> --seed i --seconds
# <seconds>` once in each, A first on odd pairs and B first on even ones, so
# drift on a shared host falls on both sides alike.  Each checkout builds
# its own benchmark on the first run (into its .bench_build/).
#
# Prints one line per end-to-end metric named in BENCHMARK.json: each
# side's median and quartiles, the median change, and in how many pairs B
# was better than A in the metric's own direction.  Every run's result line
# goes to stderr as it finishes.  Exits 1 if any run reported correct:
# false or printed no result.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 <workload> <seconds> <pairs> <dirA> <dirB>" >&2
  exit 2
fi
WORKLOAD=$1
SECONDS_PER_RUN=$2
PAIRS=$3
DIR_A=$(cd "$4" && pwd)
DIR_B=$(cd "$5" && pwd)
SPEC="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

run_one() {  # side dir seed
  line=$(cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" \
           --seed "$3" --seconds "$SECONDS_PER_RUN" 2>/dev/null | tail -n 1)
  echo "$1 $3 $line" >> "$OUT"
  echo "# pair $3 side $1: $line" >&2
}

i=1
while [ "$i" -le "$PAIRS" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run_one A "$DIR_A" "$i"
    run_one B "$DIR_B" "$i"
  else
    run_one B "$DIR_B" "$i"
    run_one A "$DIR_A" "$i"
  fi
  i=$((i + 1))
done

python3 - "$OUT" "$SPEC" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

out_path, spec_path, workload = sys.argv[1:4]
with open(spec_path) as f:
    metrics = json.load(f)["end_to_end"]

runs = {"A": {}, "B": {}}
ok = True
with open(out_path) as f:
    for line in f:
        side, seed, payload = line.rstrip("\n").split(" ", 2)
        try:
            result = json.loads(payload)
        except ValueError:
            print("# %s seed %s: no result" % (side, seed))
            ok = False
            continue
        if not result.get("correct", False):
            print("# %s seed %s: correct is false" % (side, seed))
            ok = False
        runs[side][int(seed)] = result["metrics"]

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

seeds = sorted(set(runs["A"]) & set(runs["B"]))
print("%s: %d pairs" % (workload, len(seeds)))
print("%-12s %32s %32s %9s %6s" %
      ("metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins"))
for metric in metrics:
    name, better = metric["name"], metric["better"]
    a = [runs["A"][s][name]["value"] for s in seeds if name in runs["A"][s]]
    b = [runs["B"][s][name]["value"] for s in seeds if name in runs["B"][s]]
    if not a or len(a) != len(b):
        continue
    wins = sum(1 for x, y in zip(a, b)
               if (y > x if better == "higher" else y < x))
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = (b_med - a_med) / a_med * 100 if a_med else 0.0
    print("%-12s %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] %+8.1f%% %3d/%d" %
          (name, a_med, a_q1, a_q3, b_med, b_q1, b_q3, change, wins,
           len(a)))
sys.exit(0 if ok else 1)
EOF
