#!/bin/sh
# Validates committed benchmark baseline JSONs: each file must parse, hold a
# non-empty "benchmarks" array, every entry must carry a real_time, and the
# recording build must have been a release one (context.owlqr_build_type;
# the stock library_build_type reflects the distro's libbenchmark, not our
# flags).  The parallelism baseline must additionally cover both thread
# counts, report the scheduler and batch-executor counters (JoinEmissions,
# BatchRows, BatchProbes), and show the columnar executor beating the
# scalar oracle by >= 1.5x on the Tw/len15 t4 A/B cell — so neither a stale
# pre-scheduler baseline nor a perf regression of the batch path can sneak
# back in.  (The serving path is measured by perfbench, not here.)
# Usage: check_bench_json.sh <file.json>...
# Registered as the ctest test `hygiene/bench_json`.
set -u

status=0
for file in "$@"; do
  if [ ! -f "$file" ]; then
    echo "FAIL: $file missing (tools/run_bench_baseline.sh regenerates it)"
    status=1
    continue
  fi
  python3 - "$file" <<'EOF' || status=1
import json
import os
import sys

path = sys.argv[1]
with open(path) as f:
    data = json.load(f)

benches = data.get("benchmarks")
assert isinstance(benches, list) and benches, f"{path}: no benchmarks array"
for b in benches:
    assert "name" in b and "real_time" in b, f"{path}: malformed entry {b}"

build_type = data.get("context", {}).get("owlqr_build_type")
assert build_type == "release", \
    f"{path}: owlqr_build_type is {build_type!r}, want 'release' — " \
    f"regenerate from a Release (NDEBUG) build"

if os.path.basename(path) == "BENCH_parallelism.json":
    names = {b["name"] for b in benches}
    for needle in ("t1", "t4"):
        assert any(needle in n for n in names), \
            f"{path}: missing {needle} configurations"
    sample = next(b for b in benches if "len15" in b["name"])
    for counter in ("SchedulerTasks", "GeneratedTuples", "JoinEmissions",
                    "BatchRows", "BatchProbes"):
        assert counter in sample, f"{path}: missing counter {counter}"
    # The same-binary batch-vs-scalar A/B (Tw/len15 at the fixed A/B scale;
    # see bench_parallelism.cc): both legs must agree on the deterministic
    # counters — same answers, same emission sequence — and at t4 the
    # columnar executor must hold a >= 1.5x advantage over the scalar
    # oracle.  Matched by prefix: fixed-iteration registrations append an
    # /iterations suffix.
    def ab(threads, scalar):
        prefix = f"Parallelism/len15/Tw/ab/{threads}/"
        rows = [b for b in benches if b["name"].startswith(prefix) and
                ("/scalar" in b["name"]) == scalar]
        assert rows, f"{path}: missing {prefix} " \
                     f"{'scalar' if scalar else 'batch'} leg " \
                     f"(regenerate the baseline)"
        return rows[0]
    for threads in ("t1", "t4"):
        batch = ab(threads, scalar=False)
        scalar = ab(threads, scalar=True)
        for counter in ("GeneratedTuples", "JoinEmissions"):
            assert batch.get(counter) == scalar.get(counter), \
                f"{path}: ab/{threads} {counter} differs between batch " \
                f"({batch.get(counter)}) and scalar ({scalar.get(counter)})"
        assert batch.get("BatchRows", 0) > 0, \
            f"{path}: ab/{threads} batch leg reports no BatchRows — " \
            f"the columnar path never ran"
        assert scalar.get("BatchRows", 1) == 0, \
            f"{path}: ab/{threads} scalar leg reports BatchRows — " \
            f"the oracle ran the batch path"
    t4_batch = ab("t4", scalar=False)["real_time"]
    t4_scalar = ab("t4", scalar=True)["real_time"]
    assert t4_scalar >= 1.5 * t4_batch, \
        f"{path}: batch executor advantage below the 1.5x floor at t4 " \
        f"(batch {t4_batch:.1f}, scalar {t4_scalar:.1f}, " \
        f"ratio {t4_scalar / t4_batch:.2f})"

print(f"OK: {path}: {len(benches)} benchmark entries")
EOF
done
exit $status
