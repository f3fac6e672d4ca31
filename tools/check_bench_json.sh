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
# back in.  The engine baseline must cover the cold/warm x
# t1/t4 grid with the expected cache-hit rates, warm serves must be
# substantially faster than cold ones (the whole point of the plan cache),
# and the governed overload scenario must report shedding and
# admitted-latency percentiles.
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

if os.path.basename(path) == "BENCH_engine.json":
    by_name = {b["name"]: b for b in benches}
    for mode, hit_rate in (("cold", 0.0), ("warm", 1.0)):
        for threads in ("t1", "t4"):
            name = f"EngineThroughput/{mode}/{threads}/real_time/threads:" \
                   f"{threads[1:]}"
            assert name in by_name, f"{path}: missing {name}"
            rate = by_name[name].get("CacheHitRate")
            assert rate == hit_rate, \
                f"{path}: {name} CacheHitRate {rate}, want {hit_rate}"
    for threads in ("t1", "t4"):
        cold = by_name[f"EngineThroughput/cold/{threads}/real_time/"
                       f"threads:{threads[1:]}"]["real_time"]
        warm = by_name[f"EngineThroughput/warm/{threads}/real_time/"
                       f"threads:{threads[1:]}"]["real_time"]
        # The committed baseline shows >= 5x; 2x here tolerates noisy
        # regeneration machines while still catching a dead cache.
        assert warm * 2 < cold, \
            f"{path}: warm serve not faster than cold at {threads} " \
            f"(warm {warm}, cold {cold})"
    # The governed-overload scenario: 8 threads against 4 slots must shed
    # some load (a ShedRate of 0 means admission control never engaged) and
    # report both admitted-latency percentiles.
    overload = "EngineThroughput/overload/t8/real_time/threads:8"
    assert overload in by_name, f"{path}: missing {overload}"
    row = by_name[overload]
    for counter in ("ShedRate", "AdmittedP50Ms", "AdmittedP99Ms"):
        assert counter in row, f"{path}: {overload} missing {counter}"
    assert row["ShedRate"] > 0, \
        f"{path}: overload ShedRate is 0 — admission control never shed"
    assert row["AdmittedP50Ms"] <= row["AdmittedP99Ms"], \
        f"{path}: overload latency percentiles out of order"
    # The HTTP serving pair (full wire path over loopback): the warm hot
    # key must actually be memoized, and the unique-keyed overload run
    # must shed on the wire as 429s.
    http_warm = by_name.get("EngineThroughput/http_warm/t8/real_time/"
                            "threads:8")
    assert http_warm is not None, f"{path}: missing http_warm/t8"
    assert http_warm.get("MemoRate", 0) > 0.9, \
        f"{path}: http_warm MemoRate {http_warm.get('MemoRate')} — the " \
        f"served hot key was not memoized"
    http_overload = by_name.get("EngineThroughput/http_overload/t8/"
                                "real_time/threads:8")
    assert http_overload is not None, f"{path}: missing http_overload/t8"
    assert http_overload.get("ShedRate", 0) > 0, \
        f"{path}: http_overload ShedRate is 0 — the wire path never shed"
    # The incremental-maintenance A/B (one ApplyFacts fact + one unlimited
    # serve of the length-15 query per iteration).  Matched by prefix: the
    # fixed-iteration registration appends an /iterations suffix.
    def by_prefix(prefix):
        rows = [b for b in benches if b["name"].startswith(prefix)]
        assert rows, f"{path}: missing {prefix}"
        return rows[0]
    delta = by_prefix("EngineThroughput/warm_apply_delta/t1")
    full = by_prefix("EngineThroughput/warm_apply_full/t1")
    assert delta.get("DeltaRate", 0) > 0.9, \
        f"{path}: warm_apply_delta DeltaRate {delta.get('DeltaRate')} — " \
        f"the delta path never served"
    assert full.get("DeltaRate", 1) == 0.0, \
        f"{path}: warm_apply_full DeltaRate nonzero — the A/B control " \
        f"ran incrementally"
    # The committed baseline shows >= 5x; 2x here tolerates noisy
    # regeneration machines while still catching a dead delta path.
    assert delta["real_time"] * 2 < full["real_time"], \
        f"{path}: delta update path not faster than full re-evaluation " \
        f"(delta {delta['real_time']}, full {full['real_time']})"
    # The hot-key answer-memoization pair: the memoizing scenario must have
    # run in the cache-hit regime despite the version churn (HitRate >= 0.5
    # is the floor; the baseline shows ~1) and report its coalesce rate,
    # while the control must never have hit.  The ratio bar is 5x — the
    # cached path is a map probe against a full evaluation, so even noisy
    # machines clear it by an order of magnitude.
    hot = by_name.get("EngineThroughput/hotkey/t8/real_time/threads:8")
    nohot = by_name.get(
        "EngineThroughput/hotkey_nocache/t8/real_time/threads:8")
    assert hot is not None, f"{path}: missing hotkey/t8"
    assert nohot is not None, f"{path}: missing hotkey_nocache/t8"
    assert hot.get("HitRate", 0) >= 0.5, \
        f"{path}: hotkey HitRate {hot.get('HitRate')} < 0.5 — the answer " \
        f"cache never warmed"
    assert "CoalesceRate" in hot, f"{path}: hotkey missing CoalesceRate"
    assert nohot.get("HitRate", 1) == 0.0, \
        f"{path}: hotkey_nocache HitRate nonzero — the A/B control cached"
    assert hot["real_time"] * 5 < nohot["real_time"], \
        f"{path}: memoized hot-key serve not >= 5x the uncached one " \
        f"(cached {hot['real_time']}, uncached {nohot['real_time']})"
    # The always-miss control: a per-serve-unique limits signature defeats
    # the cache, and the memoization layer's overhead (key build, probe,
    # in-flight table, publish) must stay within the warm serve's noise
    # bar.  Repetition means of the two scenarios are equal to within their
    # ~10% stddev on the baseline machine; 1.25x here tolerates single-shot
    # regeneration noise while still catching an accidentally expensive
    # miss path (a per-serve answer copy, say, would blow straight past it).
    miss = by_name.get(
        "EngineThroughput/warm_cachemiss/t1/real_time/threads:1")
    assert miss is not None, f"{path}: missing warm_cachemiss/t1"
    assert miss.get("HitRate", 1) == 0.0, \
        f"{path}: warm_cachemiss HitRate nonzero — keys repeated"
    warm1 = by_name["EngineThroughput/warm/t1/real_time/threads:1"]
    assert miss["real_time"] <= warm1["real_time"] * 1.25, \
        f"{path}: memoization miss-path overhead above the noise bar " \
        f"(cachemiss {miss['real_time']}, warm {warm1['real_time']})"
    # The durable-store cells (DESIGN.md §14).  Warm executions never touch
    # the store, so the store-backed warm serve must price within the same
    # noise bar as the in-memory one (the baseline machine shows ~1x; 1.25x
    # tolerates regeneration noise while catching a read path that started
    # paying for durability).  The append cell must prove every batch was
    # logged, and the recovery cell must have replayed a real log tail with
    # a nonzero, sub-total store-recovery share.
    store_warm = by_name.get(
        "EngineThroughput/store_warm/t1/real_time/threads:1")
    assert store_warm is not None, f"{path}: missing store_warm/t1"
    assert store_warm.get("CacheHitRate") == 1.0, \
        f"{path}: store_warm CacheHitRate " \
        f"{store_warm.get('CacheHitRate')}, want 1.0"
    # cpu_time, not real_time: both cells are single-threaded, so CPU time
    # is the same price with far less scheduler noise (the baseline machine
    # shows ~5% delta at ~7% cv, vs >30% cv on wall time).
    assert store_warm["cpu_time"] <= warm1["cpu_time"] * 1.25, \
        f"{path}: store-backed warm serve above the in-memory noise bar " \
        f"(store_warm {store_warm['cpu_time']}, warm {warm1['cpu_time']})"
    store_append = by_prefix("EngineThroughput/store_append/t4")
    assert store_append.get("LogRecords", 0) > 0, \
        f"{path}: store_append logged no records — the WAL never engaged"
    assert store_append.get("LogBytes", 0) > 0, \
        f"{path}: store_append reports no log bytes"
    store_recovery = by_prefix("EngineThroughput/store_recovery/t1")
    assert store_recovery.get("RecoveredRecords", 0) > 0, \
        f"{path}: store_recovery replayed no log records — the fixture " \
        f"store has no tail"
    assert store_recovery.get("RecoveryMs", 0) > 0, \
        f"{path}: store_recovery RecoveryMs missing or zero"
    assert store_recovery["RecoveryMs"] <= store_recovery["real_time"], \
        f"{path}: store_recovery RecoveryMs exceeds the whole " \
        f"restart-to-first-answer time"

print(f"OK: {path}: {len(benches)} benchmark entries")
EOF
done
exit $status
