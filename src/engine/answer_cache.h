#ifndef OWLQR_ENGINE_ANSWER_CACHE_H_
#define OWLQR_ENGINE_ANSWER_CACHE_H_

// Cross-request answer memoization for the serving engine.
//
// The compiled NDL plan is a pure function of (TBox, query) and an
// execution's answer set is a pure function of (plan, snapshot version,
// answer-affecting limits) — so identical requests arriving under real
// traffic can share one evaluation.  Two layers exploit that, both keyed by
// AnswerCacheKey:
//
//   AnswerCache    resolve-before-compute memoization (MemoDB-style):
//                  Engine::Execute consults the cache before admission and
//                  publishes the result of any clean complete run after.
//                  An LruCache (engine/lru_cache.h) bounded by entry count
//                  and by its own byte cap, with every entry's bytes charged
//                  against the engine memory budget — so cached answers
//                  compete with executions and retained incremental state
//                  for the same budget and are shed LRU-first under
//                  pressure.
//
//   InFlightTable  request coalescing (KataGo-NNEvaluator-style): the first
//                  request for a key becomes the leader and runs; identical
//                  requests arriving while it runs become followers that
//                  block on the leader's shared_future instead of burning
//                  an admission slot and re-running the join DAG.  A leader
//                  that aborts (cancel / memory / deadline / shed)
//                  propagates its failure result to the followers but never
//                  publishes it to the cache.
//
// Only clean complete results are ever cached: partial, degraded,
// truncated or aborted runs would poison every later hit.  Entries carry
// the snapshot version they answer for, so an ApplyFacts can drop every
// entry of an older version in one sweep (they could never hit again — the
// key embeds the version — but they would otherwise hold budget until LRU
// eviction reached them).
//
// All methods of both classes are thread-safe.

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/lru_cache.h"
#include "ndl/evaluator.h"
#include "util/budget.h"
#include "util/metrics.h"

namespace owlqr {

// The memoization key of one execution: the plan-cache key (already
// TBox-fingerprinted and alpha-renaming-insensitive), the snapshot version
// the run is pinned to, and the limit knobs that can change what a complete
// run answers or how long a coalesced follower may be held
// (max_generated_tuples, max_work, deadline_ms).  num_threads and
// morsel_rows are deliberately excluded: answers do not depend on them, so
// requests differing only there share entries and leaders.
std::string AnswerCacheKey(const std::string& plan_key,
                           uint64_t snapshot_version,
                           const EvaluatorLimits& limits);

// Bounded, budget-charged LRU cache of complete execution results: the
// LruCache policy, plus the per-entry snapshot version InvalidateBelow
// sweeps by.
class AnswerCache {
  // One memoized result and the snapshot version it answers for.
  struct Entry {
    uint64_t version = 0;
    std::shared_ptr<const ExecuteResult> result;
    size_t MemoryBytes() const { return result->MemoryBytes(); }
  };

 public:
  // evictions counts capacity / byte-cap / budget-pressure sheds and Clear;
  // invalidated counts entries dropped by InvalidateBelow.
  using Stats = LruCache<Entry>::Stats;

  // `capacity` == 0 disables the cache entirely (Get always misses, Put is
  // a no-op).  `max_bytes` == 0 leaves the cache bounded only by `capacity`
  // and budget pressure.  `budget` (nullable) is charged for every resident
  // entry's bytes.
  AnswerCache(size_t capacity, size_t max_bytes, MemoryBudget* budget)
      : lru_(capacity, max_bytes, budget) {}

  bool enabled() const { return lru_.capacity() > 0; }

  // Returns the cached result (refreshing its recency) or null on a miss.
  std::shared_ptr<const ExecuteResult> Get(const std::string& key) {
    if (!enabled()) return nullptr;
    std::shared_ptr<const ExecuteResult> hit = lru_.Get(key).result;
    OWLQR_COUNT(hit != nullptr ? "engine/answer_cache_hit"
                               : "engine/answer_cache_miss",
                1);
    return hit;
  }

  // Installs `result` under `key` as most-recently-used, charging its
  // MemoryBytes() to the budget, then evicts LRU-first past the entry
  // capacity, past max_bytes, and while the shared budget is over limit
  // (the fresh entry itself is the last to go).  The caller guarantees the
  // result is clean and complete; replacing an existing key releases the
  // old entry's charge.
  void Put(const std::string& key, uint64_t snapshot_version,
           std::shared_ptr<const ExecuteResult> result) {
    if (!enabled() || result == nullptr) return;
    lru_.Put(key, Entry{snapshot_version, std::move(result)});
    OWLQR_COUNT("engine/answer_cache_insert", 1);
  }

  // Drops every entry answering for a snapshot version < `version`,
  // releasing its charge.  Called on ApplyFacts with the new head version.
  void InvalidateBelow(uint64_t version) {
    lru_.EraseIf([version](const Entry& e) { return e.version < version; });
  }

  void Clear() { lru_.Clear(); }
  size_t size() const { return lru_.size(); }
  size_t bytes() const { return lru_.bytes(); }
  size_t capacity() const { return lru_.capacity(); }
  Stats stats() const { return lru_.stats(); }

 private:
  LruCache<Entry> lru_;
};

// The in-flight executions, keyed like the answer cache.  One leader per
// key runs; followers wait on its future.  The table holds flights by
// shared_ptr so a follower that joined just before the leader finished
// still resolves even though the table entry is already gone.
class InFlightTable {
 public:
  struct Flight {
    std::promise<std::shared_ptr<const ExecuteResult>> promise;
    std::shared_future<std::shared_ptr<const ExecuteResult>> future;
  };
  // leader == true: the caller must run the execution and call Finish with
  // this flight, on every exit path, or followers hang.  leader == false:
  // the caller blocks on flight->future instead of executing.
  struct Ticket {
    std::shared_ptr<Flight> flight;
    bool leader = false;
  };

  InFlightTable() = default;
  InFlightTable(const InFlightTable&) = delete;
  InFlightTable& operator=(const InFlightTable&) = delete;

  // Registers the caller as the leader for `key`, or hands back the
  // already-running leader's flight.
  Ticket JoinOrLead(const std::string& key);

  // Retires the leader's flight: removes it from the table (so the next
  // identical request leads a fresh execution) and resolves the future
  // every follower is blocked on.  `result` may be any outcome, including
  // a shed or aborted one — failure propagates, it is the cache publish
  // (the caller's job, before Finish) that is restricted to clean runs.
  void Finish(const std::string& key, const std::shared_ptr<Flight>& flight,
              std::shared_ptr<const ExecuteResult> result);

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace owlqr

#endif  // OWLQR_ENGINE_ANSWER_CACHE_H_
