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
// Both hand out results by reference (KataGo's NNResultBuf pattern): a
// SharedResult is one immutable ExecuteResult that a single producer
// filled, allocated together with a write-once slot for its encoded answer
// array (EncodedAnswers).  A hit, a follower and the cache entry hold the
// same object, so serving one is a refcount bump, and the serving layer
// encodes each shared answer set at most once.
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
// batch_rows are deliberately excluded: answers do not depend on them, so
// requests differing only there share entries and leaders.
std::string AnswerCacheKey(const std::string& plan_key,
                           uint64_t snapshot_version,
                           const EvaluatorLimits& limits);

// The write-once encoding of one shared result's answer array (the
// serving layer's JSON, see api::Service::Execute).  Its bytes are charged
// to the engine's memory budget when written and released when the last
// holder of the result drops it.
class EncodedAnswers {
 public:
  explicit EncodedAnswers(MemoryBudget* budget) : budget_(budget) {}
  ~EncodedAnswers() {
    if (budget_ != nullptr) budget_->Release(charged_);
  }
  EncodedAnswers(const EncodedAnswers&) = delete;
  EncodedAnswers& operator=(const EncodedAnswers&) = delete;

  // Returns the memoized bytes, calling `encode` to write them on the first
  // call only; concurrent first callers wait for the one that writes.
  template <typename Encode>
  const std::string& Get(Encode&& encode) {
    std::call_once(once_, [&] {
      bytes_ = encode();
      bytes_.shrink_to_fit();
      charged_ = bytes_.capacity();
      if (budget_ != nullptr) budget_->Charge(charged_);
    });
    return bytes_;
  }

 private:
  MemoryBudget* const budget_;  // Nullable: untracked.
  std::once_flag once_;
  std::string bytes_;
  size_t charged_ = 0;
};

// One execution result shared by reference, and the encoding slot
// allocated beside it in the same block (so ExecuteResult keeps its
// layout).  Both pointers share one control block: `encoded` lives exactly
// as long as `result`, and copying a SharedResult is a refcount bump.
struct SharedResult {
  std::shared_ptr<const ExecuteResult> result;
  // Null only for a result shared without Make (e.g. a hand-built cache
  // entry); every result the engine shares has one.
  std::shared_ptr<EncodedAnswers> encoded;

  // Moves `result` into a fresh block whose encoding is charged to
  // `budget` (nullable).
  static SharedResult Make(ExecuteResult result, MemoryBudget* budget);
};

// Bounded, budget-charged LRU cache of complete execution results: the
// LruCache policy, plus the per-entry snapshot version InvalidateBelow
// sweeps by.  An entry's charge is its result's MemoryBytes(); an encoding
// written later charges the budget itself (see EncodedAnswers), so the
// byte cap bounds results only.
class AnswerCache {
  // One memoized result and the snapshot version it answers for.
  struct Entry {
    uint64_t version = 0;
    SharedResult shared;
    size_t MemoryBytes() const { return shared.result->MemoryBytes(); }
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

  // Returns the cached result (refreshing its recency) or null on a miss;
  // on a hit, `encoded` (nullable) receives its encoding slot.
  std::shared_ptr<const ExecuteResult> Get(
      const std::string& key,
      std::shared_ptr<EncodedAnswers>* encoded = nullptr) {
    if (!enabled()) return nullptr;
    SharedResult hit = lru_.Get(key).shared;
    OWLQR_COUNT(hit.result != nullptr ? "engine/answer_cache_hit"
                                      : "engine/answer_cache_miss",
                1);
    if (encoded != nullptr) *encoded = std::move(hit.encoded);
    return std::move(hit.result);
  }

  // Installs `result` under `key` as most-recently-used, charging its
  // MemoryBytes() to the budget, then evicts LRU-first past the entry
  // capacity, past max_bytes, and while the shared budget is over limit
  // (the fresh entry itself is the last to go).  The caller guarantees the
  // result is clean and complete; replacing an existing key releases the
  // old entry's charge.
  void Put(const std::string& key, uint64_t snapshot_version,
           std::shared_ptr<const ExecuteResult> result,
           std::shared_ptr<EncodedAnswers> encoded = nullptr) {
    if (!enabled() || result == nullptr) return;
    lru_.Put(key, Entry{snapshot_version,
                        SharedResult{std::move(result), std::move(encoded)}});
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
    // The resolved result's encoding slot; written before the promise is
    // set, so a follower reads it after future.get().
    std::shared_ptr<EncodedAnswers> encoded;
    // Followers that joined; guarded by the table's mutex.
    int followers = 0;
  };
  // leader == true: the caller must run the execution and retire this
  // flight (Retire, then Resolve if a follower joined; or Finish) on every
  // exit path, or followers hang.  leader == false:
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

  // Retires the leader's flight: removes it from the table, so the next
  // identical request leads a fresh execution, and reports whether any
  // follower joined it.  Joining and this check share the table's mutex,
  // so after false no request can ever wait on the flight and the leader
  // need not share its result; after true the leader must Resolve it.
  bool Retire(const std::string& key, const std::shared_ptr<Flight>& flight);

  // Resolves a retired flight's future, waking every follower blocked on
  // it.  `shared` may be any outcome, including a shed or aborted one —
  // failure propagates; it is the cache publish (the caller's job) that is
  // restricted to clean runs.
  static void Resolve(Flight* flight, SharedResult shared);

  // Retire, then Resolve with `result` (no encoding slot).
  void Finish(const std::string& key, const std::shared_ptr<Flight>& flight,
              std::shared_ptr<const ExecuteResult> result);

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace owlqr

#endif  // OWLQR_ENGINE_ANSWER_CACHE_H_
