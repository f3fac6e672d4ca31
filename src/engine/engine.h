#ifndef OWLQR_ENGINE_ENGINE_H_
#define OWLQR_ENGINE_ENGINE_H_

// The prepared-OMQ engine facade: the one object a service embeds.
//
// An Engine freezes one ontology (TBox copy + rewriting context + axiom
// fingerprint) and one live data snapshot, and serves three thread-safe
// operations:
//
//   Prepare(query)       -> shared PreparedQuery, through the LRU plan
//                           cache: a warm hit returns the compiled plan
//                           without touching the rewrite pipeline at all
//                           (no "rewrite" span in traces).
//   Execute(plan, req)   -> answers + stats, pinned to the snapshot version
//                           current at call time; per-request limits and
//                           thread count come in the ExecuteRequest.
//                           ExecuteShared is the same execution handing
//                           out the result by reference.
//   ApplyFactsOrError(batch) -> installs a new snapshot version;
//                           executions already running keep the old
//                           version alive via shared_ptr and are unaffected.
//
// Nothing here aborts on bad input: Prepare reports unsupported query
// shapes through PrepareResult::status (see ValidateOmqShape).
//
// Lifetimes: the Vocabulary passed at construction must outlive the engine
// (the TBox copy, cached programs and prepared queries all reference it);
// the TBox and DataInstance arguments are copied/frozen and may be
// discarded after construction.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/rewriters.h"
#include "core/rewriting_context.h"
#include "cq/cq.h"
#include "data/data_instance.h"
#include "data/snapshot.h"
#include "data/table_store.h"
#include "engine/answer_cache.h"
#include "engine/governor.h"
#include "engine/lru_cache.h"
#include "engine/plan_cache.h"
#include "ndl/evaluator.h"
#include "ontology/tbox.h"
#include "store/store.h"
#include "util/metrics.h"
#include "util/status.h"

namespace owlqr {

struct EngineOptions {
  // Bounded LRU capacity of the plan cache (number of prepared queries);
  // 0 disables it, so every Prepare rewrites.
  size_t plan_cache_capacity = 64;
  // Resource governance: memory budget, admission control, degradation
  // (engine/governor.h).  The defaults govern nothing (no memory limit, no
  // slot pool), preserving the ungoverned behaviour.
  GovernorOptions governor;
  // Bounded LRU capacity of the cross-request answer cache (number of
  // memoized complete results, keyed by plan x snapshot version x limits).
  // 0 (the default) disables answer memoization: every Execute evaluates,
  // matching the other defaults that govern nothing.
  size_t answer_cache_capacity = 0;
  // Byte ceiling across all cached answers (their retained-copy sizes);
  // 0 = no byte cap (the entry-count cap and the memory budget still bound
  // the cache).  Ignored when the cache is disabled.
  size_t answer_cache_max_bytes = 0;
  // Coalesce identical concurrent requests (same plan, snapshot version and
  // limits) onto one evaluation: followers wait on the leader's result
  // instead of burning an admission slot.  Semantics-preserving, so on by
  // default; works with or without the answer cache.
  bool coalesce = true;
  // Durable backend (store/store.h).  Null = in-memory only (the default).
  // A store-backed engine must be created through Engine::Open, which runs
  // recovery; the plain constructor refuses a non-null store.
  std::shared_ptr<store::Store> store;
  // Byte budget for the columns loaded eagerly from a recovered segment;
  // the rest stays cold and faults in on first touch.  0 derives the budget
  // from the governor (half its memory limit), or loads everything when the
  // governor is untracked.
  size_t store_resident_bytes = 0;
};

struct PrepareOptions {
  PrepareOptions() { rewrite.arbitrary_instances = true; }

  // Let the Section 6 cost model pick the rewriter: on a plan-cache miss,
  // Prepare rewrites the OMQ with every optimal rewriter its class admits
  // (UCQ when none does), estimates each program over the current snapshot
  // and keeps the cheapest.  The plan is cached under an auto key, so the
  // choice is made once per cache entry: it may go stale as the data
  // grows, but the plan stays correct, and an eviction decides again.
  // PreparedQuery::kind() reports the choice.  Set to false to force `kind`.
  bool auto_kind = true;
  RewriterKind kind = RewriterKind::kTw;
  // Engine default differs from the raw rewriters: arbitrary_instances is
  // on, because a served data instance is updatable and thus not complete.
  RewriteOptions rewrite;
};

// What ExecuteShared returns: one result shared read-only with the answer
// cache and with coalesced requests, and how this request got it.
struct SharedExecution {
  // Never null; `shared.encoded` is its write-once encoding slot.  The
  // result's own `cached` / `coalesced` members describe the run that
  // produced it (both false); the members below describe this request.
  SharedResult shared;
  bool cached = false;
  bool coalesced = false;
};

struct PrepareResult {
  Status status;
  // Null iff !status.ok().
  std::shared_ptr<const PreparedQuery> query;
  // True when the plan came from the cache (the rewrite pipeline did not
  // run).
  bool cache_hit = false;

  bool ok() const { return status.ok(); }
};

class Engine {
 public:
  // `tbox` is copied and normalized; `data` (and `tables`, if given) is
  // frozen into snapshot version 1.  Refuses (CHECK) a non-null
  // options.store — durable engines go through Open.
  Engine(const TBox& tbox, const DataInstance& data,
         const TableStore* tables = nullptr,
         const EngineOptions& options = {});

  // The store-aware factory.  Without a store it behaves exactly like the
  // constructor.  With one, it runs recovery first: a fresh store is seeded
  // with a checkpoint of `data` (seed failure fails Open — facts must never
  // be acknowledged without a durable baseline); an existing store rebuilds
  // its base snapshot from the newest segment and replays the log tail
  // through the normal ApplyFacts path, so restart cost is
  // O(segment load + log tail), `data` is ignored, and the incremental /
  // answer caches see ordinary versioned updates.  Returns null iff
  // *status is non-OK.  `tables` with a store is unsupported
  // (kInvalidArgument): source tables live outside the store's fact model.
  static std::unique_ptr<Engine> Open(const TBox& tbox,
                                      const DataInstance& data,
                                      const TableStore* tables,
                                      const EngineOptions& options,
                                      Status* status);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Compiles (or fetches from the plan cache) the query's NDL plan.
  // Thread-safe; concurrent Prepare calls of the same key rewrite at most
  // once.  Shape errors come back in the status, never as an abort.
  PrepareResult Prepare(const ConjunctiveQuery& query,
                        const PrepareOptions& options = {});

  // Runs `prepared` against the current snapshot under the request's
  // limits.  Thread-safe; any number of executions (same or different
  // plans) may run concurrently with each other and with ApplyFacts.  The
  // result carries the snapshot version the run was pinned to.
  //
  // Every call passes through the governor: admission control first (a shed
  // request returns immediately with StatusCode::kRejected and no answers),
  // then evaluation under a MemoryAccount charging the engine budget and
  // the request's cancel token / deadline — aborts surface as kCancelled /
  // kMemoryExceeded / kDeadlineExceeded with partial=true.  When degraded
  // retries are configured, a memory-aborted run is re-run once with
  // tightened limits and surfaced with degraded=true.
  //
  // With the answer cache enabled, a memoized complete result for the same
  // (plan, snapshot version, limits) serves the request — byte-identical
  // answers, cached=true, no admission slot taken.  With coalescing on, an
  // identical request already evaluating makes this call a follower: it
  // waits for the leader's result, coalesced=true.  Partial, degraded and
  // aborted results are never memoized.
  //
  // Execute hands out a value: a hit or a follower returns a copy of the
  // shared result.  A leader returns the evaluator's own result by move; it
  // copies it into a shared object only when the cache publishes it or a
  // follower actually joined.
  ExecuteResult Execute(const PreparedQuery& prepared,
                        const ExecuteRequest& request = {}) const;

  // The same execution, handing out the result by reference: a hit or a
  // follower is a refcount bump on the object the cache or the leader
  // holds, and a leader moves its result into that object.  The serving
  // layer uses this path (api::Service::Execute) and encodes each shared
  // answer set once, into `shared.encoded`.
  SharedExecution ExecuteShared(const PreparedQuery& prepared,
                                const ExecuteRequest& request = {}) const;

  // Prepare + Execute in one call, for one-shot queries.  On prepare
  // failure, returns an empty result and sets *status (nullable).
  ExecuteResult Query(const ConjunctiveQuery& query,
                      const ExecuteRequest& request = {},
                      Status* status = nullptr,
                      const PrepareOptions& prepare_options = {});

  // Installs a new snapshot version extended by `batch` (each touched
  // relation appended to in its shared store; see DataSnapshot::WithFacts)
  // and returns its version through `version` (nullable).
  // In-flight executions keep the version they pinned.  Plans stay valid:
  // the cache key depends only on the TBox, not the data.
  //
  // The batch is validated against the engine's vocabulary first: a
  // concept / role / individual id that is negative or was never interned
  // returns kInvalidArgument and installs NOTHING — previously such facts
  // silently created orphan relations no rewriting could ever name.  A
  // batch whose facts are all already present is a no-op: the version does
  // not change and no snapshot is built.  A batch a relation at its row
  // ceiling refuses returns kMemoryExceeded, stays on the current version
  // and logs nothing.
  //
  // The successor build runs OUTSIDE the snapshot lock, so
  // concurrent Execute calls pin snapshots without waiting behind a large
  // update; concurrent ApplyFacts calls serialise among themselves.
  Status ApplyFactsOrError(const FactBatch& batch,
                           uint64_t* version = nullptr);

  // Forces a store checkpoint of the current snapshot (segment write +
  // CURRENT switch + log reset).  Serialises with ApplyFacts.  Errors are
  // non-fatal to serving — the previous segment and log still recover.
  // kInvalidArgument when the engine has no store.
  Status Checkpoint();

  // Drops every retained incremental IDB state, releasing its memory-budget
  // charge.  Subsequent incremental executions re-seed from a full run.
  void ClearIncrementalState() const { incremental_.Clear(); }
  size_t incremental_state_size() const { return incremental_.size(); }

  // Drops every memoized answer, releasing its memory-budget charge.
  void ClearAnswerCache() const { answer_cache_.Clear(); }
  AnswerCache::Stats answer_cache_stats() const {
    return answer_cache_.stats();
  }
  size_t answer_cache_size() const { return answer_cache_.size(); }
  size_t answer_cache_bytes() const { return answer_cache_.bytes(); }

  // The snapshot a new execution would pin right now.
  std::shared_ptr<const DataSnapshot> snapshot() const;
  uint64_t snapshot_version() const { return snapshot()->version(); }

  const TBox& tbox() const { return tbox_; }
  // Read-only reasoning state, e.g. for ProfileOmq.  Do not use concurrently
  // with Prepare: a cache-miss rewrite grows the context's word table (under
  // prepare_mutex_, which is Prepare's only access to the context).
  const RewritingContext& context() const { return ctx_; }
  Vocabulary* vocabulary() const { return tbox_.vocabulary(); }
  uint64_t tbox_fingerprint() const { return fingerprint_; }
  PlanCache::Stats cache_stats() const { return cache_.stats(); }
  size_t cache_size() const { return cache_.size(); }
  // Admission / memory / outcome counters (engine/governor.h); memory_used
  // returns to zero once every execution has finished.
  QueryGovernor::Counters governor_counters() const {
    return governor_.counters();
  }
  // Null for in-memory engines.
  const std::shared_ptr<store::Store>& store() const { return store_; }
  // End-to-end Open recovery wall time (store load + log-tail replay);
  // 0 for in-memory engines and fresh stores.
  double recovery_ms() const { return recovery_ms_; }

 private:
  // Shared guts of the constructor and Open: `normalized` is already the
  // engine's own normalized TBox copy, `snapshot` its initial data version
  // (frozen instance or recovered segment).
  Engine(TBox normalized, std::shared_ptr<const DataSnapshot> snapshot,
         const EngineOptions& options);

  // The body of ApplyFactsOrError.  With `persist`, the delta is appended
  // (and fsynced) to the store BETWEEN the successor build and the
  // install — an append failure leaves the engine on the old version, so a
  // version is acknowledged iff it is durable — and a post-install
  // ShouldCompact triggers an inline checkpoint (failure counted, not
  // surfaced).  Recovery replays log records with persist=false: they are
  // already durable, so WithFacts copies out no delta for them.
  Status ApplyFactsInternal(const FactBatch& batch, uint64_t* version,
                            bool persist);

  // The incremental Execute path: take the retained state, catch it up via
  // RunDelta (which reads the rows appended since the state's version
  // straight from the snapshot's relation stores), put it back.  False
  // (with its charge released) on a miss or an abort, in which case the
  // caller runs the full path.  May re-pin `*snap` forward if the retained
  // state is newer.
  bool ExecuteIncremental(const PreparedQuery& prepared,
                          const ExecuteRequest& request,
                          std::shared_ptr<const DataSnapshot>* snap,
                          ExecuteResult* result) const;
  // The answer-cache / coalescing front-end of Execute and ExecuteShared.
  // A hit or a follower returns the shared result with cached / coalesced
  // set.  Otherwise this request leads: it evaluates, publishes a clean
  // result to the cache and resolves any followers.  With `owned` (from
  // Execute) the evaluated result stays in *owned and the shared object,
  // built only if the cache or a follower needs it, is a copy; without it
  // (ExecuteShared) the result moves into the returned shared object.
  SharedExecution ExecuteMemoized(const PreparedQuery& prepared,
                                  const ExecuteRequest& request,
                                  ExecuteResult* owned,
                                  ScopedSpan* span) const;
  // The governed evaluation core of Execute: admission, snapshot pinning
  // (reuses `snap` when the memoization front-end already pinned one),
  // incremental path, full evaluation, degraded retry.  Everything except
  // the answer-cache / coalescing front-end that wraps it.
  ExecuteResult ExecuteGoverned(const PreparedQuery& prepared,
                                const ExecuteRequest& request,
                                std::shared_ptr<const DataSnapshot> snap,
                                ScopedSpan* span) const;

  // White-box access for tests (incremental re-pin, in-flight table).
  friend class EngineTestPeer;

  TBox tbox_;  // Engine's own normalized copy.
  RewritingContext ctx_;
  const uint64_t fingerprint_;
  PlanCache cache_;
  // Serializes cache-miss compilation, the auto kind's cost-based choice
  // included: the rewriting context's word table is mutated during
  // rewriting, so every access to ctx_ happens under this lock (cache hits
  // and executions never take it).
  std::mutex prepare_mutex_;
  // Serializes the build phase of ApplyFacts (one in-flight WithFacts at a
  // time keeps versions monotone, each extending its predecessor's
  // relation stores) without blocking snapshot readers, who only ever take
  // snapshot_mutex_.
  std::mutex apply_mutex_;
  mutable std::mutex snapshot_mutex_;  // Guards snapshot_.
  std::shared_ptr<const DataSnapshot> snapshot_;
  // Mutable because Execute is const (it mutates no engine-visible state;
  // the governor's slots/counters are bookkeeping).
  mutable QueryGovernor governor_;
  // Retained IDB states for incremental execution, keyed by plan-cache key
  // and charged to the governor's budget while resident.  An execution
  // Takes its plan's state (so no two delta runs ever adopt one state) and
  // Puts the caught-up state back.  Mutable for the same reason as the
  // governor (a cache, not engine-visible semantics).
  mutable LruCache<RetainedIdbState> incremental_;
  // Cross-request answer memoization and in-flight coalescing (mutable for
  // the same reason: caches, not engine-visible semantics).
  mutable AnswerCache answer_cache_;
  mutable InFlightTable inflight_;
  const bool coalesce_;
  // Durable backend; appends/checkpoints run under apply_mutex_, reads of
  // its counters are internally synchronized.  Null = in-memory engine.
  const std::shared_ptr<store::Store> store_;
  double recovery_ms_ = 0;  // Set once by Open, before any concurrency.
};

}  // namespace owlqr

#endif  // OWLQR_ENGINE_ENGINE_H_
