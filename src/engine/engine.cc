#include "engine/engine.h"

#include <chrono>
#include <utility>

#include "core/cost_model.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {

namespace {

TBox NormalizedCopy(const TBox& tbox) {
  TBox copy = tbox;
  copy.Normalize();  // Idempotent.
  return copy;
}

// Plans whose retained IDB state is kept between incremental executions.
constexpr size_t kIncrementalStateCapacity = 8;

}  // namespace

Engine::Engine(TBox normalized, std::shared_ptr<const DataSnapshot> snapshot,
               const EngineOptions& options)
    : tbox_(std::move(normalized)),
      ctx_(tbox_),
      fingerprint_(FingerprintTBox(tbox_)),
      cache_(options.plan_cache_capacity),
      snapshot_(std::move(snapshot)),
      governor_(options.governor),
      incremental_(kIncrementalStateCapacity, /*max_bytes=*/0,
                   governor_.budget()),
      answer_cache_(options.answer_cache_capacity,
                    options.answer_cache_max_bytes, governor_.budget()),
      coalesce_(options.coalesce),
      store_(options.store) {}

Engine::Engine(const TBox& tbox, const DataInstance& data,
               const TableStore* tables, const EngineOptions& options)
    : Engine(NormalizedCopy(tbox), DataSnapshot::FromInstance(data, tables),
             options) {
  OWLQR_CHECK_MSG(options.store == nullptr,
                  "store-backed engines must be created via Engine::Open "
                  "(recovery has to run before the engine serves)");
}

std::unique_ptr<Engine> Engine::Open(const TBox& tbox,
                                     const DataInstance& data,
                                     const TableStore* tables,
                                     const EngineOptions& options,
                                     Status* status) {
  Status local_status;
  if (status == nullptr) status = &local_status;
  *status = Status::Ok();
  if (options.store == nullptr) {
    return std::make_unique<Engine>(tbox, data, tables, options);
  }
  if (tables != nullptr) {
    *status = Status::InvalidArgument(
        "a durable store cannot back mapping-layer source tables");
    return nullptr;
  }
  OWLQR_NAMED_SPAN(span, "engine/open-recover");
  const auto t0 = std::chrono::steady_clock::now();

  TBox normalized = NormalizedCopy(tbox);
  const uint64_t fingerprint = FingerprintTBox(normalized);
  size_t resident_bytes = options.store_resident_bytes;
  if (resident_bytes == 0 && options.governor.max_memory_bytes > 0) {
    // Half the governor budget: recovered columns share the budget with
    // execution arenas and the retained-state caches.
    resident_bytes = options.governor.max_memory_bytes / 2;
  }

  store::RecoveredState recovered;
  *status = options.store->Recover(normalized.vocabulary(), fingerprint,
                                   resident_bytes, &recovered);
  if (!status->ok()) return nullptr;

  std::unique_ptr<Engine> engine;
  if (recovered.fresh) {
    engine.reset(new Engine(std::move(normalized),
                            DataSnapshot::FromInstance(data), options));
    // Seed the baseline segment before anything can be acknowledged; a
    // failure here fails Open, because an append-only log with no baseline
    // is the unrecoverable LOG-without-CURRENT state.
    *status = options.store->Checkpoint(*engine->snapshot(),
                                        *engine->vocabulary());
    if (!status->ok()) return nullptr;
  } else {
    // The store is the source of truth; `data` was only ever its seed.
    engine.reset(new Engine(std::move(normalized), std::move(recovered.base),
                            options));
    Vocabulary* vocab = engine->vocabulary();
    for (const store::LogRecord& record : recovered.tail) {
      // Resolve names against the live vocabulary.  Intern, not Find: the
      // names were valid when acknowledged, and interning an already-known
      // name is the identity.
      FactBatch batch;
      batch.concepts.reserve(record.batch.concepts.size());
      for (const auto& fact : record.batch.concepts) {
        batch.concepts.push_back(
            {vocab->InternConcept(fact.concept_name),
             vocab->InternIndividual(fact.individual)});
      }
      batch.roles.reserve(record.batch.roles.size());
      for (const auto& fact : record.batch.roles) {
        batch.roles.push_back({vocab->InternPredicate(fact.role),
                               vocab->InternIndividual(fact.subject),
                               vocab->InternIndividual(fact.object)});
      }
      uint64_t version = 0;
      *status = engine->ApplyFactsInternal(batch, &version,
                                           /*persist=*/false);
      if (!status->ok()) return nullptr;
      if (version != record.version) {
        *status = Status::DataLoss(
            "log replay diverged: record for version " +
            std::to_string(record.version) + " produced version " +
            std::to_string(version) +
            " (a record was a no-op against the recovered baseline)");
        return nullptr;
      }
    }
  }
  engine->recovery_ms_ = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  span.Attr("tail_records", static_cast<long>(recovered.tail.size()));
  OWLQR_RECORD("engine/recovery_ms", engine->recovery_ms_);
  return engine;
}

PrepareResult Engine::Prepare(const ConjunctiveQuery& query,
                              const PrepareOptions& options) {
  OWLQR_NAMED_SPAN(span, "engine/prepare");
  const std::string key = MakePlanCacheKey(
      fingerprint_, query,
      options.auto_kind ? std::nullopt : std::optional(options.kind),
      options.rewrite);
  if (std::shared_ptr<const PreparedQuery> hit = cache_.Get(key)) {
    span.Attr("kind", static_cast<long>(hit->kind()));
    span.Attr("cache_hit", 1);
    return {Status::Ok(), std::move(hit), true};
  }

  // Every rewrite runs under this lock: the rewriting context's word table
  // grows while rewriting.
  std::lock_guard<std::mutex> lock(prepare_mutex_);
  // A concurrent Prepare of the same key may have filled the cache while we
  // waited for the compile lock.
  if (std::shared_ptr<const PreparedQuery> hit =
          cache_.Get(key, /*count_miss=*/false)) {
    span.Attr("kind", static_cast<long>(hit->kind()));
    span.Attr("cache_hit", 1);
    return {Status::Ok(), std::move(hit), true};
  }
  span.Attr("cache_hit", 0);
  RewriterKind kind = options.kind;
  // Under auto the Section 6 cost model picks the rewriter against the
  // snapshot current now; the choice is cached with the plan (see
  // PrepareOptions::auto_kind).
  RewriteResult rewritten =
      options.auto_kind
          ? CostBasedRewrite(&ctx_, query, *snapshot(), options.rewrite, &kind)
          : RewriteOmqOrError(&ctx_, query, kind, options.rewrite);
  span.Attr("kind", static_cast<long>(kind));
  if (!rewritten.ok()) {
    return {std::move(rewritten.status), nullptr, false};
  }
  auto prepared = std::make_shared<const PreparedQuery>(
      std::move(rewritten.program), kind, rewritten.diag, key);
  cache_.Put(key, prepared);
  return {Status::Ok(), std::move(prepared), false};
}

ExecuteResult Engine::Execute(const PreparedQuery& prepared,
                              const ExecuteRequest& request) const {
  OWLQR_NAMED_SPAN(span, "engine/execute");
  if (!answer_cache_.enabled() && !coalesce_) {
    return ExecuteGoverned(prepared, request, nullptr, &span);
  }
  ExecuteResult result;
  SharedExecution run = ExecuteMemoized(prepared, request, &result, &span);
  if (run.cached || run.coalesced) {
    result = *run.shared.result;  // Byte-identical copy of the shared run.
    result.cached = run.cached;
    result.coalesced = run.coalesced;
  }
  return result;
}

SharedExecution Engine::ExecuteShared(const PreparedQuery& prepared,
                                      const ExecuteRequest& request) const {
  OWLQR_NAMED_SPAN(span, "engine/execute");
  if (!answer_cache_.enabled() && !coalesce_) {
    return {SharedResult::Make(
        ExecuteGoverned(prepared, request, nullptr, &span),
        governor_.budget())};
  }
  return ExecuteMemoized(prepared, request, nullptr, &span);
}

SharedExecution Engine::ExecuteMemoized(const PreparedQuery& prepared,
                                        const ExecuteRequest& request,
                                        ExecuteResult* owned,
                                        ScopedSpan* span) const {
  // Resolve before compute: the answer set is a pure function of (plan,
  // snapshot version, limits), so pin the version and look the request up
  // before paying for admission or evaluation.
  std::shared_ptr<const DataSnapshot> snap = snapshot();
  const uint64_t keyed_version = snap->version();
  const std::string key =
      AnswerCacheKey(prepared.cache_key(), keyed_version, request.limits);
  SharedExecution out;
  out.shared.result = answer_cache_.Get(key, &out.shared.encoded);
  if (out.shared.result != nullptr) {
    span->Attr("answer_cache_hit", 1);
    span->Attr("snapshot_version",
               static_cast<long>(out.shared.result->snapshot_version));
    governor_.RecordAnswerCacheHit();
    out.cached = true;
    return out;
  }
  // A follower parks on the leader's shared_future, an uninterruptible
  // wait — requests that refuse to wait (queue_timeout_ms == 0) or that
  // may need to abort (a cancel token) must keep their own semantics and
  // evaluate themselves.  They skip leading too: a leader that gets
  // cancelled or shed would resolve its followers with that failure for
  // no better reason than arrival order.
  const bool can_coalesce = coalesce_ && request.cancel == nullptr &&
                            request.queue_timeout_ms != 0;
  InFlightTable::Ticket ticket;
  if (can_coalesce) {
    ticket = inflight_.JoinOrLead(key);
    if (!ticket.leader) {
      // Follower: an identical execution is already running.  Wait for its
      // result instead of burning an admission slot re-deriving it; the
      // leader resolves the future on every exit path, failures included.
      out.shared.result = ticket.flight->future.get();
      out.shared.encoded = ticket.flight->encoded;
      span->Attr("coalesced", 1);
      span->Attr("snapshot_version",
                 static_cast<long>(out.shared.result->snapshot_version));
      governor_.RecordCoalesced();
      out.coalesced = true;
      return out;
    }
  }

  ExecuteResult moved;
  ExecuteResult& result = owned != nullptr ? *owned : moved;
  result = ExecuteGoverned(prepared, request, std::move(snap), span);

  // Publish ONLY a clean complete run: a partial, degraded or aborted
  // result would poison every later hit.  The incremental path may have
  // re-pinned the snapshot forward, so key the publish by the version the
  // result actually answers for.
  const bool publish = answer_cache_.enabled() && result.status.ok() &&
                       !result.partial && !result.degraded;
  const uint64_t version = result.snapshot_version;
  // The shared object is built at most once, and only for a reader: the
  // cache, a follower, or an ExecuteShared caller.
  auto share = [&] {
    if (out.shared.result != nullptr) return;
    out.shared = SharedResult::Make(
        owned != nullptr ? ExecuteResult(result) : std::move(result),
        governor_.budget());
  };
  if (publish) {
    share();
    answer_cache_.Put(
        version == keyed_version
            ? key
            : AnswerCacheKey(prepared.cache_key(), version, request.limits),
        version, out.shared.result, out.shared.encoded);
  }
  // Resolve the followers — with failure too, but never via the cache.
  if (ticket.leader && inflight_.Retire(key, ticket.flight)) {
    share();
    InFlightTable::Resolve(ticket.flight.get(), out.shared);
  }
  if (owned == nullptr) share();
  return out;
}

ExecuteResult Engine::ExecuteGoverned(
    const PreparedQuery& prepared, const ExecuteRequest& request,
    std::shared_ptr<const DataSnapshot> snap, ScopedSpan* span) const {
  // Admission first: a shed request must cost as little as possible — with
  // memoization off no snapshot is pinned yet, so shedding pins none.
  QueryGovernor::Admission admission =
      governor_.Admit(request.queue_timeout_ms);
  if (!admission.admitted()) {
    span->Attr("rejected", 1);
    ExecuteResult result;
    result.status = admission.status();
    result.partial = true;  // The (empty) answer set is incomplete.
    return result;
  }
  if (snap == nullptr) snap = snapshot();  // Pin the version.
  span->Attr("snapshot_version", static_cast<long>(snap->version()));
  span->Attr("threads", request.num_threads);

  const GovernorOptions& gov = governor_.options();

  // Incremental maintenance only serves complete answer sets: a tuple/work
  // limit could truncate the retained state, which would then poison every
  // later delta run.
  const bool want_incremental = request.incremental &&
                                request.limits.max_generated_tuples <= 0 &&
                                request.limits.max_work <= 0;
  ExecuteResult result;
  if (want_incremental &&
      ExecuteIncremental(prepared, request, &snap, &result)) {
    span->Attr("incremental", 1);
    // The incremental path may have re-pinned `snap` forward; re-record the
    // version the result actually answers for.
    span->Attr("snapshot_version",
               static_cast<long>(result.snapshot_version));
    governor_.RecordOutcome(result.status.code(), /*degraded=*/false);
    return result;
  }

  // One evaluation under a fresh MemoryAccount; the account dies with the
  // evaluator's arenas, handing every charged byte back to the budget.
  // `capture` (nullable) receives the materialised IDB state of a clean,
  // complete run, to seed later incremental executions.
  auto run_once = [&](const ExecuteRequest& req, RetainedIdbState* capture) {
    MemoryAccount account(governor_.budget(),
                          gov.max_execution_memory_bytes);
    Evaluator eval(prepared.program(), snap);
    eval.set_join_order_hints(prepared.join_order_hints());
    eval.set_memory_account(&account);
    ExecuteResult r = eval.Run(req);
    if (capture != nullptr && r.status.ok() && !r.partial) {
      eval.ExtractRetainedState(capture);
    }
    return r;
  };

  RetainedIdbState capture;
  result = run_once(request, want_incremental ? &capture : nullptr);
  bool degraded = false;
  if (result.status.code() == StatusCode::kMemoryExceeded &&
      gov.degraded_max_generated_tuples > 0 &&
      (request.limits.max_generated_tuples <= 0 ||
       request.limits.max_generated_tuples >
           gov.degraded_max_generated_tuples)) {
    // Graceful degradation: the first run's arenas are gone (released
    // above), so retry once with a tuple limit small enough to fit — a
    // truncated answer beats none.  The retry can itself abort; its result
    // (including a repeat kMemoryExceeded) is final.
    //
    // The retry runs on a freshly pinned snapshot (facts applied while the
    // first run churned are visible, and the reported snapshot_version
    // matches the data actually read) and, via run_once, on a fresh
    // MemoryAccount whose destructor already reconciled the aborted run's
    // charges back to the budget.  It never captures retained state —
    // the tightened limit makes its answers partial by construction.
    degraded = true;
    span->Attr("degraded_retry", 1);
    snap = snapshot();
    // The retry answers for the re-pinned version, not the one recorded at
    // entry; without this re-record the trace lied after every retry that
    // straddled an ApplyFacts.
    span->Attr("snapshot_version", static_cast<long>(snap->version()));
    ExecuteRequest tightened = request;
    tightened.limits.max_generated_tuples =
        gov.degraded_max_generated_tuples;
    result = run_once(tightened, nullptr);
    result.degraded = true;
    // Even a clean retry answered under tighter limits than asked for.
    result.partial = true;
  }
  if (capture.valid()) {
    incremental_.Put(prepared.cache_key(), std::move(capture));
  }
  governor_.RecordOutcome(result.status.code(), degraded);
  return result;
}

bool Engine::ExecuteIncremental(const PreparedQuery& prepared,
                                const ExecuteRequest& request,
                                std::shared_ptr<const DataSnapshot>* snap,
                                ExecuteResult* result) const {
  auto checkout = incremental_.Take(prepared.cache_key());
  if (!checkout.value.valid()) return false;  // Miss: nothing charged.
  if (checkout.value.version > (*snap)->version()) {
    // The retained state was captured on a snapshot newer than the one we
    // pinned (an ApplyFacts landed in between).  Versions are monotone, so
    // re-pinning forward reconverges; answers are still correct for the
    // version the result reports.
    *snap = snapshot();
  }

  const GovernorOptions& gov = governor_.options();
  MemoryAccount account(governor_.budget(), gov.max_execution_memory_bytes);
  Evaluator eval(prepared.program(), *snap);
  eval.set_join_order_hints(prepared.join_order_hints());
  eval.set_memory_account(&account);
  *result = eval.RunDelta(request, &checkout.value);
  if (result->status.ok() && !result->partial && checkout.value.valid()) {
    incremental_.Put(prepared.cache_key(), std::move(checkout.value),
                     checkout.charged_bytes);
    return true;
  }
  // Aborted or otherwise incomplete: RunDelta already dropped the adopted
  // state (its arenas die with the evaluator), so release its charge and
  // let the caller fall back to a full evaluation.
  governor_.budget()->Release(checkout.charged_bytes);
  return false;
}

ExecuteResult Engine::Query(const ConjunctiveQuery& query,
                            const ExecuteRequest& request, Status* status,
                            const PrepareOptions& prepare_options) {
  PrepareResult prepared = Prepare(query, prepare_options);
  if (status != nullptr) *status = prepared.status;
  if (!prepared.ok()) return {};
  return Execute(*prepared.query, request);
}

Status Engine::ApplyFactsOrError(const FactBatch& batch, uint64_t* version) {
  return ApplyFactsInternal(batch, version, /*persist=*/true);
}

Status Engine::ApplyFactsInternal(const FactBatch& batch, uint64_t* version,
                                  bool persist) {
  // Validate every id against the engine's vocabulary BEFORE building
  // anything: an unknown or negative id would create an orphan relation no
  // rewritten program can ever name — the fact would be silently
  // unqueryable rather than rejected.
  const Vocabulary& vocab = *tbox_.vocabulary();
  const int num_concepts = vocab.num_concepts();
  const int num_predicates = vocab.num_predicates();
  const int num_individuals = vocab.num_individuals();
  for (const FactBatch::ConceptFact& fact : batch.concepts) {
    if (fact.concept_id < 0 || fact.concept_id >= num_concepts) {
      return Status::InvalidArgument("ApplyFacts: unknown concept id");
    }
    if (fact.individual < 0 || fact.individual >= num_individuals) {
      return Status::InvalidArgument("ApplyFacts: unknown individual id");
    }
  }
  for (const FactBatch::RoleFact& fact : batch.roles) {
    if (fact.role_id < 0 || fact.role_id >= num_predicates) {
      return Status::InvalidArgument("ApplyFacts: unknown role id");
    }
    if (fact.subject < 0 || fact.subject >= num_individuals ||
        fact.object < 0 || fact.object >= num_individuals) {
      return Status::InvalidArgument("ApplyFacts: unknown individual id");
    }
  }

  uint64_t new_version;
  {
    // One in-flight WithFacts at a time (monotone versions, each extending
    // its predecessor); the successor build runs with snapshot_mutex_
    // RELEASED, so Execute calls pin snapshots without waiting behind it.
    std::lock_guard<std::mutex> apply_lock(apply_mutex_);
    std::shared_ptr<const DataSnapshot> parent;
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      parent = snapshot_;
    }
    // Only the store's log record reads the appended rows, so only a
    // persisting apply asks WithFacts to copy them out.
    const bool durable = persist && store_ != nullptr;
    SnapshotDelta delta;
    Status refused;
    std::shared_ptr<const DataSnapshot> next =
        parent->WithFacts(batch, durable ? &delta : nullptr, &refused);
    if (!refused.ok()) return refused;  // Still on the parent; nothing logged.
    if (durable && next != parent) {
      // Write-ahead: the delta (only the genuinely new rows, by name) must
      // be durable BEFORE the version is installed, so every version a
      // caller ever observes is recoverable.  On append failure the engine
      // stays on the parent version — the built snapshot is discarded.
      store::NamedFactBatch named;
      named.concepts.reserve(delta.concept_rows.size());
      for (const auto& [concept_id, rows] : delta.concept_rows) {
        const std::string& concept_name = vocab.ConceptName(concept_id);
        for (int individual : rows) {
          named.concepts.push_back(
              {concept_name, vocab.IndividualName(individual)});
        }
      }
      for (const auto& [role_id, rows] : delta.role_rows) {
        const std::string& role_name = vocab.PredicateName(role_id);
        for (size_t i = 0; i + 1 < rows.size(); i += 2) {
          named.roles.push_back({role_name, vocab.IndividualName(rows[i]),
                                 vocab.IndividualName(rows[i + 1])});
        }
      }
      Status status = store_->AppendBatch(next->version(), named);
      if (!status.ok()) return status;
    }
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      if (next != parent) snapshot_ = next;
      // On the no-op path the parent snapshot (and version) stands.
      new_version = snapshot_->version();
    }
    if (next != parent) {
      // Memoized answers for older versions can never hit again (the key
      // embeds the version); sweep them now instead of letting dead entries
      // hold budget until LRU eviction reaches them.
      answer_cache_.InvalidateBelow(new_version);
    }
    if (durable && store_->ShouldCompact()) {
      // Inline compaction, still under apply_mutex_ (checkpoints must not
      // interleave with appends).  Failure is deliberately swallowed: the
      // version just acknowledged IS durable in the log; the store counts
      // the failed compaction and the next apply retries.
      store_->Checkpoint(*snapshot(), vocab);
    }
  }
  if (version != nullptr) *version = new_version;
  return Status::Ok();
}

Status Engine::Checkpoint() {
  if (store_ == nullptr) {
    return Status::InvalidArgument("engine has no durable store");
  }
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  return store_->Checkpoint(*snapshot(), *tbox_.vocabulary());
}

std::shared_ptr<const DataSnapshot> Engine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

}  // namespace owlqr
