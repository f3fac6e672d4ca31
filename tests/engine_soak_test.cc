// Randomized governor soak: one Engine with a 1-slot admission pool and a
// small shared memory budget, hammered by 8 threads mixing Prepare, Execute
// (sequential and parallel, with and without deadlines, sometimes refusing
// to queue), ApplyFacts and asynchronous cancellation — with the answer
// cache and in-flight coalescing enabled, and half the traffic carrying no
// cancel token so it is coalescing-eligible.  Part of the `sanitize` AND
// `soak` ctest labels — under ThreadSanitizer this proves the admission
// queue, the memory accounting, the cancel-token plumbing, the answer
// cache, the in-flight table and the governor counters race-free.
//
// Correctness is checked the same way as engine_concurrency_test.cc: fact
// batches are applied in a fixed order by a single updater, so snapshot
// version v always holds the same facts; any admitted execution that ends
// kOk and non-partial must return exactly the single-shot answers for the
// version it pinned.  Aborted/shed executions are checked for the governor's
// contract instead: a distinct status code, a `partial` marker, and sane
// stats.  At quiesce the shared budget must account to exactly zero.
//
// Randomness is seeded deterministically per thread; only thread scheduling
// varies between runs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/rewriters.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

constexpr int kNumBatches = 6;
constexpr int kExecutorThreads = 5;
constexpr int kIterationsPerThread = 150;

const char* const kWords[] = {"RS", "RSR", "RRSR"};
constexpr int kNumQueries = 3;

// Deterministic fact batch b (same shape as engine_concurrency_test.cc): a
// fresh R/S chain plus one exists-P witness label, enough to change the
// answers of every kWords query.
FactBatch MakeBatch(Vocabulary* vocab, const TBox& tbox, int b) {
  int r = vocab->InternPredicate("R");
  int s = vocab->InternPredicate("S");
  int label = tbox.ExistsConcept(RoleOf(vocab->InternPredicate("P")));
  std::string prefix = "soak" + std::to_string(b) + "_";
  auto ind = [&](int i) {
    return vocab->InternIndividual(prefix + std::to_string(i));
  };
  FactBatch batch;
  batch.roles.push_back({r, ind(0), ind(1)});
  batch.roles.push_back({s, ind(1), ind(2)});
  batch.roles.push_back({r, ind(2), ind(3)});
  batch.roles.push_back({r, ind(3), ind(4)});
  batch.concepts.push_back({label, ind(4)});
  return batch;
}

void ApplyBatchToInstance(DataInstance* data, const FactBatch& batch) {
  for (const FactBatch::ConceptFact& fact : batch.concepts) {
    data->AddConceptAssertion(fact.concept_id, fact.individual);
  }
  for (const FactBatch::RoleFact& fact : batch.roles) {
    data->AddRoleAssertion(fact.role_id, fact.subject, fact.object);
  }
}

// One executor's currently cancellable token, shared with the canceller
// thread.  A plain mutex-guarded slot: the canceller copies the shared_ptr
// out and fires it outside the evaluator's sight, exactly like a remote
// disconnect would.
struct CancelSlot {
  std::mutex mu;
  std::shared_ptr<CancelToken> token;

  void Set(std::shared_ptr<CancelToken> t) {
    std::lock_guard<std::mutex> lock(mu);
    token = std::move(t);
  }
  void FireIfSet() {
    std::shared_ptr<CancelToken> t;
    {
      std::lock_guard<std::mutex> lock(mu);
      t = token;
    }
    if (t != nullptr) t->Cancel();
  }
};

TEST(EngineSoakTest, GovernedChaosKeepsAnswersExactAndAccountsToZero) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  DataInstance base =
      GenerateDataset(&vocab, *tbox, DatasetConfig{"c", 50, 0.1, 0.12, 13});

  std::vector<FactBatch> batches;
  for (int b = 0; b < kNumBatches; ++b) {
    batches.push_back(MakeBatch(&vocab, *tbox, b));
  }

  // Interned and compiled up front: the Vocabulary is not thread-safe.
  std::vector<ConjunctiveQuery> queries;
  for (const char* word : kWords) {
    queries.push_back(SequenceQuery(&vocab, word));
  }
  RewritingContext ctx(*tbox);
  RewriteOptions options;
  options.arbitrary_instances = true;
  std::vector<NdlProgram> programs;
  for (const ConjunctiveQuery& q : queries) {
    RewriteResult rewritten =
        RewriteOmqOrError(&ctx, q, RewriterKind::kTw, options);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status.ToString();
    programs.push_back(std::move(rewritten.program));
  }

  // expected[v - 1][q]: single-shot answers at snapshot version v.
  std::vector<std::vector<std::vector<std::vector<int>>>> expected(
      kNumBatches + 1);
  DataInstance grown = base;
  for (int v = 0; v <= kNumBatches; ++v) {
    if (v > 0) ApplyBatchToInstance(&grown, batches[v - 1]);
    for (int q = 0; q < kNumQueries; ++q) {
      Evaluator eval(programs[q], DataSnapshot::FromInstance(grown));
      expected[v].push_back(eval.Run(ExecuteRequest{}).answers);
    }
  }
  ASSERT_NE(expected.front(), expected.back());

  PrepareOptions prepare_options;
  prepare_options.auto_kind = false;
  prepare_options.kind = RewriterKind::kTw;

  // The governed engine under stress: ONE execution slot (everything else
  // queues), a small but workable shared budget, a small plan cache, and a
  // degraded-retry limit so memory rejections exercise the retry path too.
  EngineOptions engine_options;
  engine_options.plan_cache_capacity = 2;
  engine_options.governor.max_concurrent = 1;
  engine_options.governor.max_queue = 16;
  engine_options.governor.queue_timeout_ms = 5'000;
  engine_options.governor.max_memory_bytes = 512 * 1024;
  engine_options.governor.degraded_max_generated_tuples = 10'000;
  // Cross-request memoization on, sized so version churn and budget
  // pressure both force evictions mid-soak.  Coalescing defaults on; only
  // requests without a cancel token are eligible.
  engine_options.answer_cache_capacity = 32;
  engine_options.answer_cache_max_bytes = 256 * 1024;
  Engine engine(*tbox, base, nullptr, engine_options);

  std::atomic<int> failures{0};
  std::atomic<int> exact_results{0};
  std::atomic<int> cancelled_results{0};
  std::atomic<int> rejected_results{0};
  std::atomic<int> cached_results{0};
  std::atomic<int> coalesced_results{0};
  std::atomic<bool> done{false};
  std::vector<CancelSlot> slots(kExecutorThreads);

  // Thread 1/8 (main counts as 8): the single updater.  Versions must come
  // out strictly in batch order.
  std::thread updater([&] {
    for (int b = 0; b < kNumBatches; ++b) {
      uint64_t version = 0;
      if (!engine.ApplyFactsOrError(batches[b], &version).ok() ||
          version != static_cast<uint64_t>(b) + 2) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Thread 2/8: the canceller, firing random executors' tokens until every
  // executor is done.
  std::thread canceller([&] {
    std::mt19937 rng(99);
    while (!done.load(std::memory_order_acquire)) {
      slots[rng() % kExecutorThreads].FireIfSet();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Threads 3-7/8: executors mixing every request shape the governor
  // distinguishes.
  std::vector<std::thread> executors;
  for (int t = 0; t < kExecutorThreads; ++t) {
    executors.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      for (int i = 0; i < kIterationsPerThread; ++i) {
        int q = static_cast<int>(rng() % kNumQueries);
        PrepareResult prepared = engine.Prepare(queries[q], prepare_options);
        if (!prepared.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExecuteRequest request;
        request.num_threads = i % 3 == 0 ? 3 : 1;
        // Half the traffic asks for incremental maintenance: retained
        // states churn through checkout / publish / budget-pressure
        // eviction concurrently with full runs, updates and cancellation,
        // and must never change what an un-aborted run answers.
        request.incremental = i % 2 == 0;
        unsigned shape = rng() % 8;
        if (shape == 0) request.limits.deadline_ms = 1;  // Likely deadline.
        if (shape == 1) request.queue_timeout_ms = 0;    // Shed if busy.
        // Half the traffic carries no cancel token: those requests are
        // eligible to hit the answer cache's key fast path and to coalesce
        // onto identical in-flight executions (cancellable requests never
        // lead or follow — they must stay interruptible).
        if (shape < 4) {
          auto cancel = std::make_shared<CancelToken>();
          request.cancel = cancel;
          slots[t].Set(cancel);
        }
        ExecuteResult result = engine.Execute(*prepared.query, request);
        slots[t].Set(nullptr);

        if (result.cached || result.coalesced) {
          // Served without evaluating: a cache hit is always a clean,
          // complete, byte-identical replay; a coalesced result is a copy
          // of the leader's outcome (whose request had the same limits
          // signature, but whose failure modes are its own), so only the
          // answer-exactness contract applies here — the per-status stats
          // contracts below belong to the runs that actually executed.
          if (result.cached) cached_results.fetch_add(1);
          if (result.coalesced) coalesced_results.fetch_add(1);
          if (result.cached &&
              (!result.status.ok() || result.partial || result.degraded)) {
            failures.fetch_add(1);  // Only clean runs may be cached.
          }
          if (result.status.ok() && !result.partial) {
            size_t v = static_cast<size_t>(result.snapshot_version);
            if (v < 1 || v > static_cast<size_t>(kNumBatches) + 1 ||
                result.answers != expected[v - 1][q]) {
              failures.fetch_add(1);
            } else {
              exact_results.fetch_add(1);
            }
          }
          continue;
        }

        switch (result.status.code()) {
          case StatusCode::kOk:
            if (!result.partial) {
              // The governor's core promise: an admitted, un-aborted run is
              // answer-exact for the version it pinned.
              size_t v = static_cast<size_t>(result.snapshot_version);
              if (v < 1 || v > static_cast<size_t>(kNumBatches) + 1 ||
                  result.answers != expected[v - 1][q]) {
                failures.fetch_add(1);
              } else {
                exact_results.fetch_add(1);
              }
            } else if (!result.degraded && result.stats.aborted) {
              // kOk + partial must mean a plain limit truncation or a
              // degraded retry, never an unexplained abort.
              if (!result.stats.row_ceiling) failures.fetch_add(1);
            }
            break;
          case StatusCode::kCancelled:
            if (!result.partial || !result.stats.cancelled) {
              failures.fetch_add(1);
            }
            cancelled_results.fetch_add(1);
            break;
          case StatusCode::kDeadlineExceeded:
            if (!result.partial || !result.stats.deadline_exceeded) {
              failures.fetch_add(1);
            }
            break;
          case StatusCode::kMemoryExceeded:
            if (!result.partial || !result.stats.memory_exceeded) {
              failures.fetch_add(1);
            }
            break;
          case StatusCode::kRejected:
            // Shed before evaluation: no answers, no pinned snapshot.
            if (!result.answers.empty() || result.snapshot_version != 0) {
              failures.fetch_add(1);
            }
            rejected_results.fetch_add(1);
            break;
          default:
            failures.fetch_add(1);
            break;
        }
      }
    });
  }

  for (std::thread& thread : executors) thread.join();
  done.store(true, std::memory_order_release);
  updater.join();
  canceller.join();
  EXPECT_EQ(failures.load(), 0);
  // The soak must actually have exercised the happy path, not just aborts.
  EXPECT_GT(exact_results.load(), 0);

  // Quiesce: every account died with its execution and the only remaining
  // budget charges belong to retained incremental states and cached answer
  // sets, so after dropping both the shared budget is back to exactly
  // zero, and the counters add up.
  engine.ClearIncrementalState();
  engine.ClearAnswerCache();
  QueryGovernor::Counters counters = engine.governor_counters();
  EXPECT_EQ(counters.memory_used, 0u);
  EXPECT_EQ(counters.cancelled, cancelled_results.load());
  EXPECT_EQ(counters.rejected(), rejected_results.load());
  EXPECT_GT(counters.admitted, 0);
  // Memoization accounting: hits and coalesced followers are exactly the
  // results marked as such, and every request is accounted once — it was
  // admitted, shed, served from cache, or parked on a leader.
  EXPECT_EQ(counters.answer_cache_hits, cached_results.load());
  EXPECT_EQ(counters.coalesced, coalesced_results.load());
  EXPECT_EQ(
      counters.admitted + counters.rejected() + counters.answer_cache_hits +
          counters.coalesced,
      static_cast<long>(kExecutorThreads) * kIterationsPerThread);

  // And the engine still serves exact answers on the final snapshot.
  EXPECT_EQ(engine.snapshot_version(), static_cast<uint64_t>(kNumBatches) + 1);
  for (int q = 0; q < kNumQueries; ++q) {
    Status status;
    ExecuteResult result = engine.Query(queries[q], ExecuteRequest{}, &status,
                                        prepare_options);
    ASSERT_TRUE(status.ok());
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.answers, expected[kNumBatches][q]) << kWords[q];
  }
}

}  // namespace
}  // namespace owlqr
