// Concurrency test for the prepared-OMQ engine: one Engine hammered by
// threads that Prepare, Execute and ApplyFacts simultaneously.  Part of the
// `sanitize` ctest label — run under ThreadSanitizer this proves the plan
// cache, the shared snapshot index caches, the join-order hint slots and the
// copy-on-write snapshot swap race-free.
//
// Correctness is checked deterministically: a single updater thread applies
// fact batches in a fixed order, so snapshot version v always holds the same
// facts; every execution reports the version it pinned, and its answers must
// equal a fresh single-shot evaluation over a DataInstance grown to exactly
// that version (computed up front, before any threads start).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
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
constexpr int kExecutorThreads = 4;
constexpr int kIterationsPerThread = 24;

const char* const kWords[] = {"RS", "RSR", "RRSR"};
constexpr int kNumQueries = 3;

// Deterministic fact batch b: a fresh R/S chain plus one exists-P witness
// label, enough to change the answers of every kWords query.
FactBatch MakeBatch(Vocabulary* vocab, const TBox& tbox, int b) {
  int r = vocab->InternPredicate("R");
  int s = vocab->InternPredicate("S");
  int label = tbox.ExistsConcept(RoleOf(vocab->InternPredicate("P")));
  std::string prefix = "batch" + std::to_string(b) + "_";
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

TEST(EngineConcurrencyTest, ConcurrentPrepareExecuteApplyFactsAgree) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  DataInstance base =
      GenerateDataset(&vocab, *tbox, DatasetConfig{"c", 50, 0.1, 0.12, 11});

  std::vector<FactBatch> batches;
  for (int b = 0; b < kNumBatches; ++b) {
    batches.push_back(MakeBatch(&vocab, *tbox, b));
  }

  // Built before any thread starts: the Vocabulary is not thread-safe, so
  // every symbol and query is interned up front and only read afterwards.
  std::vector<ConjunctiveQuery> queries;
  for (const char* word : kWords) {
    queries.push_back(SequenceQuery(&vocab, word));
  }

  // Expected answers per (snapshot version, query), from fresh single-shot
  // runs over incrementally grown DataInstances.  Version v = 1 + batches
  // applied.
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
  std::vector<std::vector<std::vector<std::vector<int>>>> expected(
      kNumBatches + 1);  // expected[v - 1][q] = answer tuples.
  DataInstance grown = base;
  for (int v = 0; v <= kNumBatches; ++v) {
    if (v > 0) ApplyBatchToInstance(&grown, batches[v - 1]);
    for (int q = 0; q < kNumQueries; ++q) {
      Evaluator eval(programs[q], DataSnapshot::FromInstance(grown));
      expected[v].push_back(eval.Run(ExecuteRequest{}).answers);
    }
  }
  // The batches must actually change the final answers, or this test
  // wouldn't notice an execution reading across versions.
  ASSERT_NE(expected.front(), expected.back());

  // Forced kind so engine plans match the `programs` used for `expected`.
  PrepareOptions prepare_options;
  prepare_options.auto_kind = false;
  prepare_options.kind = RewriterKind::kTw;

  // Small cache: with 3 live queries and capacity 2, concurrent executions
  // keep plans alive across evictions and recompiles.
  EngineOptions engine_options;
  engine_options.plan_cache_capacity = 2;
  Engine engine(*tbox, base, nullptr, engine_options);

  std::atomic<int> failures{0};
  std::thread updater([&] {
    for (int b = 0; b < kNumBatches; ++b) {
      uint64_t version = 0;
      if (!engine.ApplyFactsOrError(batches[b], &version).ok() ||
          version != static_cast<uint64_t>(b) + 2) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> executors;
  for (int t = 0; t < kExecutorThreads; ++t) {
    executors.emplace_back([&, t] {
      for (int i = 0; i < kIterationsPerThread; ++i) {
        int q = (t + i) % kNumQueries;
        PrepareResult prepared = engine.Prepare(queries[q], prepare_options);
        if (!prepared.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExecuteRequest request;
        request.num_threads = i % 3 == 0 ? 2 : 1;
        ExecuteResult result = engine.Execute(*prepared.query, request);
        size_t v = static_cast<size_t>(result.snapshot_version);
        if (v < 1 || v > static_cast<size_t>(kNumBatches) + 1 ||
            result.answers != expected[v - 1][q]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  updater.join();
  for (std::thread& thread : executors) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles: every query on the final snapshot agrees with
  // its fresh single-shot run.
  EXPECT_EQ(engine.snapshot_version(), static_cast<uint64_t>(kNumBatches) + 1);
  for (int q = 0; q < kNumQueries; ++q) {
    Status status;
    ExecuteResult result = engine.Query(queries[q], ExecuteRequest{}, &status,
                                        prepare_options);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(result.answers, expected[kNumBatches][q]) << kWords[q];
  }
  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
}

// Concurrent auto-kind prepares of disjoint fresh queries.  Every Prepare
// is a plan-cache miss whose cost-based choice rewrites the query with each
// applicable rewriter (growing the shared RewritingContext's word table)
// and estimates each program over the pinned snapshot, while the other
// threads do the same and execute earlier plans.  Run under
// ThreadSanitizer (`ctest -L sanitize`) this pins that all of that work,
// the choice included, runs inside the one compile lock, `prepare_mutex_`;
// an auto-kind read of the context outside it once raced the rewrites.
TEST(EngineConcurrencyTest, ConcurrentAutoKindPrepareIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 6;

  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  DataInstance base =
      GenerateDataset(&vocab, *tbox, DatasetConfig{"c", 30, 0.1, 0.12, 3});

  // A distinct word per (thread, query): the binary digits of a unique
  // integer spelled in R/S.  All interned up front — the Vocabulary is not
  // thread-safe — and pairwise distinct, so no thread ever gets a plan
  // cache hit and every Prepare races a rewrite against the profilers.
  std::vector<std::vector<ConjunctiveQuery>> queries(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kQueriesPerThread; ++i) {
      std::string word;
      for (int code = t * kQueriesPerThread + i + 2; code > 0; code >>= 1) {
        word += (code & 1) ? 'S' : 'R';
      }
      queries[t].push_back(SequenceQuery(&vocab, word));
    }
  }

  EngineOptions engine_options;
  engine_options.plan_cache_capacity =
      static_cast<size_t>(kThreads * kQueriesPerThread);
  Engine engine(*tbox, base, nullptr, engine_options);

  PrepareOptions prepare_options;  // auto_kind on: every miss profiles.
  ASSERT_TRUE(prepare_options.auto_kind);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const ConjunctiveQuery& query : queries[t]) {
        PrepareResult prepared = engine.Prepare(query, prepare_options);
        if (!prepared.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExecuteResult result =
            engine.Execute(*prepared.query, ExecuteRequest{});
        if (!result.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Disjoint queries: every Prepare was a miss, none a hit.
  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, static_cast<long>(kThreads * kQueriesPerThread));
  EXPECT_EQ(stats.hits, 0);
}

}  // namespace
}  // namespace owlqr
