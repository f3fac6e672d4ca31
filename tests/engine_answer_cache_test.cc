// Cross-request answer memoization and in-flight coalescing
// (engine/answer_cache.h): cache hits must be byte-identical to fresh
// evaluation and cost no admission slot; partial / degraded / aborted
// results must never be memoized; eviction is LRU-first under the entry
// cap, the byte cap and shared-budget pressure; ApplyFacts invalidates
// stale versions; coalesced followers share one evaluation and a failed
// leader propagates its failure without poisoning the cache.  Part of the
// `sanitize` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rewriters.h"
#include "engine/answer_cache.h"
#include "engine/engine.h"
#include "engine_test_peer.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

const char* const kWords[] = {"RS", "RSR", "RRSR"};
constexpr int kNumQueries = 3;

void ApplyBatchToInstance(DataInstance* data, const FactBatch& batch) {
  for (const FactBatch::ConceptFact& fact : batch.concepts) {
    data->AddConceptAssertion(fact.concept_id, fact.individual);
  }
  for (const FactBatch::RoleFact& fact : batch.roles) {
    data->AddRoleAssertion(fact.role_id, fact.subject, fact.object);
  }
}

class EngineAnswerCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tbox_ = MakeExample11TBox(&vocab_);
    base_ = std::make_unique<DataInstance>(
        GenerateDataset(&vocab_, *tbox_, DatasetConfig{"c", 40, 0.1, 0.12, 7}));
    for (const char* word : kWords) {
      queries_.push_back(SequenceQuery(&vocab_, word));
    }
    RewritingContext ctx(*tbox_);
    RewriteOptions options;
    options.arbitrary_instances = true;
    for (const ConjunctiveQuery& q : queries_) {
      RewriteResult rewritten =
          RewriteOmqOrError(&ctx, q, RewriterKind::kTw, options);
      ASSERT_TRUE(rewritten.ok()) << rewritten.status.ToString();
      programs_.push_back(std::move(rewritten.program));
    }
    prepare_options_.auto_kind = false;
    prepare_options_.kind = RewriterKind::kTw;
  }

  static EngineOptions CachedOptions() {
    EngineOptions options;
    options.answer_cache_capacity = 16;
    return options;
  }

  // A fresh-chain batch whose facts change every kWords query's answers.
  FactBatch FreshBatch(int tag) {
    int r = vocab_.InternPredicate("R");
    int s = vocab_.InternPredicate("S");
    int label = tbox_->ExistsConcept(RoleOf(vocab_.InternPredicate("P")));
    std::string prefix = "ac" + std::to_string(tag) + "_";
    auto ind = [&](int i) {
      return vocab_.InternIndividual(prefix + std::to_string(i));
    };
    FactBatch batch;
    batch.roles.push_back({r, ind(0), ind(1)});
    batch.roles.push_back({s, ind(1), ind(2)});
    batch.roles.push_back({r, ind(2), ind(3)});
    batch.roles.push_back({r, ind(3), ind(4)});
    batch.concepts.push_back({label, ind(4)});
    return batch;
  }

  // The fresh-evaluation oracle over a mirror instance.
  std::vector<std::vector<int>> Oracle(const DataInstance& grown, int q) {
    Evaluator eval(programs_[q], DataSnapshot::FromInstance(grown));
    ExecuteResult result = eval.Run(ExecuteRequest{});
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return result.answers;
  }

  Vocabulary vocab_;
  std::unique_ptr<TBox> tbox_;
  std::unique_ptr<DataInstance> base_;
  std::vector<ConjunctiveQuery> queries_;
  std::vector<NdlProgram> programs_;
  PrepareOptions prepare_options_;
};

// A fabricated complete result of a given payload size, for unit-testing
// the cache container without an engine.
std::shared_ptr<const ExecuteResult> FakeResult(uint64_t version, int rows) {
  auto result = std::make_shared<ExecuteResult>();
  result->snapshot_version = version;
  for (int i = 0; i < rows; ++i) result->answers.push_back({i, i + 1});
  return result;
}

TEST(AnswerCacheUnitTest, LruEvictionAndStats) {
  AnswerCache cache(/*capacity=*/2, /*max_bytes=*/0, /*budget=*/nullptr);
  ASSERT_TRUE(cache.enabled());
  cache.Put("a", 1, FakeResult(1, 4));
  cache.Put("b", 1, FakeResult(1, 4));
  EXPECT_EQ(cache.size(), 2u);
  // Touch "a" so "b" is the LRU entry when "c" pushes past capacity.
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("c", 1, FakeResult(1, 4));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
}

TEST(AnswerCacheUnitTest, ByteCapKeepsAtLeastTheFreshEntry) {
  const size_t one = FakeResult(1, 64)->MemoryBytes();
  AnswerCache cache(/*capacity=*/16, /*max_bytes=*/one + one / 2,
                    /*budget=*/nullptr);
  cache.Put("a", 1, FakeResult(1, 64));
  cache.Put("b", 1, FakeResult(1, 64));  // Two don't fit: "a" is shed.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_LE(cache.bytes(), one + one / 2);
  // An entry larger than the whole cap still resides alone (the cap sheds
  // down to one entry, never to zero — a cache that can't hold the result
  // it just computed would thrash forever).
  cache.Put("big", 1, FakeResult(1, 4096));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get("big"), nullptr);
}

TEST(AnswerCacheUnitTest, BudgetChargedAndShedUnderPressure) {
  const size_t one = FakeResult(1, 32)->MemoryBytes();
  MemoryBudget budget(/*limit_bytes=*/3 * one + one / 2);
  AnswerCache cache(/*capacity=*/16, /*max_bytes=*/0, &budget);
  cache.Put("a", 1, FakeResult(1, 32));
  cache.Put("b", 1, FakeResult(1, 32));
  EXPECT_EQ(budget.used(), cache.bytes());
  // An outside charge (a live execution's arenas) pushes the budget over
  // its limit: the next publish sheds LRU-first until under, keeping the
  // entry just published.
  budget.Charge(2 * one);
  cache.Put("c", 1, FakeResult(1, 32));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get("c"), nullptr);
  budget.Release(2 * one);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(AnswerCacheUnitTest, InvalidateBelowDropsOnlyStaleVersions) {
  MemoryBudget budget;
  AnswerCache cache(/*capacity=*/16, /*max_bytes=*/0, &budget);
  cache.Put("v1", 1, FakeResult(1, 8));
  cache.Put("v2", 2, FakeResult(2, 8));
  cache.Put("v3", 3, FakeResult(3, 8));
  cache.InvalidateBelow(3);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("v1"), nullptr);
  EXPECT_EQ(cache.Get("v2"), nullptr);
  EXPECT_NE(cache.Get("v3"), nullptr);
  EXPECT_EQ(cache.stats().invalidated, 2);
  EXPECT_EQ(budget.used(), cache.bytes());
}

TEST(AnswerCacheUnitTest, KeySeparatesVersionsAndLimits) {
  EvaluatorLimits unlimited;
  EvaluatorLimits capped;
  capped.max_generated_tuples = 100;
  EvaluatorLimits deadline;
  deadline.deadline_ms = 50;
  const std::string base = AnswerCacheKey("plan", 1, unlimited);
  EXPECT_NE(base, AnswerCacheKey("plan", 2, unlimited));
  EXPECT_NE(base, AnswerCacheKey("plan", 1, capped));
  EXPECT_NE(base, AnswerCacheKey("plan", 1, deadline));
  EXPECT_NE(base, AnswerCacheKey("nalp", 1, unlimited));
  EXPECT_EQ(base, AnswerCacheKey("plan", 1, EvaluatorLimits{}));
}

TEST(InFlightTableUnitTest, OneLeaderManyFollowersPerKey) {
  InFlightTable table;
  InFlightTable::Ticket leader = table.JoinOrLead("k");
  ASSERT_TRUE(leader.leader);
  InFlightTable::Ticket f1 = table.JoinOrLead("k");
  InFlightTable::Ticket f2 = table.JoinOrLead("k");
  EXPECT_FALSE(f1.leader);
  EXPECT_FALSE(f2.leader);
  EXPECT_EQ(f1.flight, leader.flight);
  EXPECT_EQ(table.size(), 1u);
  // A different key leads its own flight.
  InFlightTable::Ticket other = table.JoinOrLead("k2");
  EXPECT_TRUE(other.leader);

  table.Finish("k", leader.flight, FakeResult(1, 2));
  EXPECT_EQ(f1.flight->future.get()->snapshot_version, 1u);
  EXPECT_EQ(f2.flight->future.get()->snapshot_version, 1u);
  // The key is free again: the next request leads a fresh execution, and
  // retiring the old flight twice can't erase the successor.
  InFlightTable::Ticket next = table.JoinOrLead("k");
  EXPECT_TRUE(next.leader);
  EXPECT_NE(next.flight, leader.flight);
  table.Finish("k", next.flight, FakeResult(2, 2));
  table.Finish("k2", other.flight, FakeResult(1, 0));
  EXPECT_EQ(table.size(), 0u);
}

TEST(InFlightTableUnitTest, RetireReportsWhetherAFollowerJoined) {
  InFlightTable table;
  // Alone: retiring reports no follower, so the leader shares nothing.
  InFlightTable::Ticket alone = table.JoinOrLead("k");
  ASSERT_TRUE(alone.leader);
  EXPECT_FALSE(table.Retire("k", alone.flight));
  EXPECT_EQ(table.size(), 0u);

  // Joined: retiring reports the follower, and Resolve hands it the
  // leader's object and encoding slot.
  InFlightTable::Ticket leader = table.JoinOrLead("k");
  ASSERT_TRUE(leader.leader);
  InFlightTable::Ticket follower = table.JoinOrLead("k");
  ASSERT_FALSE(follower.leader);
  EXPECT_TRUE(table.Retire("k", leader.flight));
  EXPECT_EQ(table.size(), 0u);
  ExecuteResult result;
  result.snapshot_version = 7;
  SharedResult shared = SharedResult::Make(std::move(result), nullptr);
  InFlightTable::Resolve(leader.flight.get(), shared);
  EXPECT_EQ(follower.flight->future.get(), shared.result);
  EXPECT_EQ(follower.flight->encoded, shared.encoded);
  EXPECT_EQ(follower.flight->future.get()->snapshot_version, 7u);
}

TEST_F(EngineAnswerCacheTest, HitIsByteIdenticalAndTakesNoSlot) {
  Engine engine(*tbox_, *base_, nullptr, CachedOptions());
  PrepareResult prepared = engine.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  ExecuteResult fresh = engine.Execute(*prepared.query);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.cached);
  EXPECT_FALSE(fresh.answers.empty());
  EXPECT_EQ(engine.answer_cache_size(), 1u);
  const long admitted_before = engine.governor_counters().admitted;

  ExecuteResult hit = engine.Execute(*prepared.query);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.answers, fresh.answers);
  EXPECT_EQ(hit.snapshot_version, fresh.snapshot_version);
  EXPECT_EQ(hit.stats.goal_tuples, fresh.stats.goal_tuples);
  // Served without admission or evaluation.
  EXPECT_EQ(engine.governor_counters().admitted, admitted_before);
  EXPECT_EQ(engine.governor_counters().answer_cache_hits, 1);
  EXPECT_EQ(engine.answer_cache_stats().hits, 1);

  // Cached copies hold the only surviving budget charges; clearing them
  // accounts the engine back to zero.
  engine.ClearAnswerCache();
  EXPECT_EQ(engine.answer_cache_size(), 0u);
  EXPECT_EQ(engine.governor_counters().memory_used, 0u);

  // The control: with answer_cache_capacity = 0 nothing is memoized, so
  // every repeat is a fresh, admitted evaluation of the same answers.
  EngineOptions uncached_options;
  uncached_options.answer_cache_capacity = 0;
  Engine uncached(*tbox_, *base_, nullptr, uncached_options);
  PrepareResult uncached_prepared =
      uncached.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(uncached_prepared.ok());
  for (int i = 0; i < 3; ++i) {
    ExecuteResult repeat = uncached.Execute(*uncached_prepared.query);
    ASSERT_TRUE(repeat.status.ok());
    EXPECT_FALSE(repeat.cached);
    EXPECT_EQ(repeat.answers, fresh.answers);
  }
  EXPECT_EQ(uncached.governor_counters().admitted, 3);
  EXPECT_EQ(uncached.governor_counters().answer_cache_hits, 0);
  EXPECT_EQ(uncached.answer_cache_size(), 0u);
}

TEST_F(EngineAnswerCacheTest, LimitsSignatureKeysSeparateEntries) {
  Engine engine(*tbox_, *base_, nullptr, CachedOptions());
  PrepareResult prepared = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(prepared.ok());

  ExecuteResult unlimited = engine.Execute(*prepared.query);
  ASSERT_TRUE(unlimited.status.ok());
  // A generous limit the run never reaches still yields a complete (and
  // cacheable) result — under a DIFFERENT key, so it misses and evaluates.
  ExecuteRequest roomy;
  roomy.limits.max_generated_tuples = 1'000'000;
  ExecuteResult limited = engine.Execute(*prepared.query, roomy);
  ASSERT_TRUE(limited.status.ok());
  EXPECT_FALSE(limited.partial);
  EXPECT_FALSE(limited.cached);
  EXPECT_EQ(limited.answers, unlimited.answers);
  EXPECT_EQ(engine.answer_cache_size(), 2u);
  // Each signature now hits its own entry.
  EXPECT_TRUE(engine.Execute(*prepared.query).cached);
  EXPECT_TRUE(engine.Execute(*prepared.query, roomy).cached);
}

TEST_F(EngineAnswerCacheTest, PartialDegradedAndAbortedRunsAreNeverCached) {
  // Truncated: a tuple limit of 1 forces partial=true.
  {
    Engine engine(*tbox_, *base_, nullptr, CachedOptions());
    PrepareResult prepared = engine.Prepare(queries_[2], prepare_options_);
    ASSERT_TRUE(prepared.ok());
    ExecuteRequest request;
    request.limits.max_generated_tuples = 1;
    ExecuteResult truncated = engine.Execute(*prepared.query, request);
    EXPECT_TRUE(truncated.partial);
    EXPECT_EQ(engine.answer_cache_size(), 0u);
    // The same truncated request again: still a miss, still evaluated.
    ExecuteResult again = engine.Execute(*prepared.query, request);
    EXPECT_FALSE(again.cached);
    EXPECT_EQ(engine.answer_cache_stats().insertions, 0);
  }
  // Cancelled: pre-fired token aborts the run; nothing is published.
  {
    Engine engine(*tbox_, *base_, nullptr, CachedOptions());
    PrepareResult prepared = engine.Prepare(queries_[2], prepare_options_);
    ASSERT_TRUE(prepared.ok());
    auto cancel = std::make_shared<CancelToken>();
    cancel->Cancel();
    ExecuteRequest request;
    request.cancel = cancel;
    ExecuteResult cancelled = engine.Execute(*prepared.query, request);
    EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(engine.answer_cache_size(), 0u);
  }
  // Degraded: a memory abort retried under a tightened tuple limit is
  // surfaced degraded+partial and must not be memoized either.  Two
  // R-layers through one middle node (governor_test's LayeredGraph): the
  // RR chain yields m^2 answers, far past the 1 MB budget.
  {
    DataInstance layered(&vocab_);
    int r = vocab_.InternPredicate("R");
    int mid = layered.AddIndividual("mid");
    for (int i = 0; i < 800; ++i) {
      layered.AddRoleAssertion(
          r, layered.AddIndividual("a" + std::to_string(i)), mid);
      layered.AddRoleAssertion(
          r, mid, layered.AddIndividual("c" + std::to_string(i)));
    }
    EngineOptions options = CachedOptions();
    options.governor.max_memory_bytes = 1024 * 1024;
    options.governor.degraded_max_generated_tuples = 50;
    Engine engine(*tbox_, layered, nullptr, options);
    ConjunctiveQuery chain = SequenceQuery(&vocab_, "RR");
    PrepareResult prepared = engine.Prepare(chain, prepare_options_);
    ASSERT_TRUE(prepared.ok());
    ExecuteResult degraded = engine.Execute(*prepared.query);
    ASSERT_TRUE(degraded.degraded) << degraded.status.ToString();
    EXPECT_TRUE(degraded.partial);
    EXPECT_EQ(engine.answer_cache_size(), 0u);
    EXPECT_EQ(engine.answer_cache_stats().insertions, 0);
  }
}

TEST_F(EngineAnswerCacheTest, ApplyFactsInvalidatesStaleEntries) {
  Engine engine(*tbox_, *base_, nullptr, CachedOptions());
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const ConjunctiveQuery& q : queries_) {
    PrepareResult p = engine.Prepare(q, prepare_options_);
    ASSERT_TRUE(p.ok());
    prepared.push_back(p.query);
  }
  for (int q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(engine.Execute(*prepared[q]).status.ok());
  }
  EXPECT_EQ(engine.answer_cache_size(), 3u);

  // A version bump sweeps every v1 entry in one pass — none could ever hit
  // again — and releases their budget charges.
  ASSERT_TRUE(engine.ApplyFactsOrError(FreshBatch(0)).ok());
  EXPECT_EQ(engine.answer_cache_size(), 0u);
  EXPECT_EQ(engine.answer_cache_stats().invalidated, 3);
  EXPECT_EQ(engine.governor_counters().memory_used, 0u);

  // A no-op batch (same facts again) keeps the version and the entries.
  ASSERT_TRUE(engine.Execute(*prepared[0]).status.ok());
  EXPECT_EQ(engine.answer_cache_size(), 1u);
  ASSERT_TRUE(engine.ApplyFactsOrError(FreshBatch(0)).ok());
  EXPECT_EQ(engine.answer_cache_size(), 1u);
}

// Interleaved updates and executions, differential against a fresh
// evaluator: every served answer set — cached or freshly evaluated — must
// be byte-identical to a from-scratch run at the version it reports.
TEST_F(EngineAnswerCacheTest, RandomizedDifferentialCachedVsFresh) {
  EngineOptions options = CachedOptions();
  options.answer_cache_capacity = 4;  // Small: hits, misses AND evictions.
  Engine engine(*tbox_, *base_, nullptr, options);
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const ConjunctiveQuery& q : queries_) {
    PrepareResult p = engine.Prepare(q, prepare_options_);
    ASSERT_TRUE(p.ok());
    prepared.push_back(p.query);
  }

  DataInstance grown = *base_;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 1) {
      FactBatch batch = FreshBatch(round);
      ASSERT_TRUE(engine.ApplyFactsOrError(batch).ok());
      ApplyBatchToInstance(&grown, batch);
    }
    for (int rep = 0; rep < 2; ++rep) {
      for (int q = 0; q < kNumQueries; ++q) {
        ExecuteResult result = engine.Execute(*prepared[q]);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_FALSE(result.partial);
        EXPECT_EQ(result.snapshot_version, engine.snapshot_version());
        EXPECT_EQ(result.answers, Oracle(grown, q))
            << "round " << round << " rep " << rep << " query " << kWords[q]
            << (result.cached ? " (cached)" : " (fresh)");
      }
    }
  }
  AnswerCache::Stats stats = engine.answer_cache_stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.insertions, 0);
  engine.ClearAnswerCache();
  EXPECT_EQ(engine.governor_counters().memory_used, 0u);
}

// Identical concurrent requests share one evaluation: every request is
// either admitted (a leader / solo run), a cache hit, or a coalesced
// follower, and all of them return the same answers.  Overlap is forced
// deterministically, not left to scheduling: a cancellable run occupies
// the engine's only admission slot, so the leader parks in the admission
// queue with its flight already registered, and every follower launched
// while it is parked joins that flight.  Releasing the holder then lets
// the leader run to a clean completion that all followers share.
TEST_F(EngineAnswerCacheTest, CoalescedFollowersShareOneEvaluation) {
  // The slot holder needs a run that lasts until cancelled: the dense
  // R-clique's RR chain join (n * (n-1)^2 emissions) runs for minutes at
  // n = 600 unless the cancel token stops it.
  DataInstance dense(&vocab_);
  {
    int r = vocab_.InternPredicate("R");
    int s = vocab_.InternPredicate("S");
    std::vector<int> inds;
    for (int i = 0; i < 600; ++i) {
      inds.push_back(dense.AddIndividual("v" + std::to_string(i)));
    }
    for (size_t i = 0; i < inds.size(); ++i) {
      for (size_t j = 0; j < inds.size(); ++j) {
        if (i != j) dense.AddRoleAssertion(r, inds[i], inds[j]);
      }
    }
    // A few S edges give the leader's cheap RS query non-empty answers.
    for (int i = 0; i < 3; ++i) {
      dense.AddRoleAssertion(s, inds[i], inds[i + 1]);
    }
  }
  EngineOptions options;  // Answer cache OFF: isolate coalescing.
  options.governor.max_concurrent = 1;
  options.governor.max_queue = 16;
  options.governor.queue_timeout_ms = 30'000;  // Parked, never shed.
  Engine engine(*tbox_, dense, nullptr, options);
  ConjunctiveQuery chain = SequenceQuery(&vocab_, "RR");
  PrepareResult holder_prepared = engine.Prepare(chain, prepare_options_);
  ASSERT_TRUE(holder_prepared.ok()) << holder_prepared.status.ToString();
  PrepareResult prepared = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  const ExecuteResult seed = engine.Execute(*prepared.query);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  const std::vector<std::vector<int>>& expected = seed.answers;
  ASSERT_FALSE(expected.empty());

  // Occupy the only slot with a cancellable run (cancel tokens never
  // coalesce, so it owns the slot without touching the in-flight table).
  auto cancel = std::make_shared<CancelToken>();
  std::thread holder([&] {
    ExecuteRequest request;
    request.cancel = cancel;
    ExecuteResult result = engine.Execute(*holder_prepared.query, request);
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  });
  while (engine.governor_counters().admitted < 2) std::this_thread::yield();

  // The leader registers its flight, then parks in the admission queue
  // until the holder releases the slot.
  std::atomic<int> failures{0};
  std::atomic<int> coalesced_seen{0};
  std::thread leader_thread([&] {
    ExecuteResult result = engine.Execute(*prepared.query);
    if (!result.status.ok() || result.answers != expected) {
      failures.fetch_add(1);
    }
    if (result.coalesced) coalesced_seen.fetch_add(1);
  });
  while (engine.governor_counters().queued < 1) std::this_thread::yield();
  ASSERT_EQ(EngineTestPeer::InFlightSize(engine), 1u);

  // Followers launched while the leader is parked join its flight.  The
  // entered counter plus a grace sleep lets each one reach JoinOrLead
  // before the holder is cancelled.
  constexpr int kFollowers = 6;
  std::atomic<int> entered{0};
  std::vector<std::thread> followers;
  for (int t = 0; t < kFollowers; ++t) {
    followers.emplace_back([&] {
      entered.fetch_add(1);
      ExecuteResult result = engine.Execute(*prepared.query);
      if (!result.status.ok() || result.answers != expected) {
        failures.fetch_add(1);
      }
      if (result.coalesced) coalesced_seen.fetch_add(1);
    });
  }
  while (entered.load() < kFollowers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cancel->Cancel();
  holder.join();
  leader_thread.join();
  for (std::thread& thread : followers) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(coalesced_seen.load(), 0);
  QueryGovernor::Counters counters = engine.governor_counters();
  EXPECT_EQ(counters.coalesced, coalesced_seen.load());
  // Every request is accounted exactly once: it either took a slot or
  // followed a leader — never both, never neither.  Total requests: the
  // expected-seeding run, the holder, the leader and kFollowers.
  EXPECT_EQ(counters.admitted + counters.coalesced, 3 + kFollowers);
  EXPECT_EQ(counters.rejected(), 0);
  EXPECT_EQ(EngineTestPeer::InFlightSize(engine), 0u);
  EXPECT_EQ(counters.memory_used, 0u);
}

// A leader that is shed propagates its failure to the followers parked on
// it — they surface the same kRejected, marked coalesced — and publishes
// nothing: the next identical request evaluates fresh and gets answers.
TEST_F(EngineAnswerCacheTest, FailedLeaderPropagatesWithoutPoisoningCache) {
  // Dense n-clique (same shape as governor_test's DenseData): the RR chain
  // join runs n * (n-1)^2 emissions — hundreds of millions at n = 600 —
  // while the cancel token is the only thing that ends it.  It occupies
  // the single slot for far longer than the 150 ms queue timeout below.
  DataInstance dense(&vocab_);
  {
    int r = vocab_.InternPredicate("R");
    std::vector<int> inds;
    for (int i = 0; i < 600; ++i) {
      inds.push_back(dense.AddIndividual("v" + std::to_string(i)));
    }
    for (size_t i = 0; i < inds.size(); ++i) {
      for (size_t j = 0; j < inds.size(); ++j) {
        if (i != j) dense.AddRoleAssertion(r, inds[i], inds[j]);
      }
    }
  }
  EngineOptions options = CachedOptions();
  options.governor.max_concurrent = 1;
  options.governor.max_queue = 16;
  options.governor.queue_timeout_ms = 150;
  Engine engine(*tbox_, dense, nullptr, options);
  ConjunctiveQuery chain = SequenceQuery(&vocab_, "RR");
  PrepareResult prepared = engine.Prepare(chain, prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  // Occupy the only slot with a cancellable run (cancel tokens never
  // coalesce, so it owns the slot without touching the in-flight table).
  auto cancel = std::make_shared<CancelToken>();
  std::thread holder([&] {
    ExecuteRequest request;
    request.cancel = cancel;
    ExecuteResult result = engine.Execute(*prepared.query, request);
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  });
  while (engine.governor_counters().admitted < 1) std::this_thread::yield();

  // The leader (same plan, no cancel token) registers its flight, then
  // parks in the admission queue until the 150 ms timeout sheds it.
  std::atomic<int> leader_rejected{0};
  std::thread leader_thread([&] {
    ExecuteResult result = engine.Execute(*prepared.query);
    if (result.status.code() == StatusCode::kRejected && !result.coalesced) {
      leader_rejected.fetch_add(1);
    }
  });
  // Once the leader is queued its flight is registered, and it stays in
  // flight for the full queue timeout: followers launched now join it.
  while (engine.governor_counters().queued < 1) std::this_thread::yield();
  ASSERT_EQ(EngineTestPeer::InFlightSize(engine), 1u);
  std::atomic<int> followers_rejected{0};
  std::vector<std::thread> followers;
  for (int t = 0; t < 2; ++t) {
    followers.emplace_back([&] {
      ExecuteResult result = engine.Execute(*prepared.query);
      if (result.status.code() == StatusCode::kRejected &&
          result.coalesced) {
        followers_rejected.fetch_add(1);
      }
    });
  }
  leader_thread.join();
  for (std::thread& thread : followers) thread.join();
  cancel->Cancel();
  holder.join();

  EXPECT_EQ(leader_rejected.load(), 1);
  EXPECT_EQ(followers_rejected.load(), 2);
  EXPECT_EQ(engine.governor_counters().coalesced, 2);
  // The shed run published nothing and retired its flight: the failure
  // reached exactly the followers parked on it, never the cache.  (That a
  // later identical request evaluates fresh and memoizes is covered by
  // HitIsByteIdenticalAndTakesNoSlot.)
  EXPECT_EQ(engine.answer_cache_size(), 0u);
  EXPECT_EQ(engine.answer_cache_stats().insertions, 0);
  EXPECT_EQ(EngineTestPeer::InFlightSize(engine), 0u);
  EXPECT_EQ(engine.governor_counters().memory_used, 0u);
}

// The serving path: a miss publishes its result by reference and every hit
// hands out that same object, never a copy.
TEST_F(EngineAnswerCacheTest, SharedHitsReturnTheSameObject) {
  Engine engine(*tbox_, *base_, nullptr, CachedOptions());
  PrepareResult prepared = engine.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  SharedExecution miss = engine.ExecuteShared(*prepared.query);
  ASSERT_NE(miss.shared.result, nullptr);
  ASSERT_NE(miss.shared.encoded, nullptr);
  ASSERT_TRUE(miss.shared.result->status.ok());
  EXPECT_FALSE(miss.cached);
  EXPECT_FALSE(miss.coalesced);
  SharedExecution first = engine.ExecuteShared(*prepared.query);
  SharedExecution second = engine.ExecuteShared(*prepared.query);
  EXPECT_TRUE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.shared.result, second.shared.result);
  EXPECT_EQ(first.shared.encoded, second.shared.encoded);
  EXPECT_EQ(first.shared.result, miss.shared.result);
  // The shared object describes the run that produced it; the flags of
  // this request travel beside it.
  EXPECT_FALSE(first.shared.result->cached);
  // The copying path serves the same answers, marked cached.
  ExecuteResult copy = engine.Execute(*prepared.query);
  EXPECT_TRUE(copy.cached);
  EXPECT_EQ(copy.answers, miss.shared.result->answers);
  EXPECT_EQ(engine.governor_counters().admitted, 1);
  EXPECT_EQ(engine.governor_counters().answer_cache_hits, 3);

  // Without the cache, each ExecuteShared evaluates into its own object.
  EngineOptions uncached_options;
  uncached_options.coalesce = false;
  Engine uncached(*tbox_, *base_, nullptr, uncached_options);
  PrepareResult uncached_prepared =
      uncached.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(uncached_prepared.ok());
  SharedExecution a = uncached.ExecuteShared(*uncached_prepared.query);
  SharedExecution b = uncached.ExecuteShared(*uncached_prepared.query);
  EXPECT_NE(a.shared.result, b.shared.result);
  EXPECT_EQ(a.shared.result->answers, miss.shared.result->answers);
  EXPECT_FALSE(a.cached);
}

// The encoding written into a shared result's slot is charged to the
// engine budget and released when the last holder drops it: after
// ClearAnswerCache and after an ApplyFacts invalidation.
TEST_F(EngineAnswerCacheTest, MemoizedEncodingIsChargedUntilTheLastHolderDrops) {
  Engine engine(*tbox_, *base_, nullptr, CachedOptions());
  PrepareResult prepared = engine.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  const size_t baseline = engine.governor_counters().memory_used;
  const std::string encoding(10'000, 'x');
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return encoding;
  };

  for (bool invalidate : {false, true}) {
    SCOPED_TRACE(invalidate ? "ApplyFacts invalidation" : "ClearAnswerCache");
    engine.ExecuteShared(*prepared.query);  // Miss: publishes.
    const size_t cached = engine.governor_counters().memory_used;
    EXPECT_EQ(cached, baseline + engine.answer_cache_bytes());
    {
      SharedExecution hit = engine.ExecuteShared(*prepared.query);
      ASSERT_TRUE(hit.cached);
      encodes = 0;
      EXPECT_EQ(hit.shared.encoded->Get(encode), encoding);
      EXPECT_EQ(hit.shared.encoded->Get(encode), encoding);
      EXPECT_EQ(encodes, 1);
      EXPECT_GE(engine.governor_counters().memory_used,
                cached + encoding.size());
      // A later hit reads the same memo without encoding again.
      SharedExecution again = engine.ExecuteShared(*prepared.query);
      EXPECT_EQ(again.shared.encoded->Get(encode), encoding);
      EXPECT_EQ(encodes, 1);

      if (invalidate) {
        ASSERT_TRUE(engine.ApplyFactsOrError(FreshBatch(1)).ok());
      } else {
        engine.ClearAnswerCache();
      }
      EXPECT_EQ(engine.answer_cache_size(), 0u);
      // This request still holds the result, so its encoding stays charged.
      EXPECT_GE(engine.governor_counters().memory_used,
                baseline + encoding.size());
    }
    EXPECT_EQ(engine.governor_counters().memory_used, baseline);
  }
}

// A coalesced follower is handed the leader's object itself.  Same set-up
// as CoalescedFollowersShareOneEvaluation, through ExecuteShared.
TEST_F(EngineAnswerCacheTest, CoalescedFollowerReceivesTheLeadersObject) {
  DataInstance dense(&vocab_);
  {
    int r = vocab_.InternPredicate("R");
    int s = vocab_.InternPredicate("S");
    std::vector<int> inds;
    for (int i = 0; i < 600; ++i) {
      inds.push_back(dense.AddIndividual("v" + std::to_string(i)));
    }
    for (size_t i = 0; i < inds.size(); ++i) {
      for (size_t j = 0; j < inds.size(); ++j) {
        if (i != j) dense.AddRoleAssertion(r, inds[i], inds[j]);
      }
    }
    for (int i = 0; i < 3; ++i) {
      dense.AddRoleAssertion(s, inds[i], inds[i + 1]);
    }
  }
  EngineOptions options;  // Answer cache OFF: isolate coalescing.
  options.governor.max_concurrent = 1;
  options.governor.max_queue = 16;
  options.governor.queue_timeout_ms = 30'000;
  Engine engine(*tbox_, dense, nullptr, options);
  PrepareResult holder_prepared =
      engine.Prepare(SequenceQuery(&vocab_, "RR"), prepare_options_);
  ASSERT_TRUE(holder_prepared.ok()) << holder_prepared.status.ToString();
  PrepareResult prepared = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  // Occupy the only slot with a cancellable run.
  auto cancel = std::make_shared<CancelToken>();
  std::thread holder([&] {
    ExecuteRequest request;
    request.cancel = cancel;
    engine.Execute(*holder_prepared.query, request);
  });
  while (engine.governor_counters().admitted < 1) std::this_thread::yield();

  SharedExecution leader;
  std::thread leader_thread(
      [&] { leader = engine.ExecuteShared(*prepared.query); });
  while (engine.governor_counters().queued < 1) std::this_thread::yield();
  ASSERT_EQ(EngineTestPeer::InFlightSize(engine), 1u);

  constexpr int kFollowers = 3;
  std::vector<SharedExecution> followers(kFollowers);
  std::atomic<int> entered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kFollowers; ++t) {
    threads.emplace_back([&, t] {
      entered.fetch_add(1);
      followers[t] = engine.ExecuteShared(*prepared.query);
    });
  }
  while (entered.load() < kFollowers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cancel->Cancel();
  holder.join();
  leader_thread.join();
  for (std::thread& thread : threads) thread.join();

  ASSERT_NE(leader.shared.result, nullptr);
  ASSERT_TRUE(leader.shared.result->status.ok());
  EXPECT_FALSE(leader.coalesced);
  int coalesced = 0;
  for (const SharedExecution& follower : followers) {
    ASSERT_NE(follower.shared.result, nullptr);
    if (!follower.coalesced) continue;  // Arrived after the leader retired.
    ++coalesced;
    EXPECT_EQ(follower.shared.result, leader.shared.result);
    EXPECT_EQ(follower.shared.encoded, leader.shared.encoded);
  }
  EXPECT_GT(coalesced, 0);
  EXPECT_EQ(engine.governor_counters().coalesced, coalesced);
  EXPECT_EQ(EngineTestPeer::InFlightSize(engine), 0u);
}

}  // namespace
}  // namespace owlqr
