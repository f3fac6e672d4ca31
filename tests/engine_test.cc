// Tests for the prepared-OMQ engine facade: the plan cache (hit / miss /
// eviction, key sensitivity), the no-rewrite-on-warm-execute guarantee, the
// non-aborting Prepare error path, copy-on-write ApplyFacts snapshots, and
// the cost-based auto rewriter choice.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/rewriters.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "ndl/evaluator.h"
#include "syntax/parser.h"
#include "util/metrics.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

std::shared_ptr<const PreparedQuery> DummyPlan(Vocabulary* vocab,
                                               const std::string& key) {
  NdlProgram program(vocab);
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({program.AdomPredicate(), {Term::Var(0)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  return std::make_shared<const PreparedQuery>(
      std::move(program), RewriterKind::kTw, RewriteDiagnostics{}, key);
}

TEST(PlanCacheTest, HitMissEvictionLru) {
  Vocabulary vocab;
  PlanCache cache(2);
  EXPECT_EQ(cache.Get("a"), nullptr);

  auto a = DummyPlan(&vocab, "a");
  auto b = DummyPlan(&vocab, "b");
  auto c = DummyPlan(&vocab, "c");
  cache.Put("a", a);
  cache.Put("b", b);
  EXPECT_EQ(cache.Get("a"), a);
  EXPECT_EQ(cache.Get("b"), b);
  EXPECT_EQ(cache.size(), 2u);

  // "a" was touched more recently than nothing; touch it again so "b" is
  // the LRU entry, then overflow.
  EXPECT_EQ(cache.Get("a"), a);
  cache.Put("c", c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get("b"), nullptr);  // Evicted.
  EXPECT_EQ(cache.Get("a"), a);        // Survived (recently used).
  EXPECT_EQ(cache.Get("c"), c);

  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.misses, 2);  // Initial "a" and post-eviction "b".
  EXPECT_EQ(stats.hits, 5);

  // An evicted plan stays alive for holders of the shared_ptr.
  EXPECT_EQ(b->cache_key(), "b");
}

TEST(PlanCacheTest, CanonicalCqKeyIgnoresVariableNames) {
  Vocabulary vocab;
  ConjunctiveQuery q1(&vocab);
  q1.AddBinary("R", "x", "y");
  q1.AddUnary("A", "y");
  q1.MarkAnswerVariable(q1.FindVariable("x"));

  ConjunctiveQuery q2(&vocab);  // Alpha-renamed copy.
  q2.AddBinary("R", "u", "v");
  q2.AddUnary("A", "v");
  q2.MarkAnswerVariable(q2.FindVariable("u"));

  ConjunctiveQuery q3(&vocab);  // Different structure: answer var flipped.
  q3.AddBinary("R", "x", "y");
  q3.AddUnary("A", "y");
  q3.MarkAnswerVariable(q3.FindVariable("y"));

  EXPECT_EQ(CanonicalCqKey(q1), CanonicalCqKey(q2));
  EXPECT_NE(CanonicalCqKey(q1), CanonicalCqKey(q3));
}

TEST(PlanCacheTest, FingerprintIsSensitiveToTBoxEdits) {
  Vocabulary vocab;
  auto tbox1 = MakeExample11TBox(&vocab);
  auto tbox2 = MakeExample11TBox(&vocab);
  EXPECT_EQ(FingerprintTBox(*tbox1), FingerprintTBox(*tbox2));

  // One extra axiom must change the fingerprint (and thus the cache key).
  tbox2->AddAtomicInclusion("FreshConcept", "OtherFreshConcept");
  tbox2->Normalize();
  EXPECT_NE(FingerprintTBox(*tbox1), FingerprintTBox(*tbox2));

  ConjunctiveQuery q = SequenceQuery(&vocab, "RS");
  EXPECT_NE(MakePlanCacheKey(FingerprintTBox(*tbox1), q, RewriterKind::kTw,
                             RewriteOptions{}),
            MakePlanCacheKey(FingerprintTBox(*tbox2), q, RewriterKind::kTw,
                             RewriteOptions{}));
  // Kind and options are part of the key too.
  EXPECT_NE(MakePlanCacheKey(FingerprintTBox(*tbox1), q, RewriterKind::kTw,
                             RewriteOptions{}),
            MakePlanCacheKey(FingerprintTBox(*tbox1), q, RewriterKind::kLin,
                             RewriteOptions{}));
  RewriteOptions star;
  star.arbitrary_instances = true;
  EXPECT_NE(MakePlanCacheKey(FingerprintTBox(*tbox1), q, RewriterKind::kTw,
                             RewriteOptions{}),
            MakePlanCacheKey(FingerprintTBox(*tbox1), q, RewriterKind::kTw,
                             star));
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : tbox_(MakeExample11TBox(&vocab_)),
        data_(GenerateDataset(&vocab_, *tbox_,
                              DatasetConfig{"t", 60, 0.12, 0.15, 7})) {}

  Engine MakeEngine(size_t cache_capacity = 64) {
    EngineOptions options;
    options.plan_cache_capacity = cache_capacity;
    return Engine(*tbox_, data_, nullptr, options);
  }

  Vocabulary vocab_;
  std::unique_ptr<TBox> tbox_;
  DataInstance data_;
};

TEST_F(EngineTest, PrepareCachesAndExecuteAnswersMatchSingleShot) {
  Engine engine = MakeEngine();
  ConjunctiveQuery q = SequenceQuery(&vocab_, "RSR");

  PrepareResult cold = engine.Prepare(q);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);
  PrepareResult warm = engine.Prepare(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.query.get(), cold.query.get());  // Same shared plan.

  ExecuteResult result = engine.Execute(*warm.query);
  EXPECT_EQ(result.snapshot_version, 1u);

  // Against the pre-engine single-shot path: same program family, fresh
  // rewrite, evaluation directly over the DataInstance.
  RewritingContext ctx(*tbox_);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult rewritten =
      RewriteOmqOrError(&ctx, q, warm.query->kind(), options);
  ASSERT_TRUE(rewritten.ok());
  Evaluator single_shot(rewritten.program, DataSnapshot::FromInstance(data_));
  ExecuteResult expected = single_shot.Run(ExecuteRequest{});
  EXPECT_EQ(result.answers, expected.answers);
  EXPECT_FALSE(result.answers.empty());
}

TEST_F(EngineTest, WarmPrepareSkipsRewritePipeline) {
  Engine engine = MakeEngine();
  ConjunctiveQuery q = SequenceQuery(&vocab_, "RRS");
  ASSERT_TRUE(engine.Prepare(q).ok());  // Cold: compiles.

  MetricsRegistry metrics;
  MetricsRegistry::SetGlobal(&metrics);
  PrepareResult warm = engine.Prepare(q);
  ExecuteResult result = engine.Execute(*warm.query);
  MetricsRegistry::SetGlobal(nullptr);

  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(result.answers.empty());
  bool saw_execute = false;
  for (const MetricsRegistry::Span& span : metrics.spans()) {
    // The whole rewrite/transform pipeline must be absent from a warm
    // serve; only prepare (the cache probe), execute and join-level spans
    // may appear.
    EXPECT_NE(span.name.substr(0, 7), "rewrite") << span.name;
    EXPECT_NE(span.name.substr(0, 9), "transform") << span.name;
    if (span.name == "engine/execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_execute);
}

TEST_F(EngineTest, EvictionRecompiles) {
  Engine engine = MakeEngine(/*cache_capacity=*/2);
  ConjunctiveQuery q1 = SequenceQuery(&vocab_, "R");
  ConjunctiveQuery q2 = SequenceQuery(&vocab_, "S");
  ConjunctiveQuery q3 = SequenceQuery(&vocab_, "RS");

  EXPECT_FALSE(engine.Prepare(q1).cache_hit);
  EXPECT_FALSE(engine.Prepare(q2).cache_hit);
  EXPECT_FALSE(engine.Prepare(q3).cache_hit);  // Evicts q1.
  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_FALSE(engine.Prepare(q1).cache_hit);  // Recompile after eviction.
  EXPECT_TRUE(engine.Prepare(q1).cache_hit);
  EXPECT_EQ(engine.cache_stats().evictions, 2);
}

TEST_F(EngineTest, UnsupportedShapeIsAStatusNotAnAbort) {
  Engine engine = MakeEngine();
  // A triangle: not tree-shaped, so Tw must be rejected.
  ConjunctiveQuery cyclic(&vocab_);
  cyclic.AddBinary("R", "x", "y");
  cyclic.AddBinary("R", "y", "z");
  cyclic.AddBinary("R", "z", "x");

  PrepareOptions force_tw;
  force_tw.auto_kind = false;
  force_tw.kind = RewriterKind::kTw;
  PrepareResult result = engine.Prepare(cyclic, force_tw);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kUnsupportedShape);
  EXPECT_NE(result.status.message().find("tree-shaped"), std::string::npos);
  EXPECT_EQ(result.query, nullptr);

  // Auto mode routes the same query to an applicable rewriter instead.
  PrepareResult auto_result = engine.Prepare(cyclic);
  EXPECT_TRUE(auto_result.ok());

  Status status;
  ExecuteResult answers = engine.Query(cyclic, ExecuteRequest{}, &status);
  EXPECT_TRUE(status.ok());
}

TEST_F(EngineTest, ApplyFactsIsCopyOnWriteAndVersioned) {
  Engine engine = MakeEngine();
  ConjunctiveQuery q = SequenceQuery(&vocab_, "RS");
  PrepareResult prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());

  // Pin version 1, then update the engine.
  std::shared_ptr<const DataSnapshot> v1 = engine.snapshot();
  ExecuteResult before = engine.Execute(*prepared.query);
  EXPECT_EQ(before.snapshot_version, 1u);

  // A fresh R/S chain from new individuals must add answers for q = R;S.
  int r = vocab_.InternPredicate("R");
  int s = vocab_.InternPredicate("S");
  FactBatch batch;
  int n0 = vocab_.InternIndividual("fresh0");
  int n1 = vocab_.InternIndividual("fresh1");
  int n2 = vocab_.InternIndividual("fresh2");
  batch.roles.push_back({r, n0, n1});
  batch.roles.push_back({s, n1, n2});
  uint64_t version = 0;
  ASSERT_TRUE(engine.ApplyFactsOrError(batch, &version).ok());
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(engine.snapshot_version(), 2u);

  ExecuteResult after = engine.Execute(*prepared.query);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_GT(after.answers.size(), before.answers.size());
  std::vector<int> fresh_answer = {n0, n2};
  EXPECT_NE(std::find(after.answers.begin(), after.answers.end(),
                      fresh_answer),
            after.answers.end());

  // The pinned version-1 snapshot still evaluates to the old answers.
  Evaluator pinned(prepared.query->program(), v1);
  ExecuteResult old_again = pinned.Run(ExecuteRequest{});
  EXPECT_EQ(old_again.answers, before.answers);
  EXPECT_EQ(old_again.snapshot_version, 1u);

  // And matches a single-shot evaluation over the equivalently grown
  // DataInstance.
  DataInstance grown = data_;
  grown.AddRoleAssertion(r, n0, n1);
  grown.AddRoleAssertion(s, n1, n2);
  Evaluator fresh(prepared.query->program(), DataSnapshot::FromInstance(grown));
  ExecuteResult expected = fresh.Run(ExecuteRequest{});
  EXPECT_EQ(after.answers, expected.answers);
}

TEST_F(EngineTest, ParallelExecuteMatchesSequential) {
  Engine engine = MakeEngine();
  ConjunctiveQuery q = SequenceQuery(&vocab_, "RSRS");
  PrepareResult prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());

  ExecuteRequest sequential;
  ExecuteRequest parallel;
  parallel.num_threads = 4;
  ExecuteResult a = engine.Execute(*prepared.query, sequential);
  ExecuteResult b = engine.Execute(*prepared.query, parallel);
  EXPECT_EQ(a.answers, b.answers);
}

// The Section 6 cost model is the engine's auto: over Example 11 and
// Table 2 dataset 2 at scale 0.1, it must pick a rewriter that completes
// under the tuple cap whenever one does, stay within 1.25x of the summed
// per-query cheapest forced kind, and answer as every forced kind that
// completes (Tw among them).  The
// queries are the perfbench `serve` pool (branching unary trees, on which
// Lin's cross products blow up) plus seeded {R,S}-words of length 3-15.
TEST(EngineAutoKindTest, CostModelStaysNearTheCheapestRewriter) {
  static const char* const kServePool[] = {
      "q(x0) :- R(x0, x1), R(x1, x2)",
      "q(x0) :- R(x1, x0), R(x0, x2), R(x0, x3)",
      "q(x0) :- R(x0, x1), R(x0, x2), R(x1, x3), R(x2, x4)",
      "q(x0) :- R(x0, x1), R(x0, x2)",
      "q(x0) :- R(x1, x0), R(x0, x2)",
      "q(x0) :- R(x1, x0), R(x1, x2), R(x1, x3), R(x0, x4), S(x5, x2)",
      "q(x0) :- R(x0, x1), S(x2, x0)",
      "q(x0) :- R(x1, x0), R(x0, x2), S(x0, x3)",
      "q(x0) :- S(x0, x1), S(x0, x2), R(x3, x0), S(x4, x0)",
      "q(x0) :- R(x0, x1), R(x2, x0), S(x1, x3), S(x1, x4), S(x0, x5)",
      "q(x0) :- R(x0, x1), R(x2, x0), S(x3, x2), R(x2, x4)",
      "q(x0) :- S(x0, x1), R(x0, x2), R(x2, x3), R(x0, x4), S(x5, x0)",
      "q(x0) :- R(x1, x0), S(x2, x0), R(x1, x3)",
      "q(x0) :- S(x0, x1), R(x1, x2), S(x1, x3), S(x4, x1), S(x0, x5)",
      "q(x0) :- S(x1, x0), S(x2, x0)",
      "q(x0) :- S(x1, x0), R(x2, x0), R(x2, x3)",
      "q(x0) :- S(x0, x1), S(x2, x1), R(x1, x3), R(x2, x4)",
      "q(x0) :- S(x0, x1), R(x1, x2), S(x1, x3), R(x4, x3), R(x5, x0)",
      "q(x0) :- S(x1, x0), S(x1, x2)",
      "q(x0) :- S(x0, x1), S(x1, x2), S(x2, x3)",
      "q(x0) :- R(x1, x0), S(x0, x2), S(x3, x2), S(x4, x2)",
      "q(x0) :- R(x0, x1), S(x2, x0), S(x1, x3), R(x4, x1), S(x1, x5)",
      "q(x0) :- S(x1, x0), R(x2, x0)",
      "q(x0) :- R(x1, x0), R(x2, x0), S(x0, x3)",
      "q(x0) :- S(x0, x1), R(x2, x0), S(x3, x1), S(x1, x4)",
      "q(x0) :- S(x1, x0), S(x0, x2), R(x2, x3), R(x4, x1), S(x5, x4)",
      "q(x0) :- R(x1, x0), S(x2, x0)",
      "q(x0) :- S(x1, x0), R(x2, x1), R(x0, x3)",
      "q(x0) :- R(x0, x1), R(x2, x0), S(x2, x3), R(x1, x4)",
      "q(x0) :- S(x1, x0), R(x2, x0), R(x3, x0), S(x4, x3), R(x1, x5)",
      "q(x0) :- S(x0, x1), S(x0, x2), S(x3, x2)",
      "q(x0) :- S(x1, x0), R(x2, x0), S(x3, x1), R(x4, x2)",
      "q(x0) :- S(x1, x0), R(x0, x2)",
      "q(x0) :- R(x1, x0), R(x0, x2), S(x1, x3)",
      "q(x0) :- R(x0, x1), S(x2, x1), S(x3, x1), R(x2, x4)",
      "q(x0) :- R(x0, x1), R(x1, x2), S(x2, x3), S(x0, x4), S(x1, x5)",
      "q(x0) :- S(x1, x0), R(x1, x2)",
      "q(x0) :- S(x0, x1), R(x2, x0), S(x1, x3)",
      "q(x0) :- S(x1, x0), R(x0, x2), S(x3, x1), S(x4, x0)",
      "q(x0) :- S(x0, x1), R(x1, x2), S(x3, x1), S(x1, x4), S(x5, x0)",
      "q(x0) :- S(x1, x0), S(x0, x2), R(x3, x0)",
      "q(x0) :- S(x1, x0), R(x1, x2), R(x1, x3), S(x3, x4)",
      "q(x0) :- S(x1, x0), R(x1, x2), S(x2, x3), S(x3, x4), R(x5, x4)",
      "q(x0) :- S(x1, x0), S(x1, x2)",
      "q(x0) :- S(x0, x1), S(x0, x2), R(x3, x2)",
      "q(x0) :- R(x1, x0), S(x0, x2), S(x0, x3), S(x4, x2), R(x5, x0)",
  };
  constexpr int kWordsPerLength = 3;
  constexpr long kTupleCap = 500000;

  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  Engine engine(*tbox,
                GenerateDataset(&vocab, *tbox, Table2Configs(0.1)[1]));

  std::vector<ConjunctiveQuery> queries;
  for (const char* text : kServePool) {
    std::string error;
    std::optional<ConjunctiveQuery> q = ParseQuery(text, &vocab, &error);
    ASSERT_TRUE(q.has_value()) << text << ": " << error;
    queries.push_back(*q);
  }
  // Words drawn as perfbench `paper` draws them: R-runs of at most two
  // letters, since every R is a hop in the degree-10 graph and longer runs
  // take seconds under every rewriter.
  std::mt19937 rng(1);
  for (int length = 3; length <= 15; ++length) {
    for (int i = 0; i < kWordsPerLength; ++i) {
      std::string word;
      int r_run = 0;
      for (int j = 0; j < length; ++j) {
        const bool r = (rng() & 1) && r_run < 2;
        r_run = r ? r_run + 1 : 0;
        word += r ? 'R' : 'S';
      }
      queries.push_back(SequenceQuery(&vocab, word));
    }
  }

  ExecuteRequest request;
  request.limits.max_generated_tuples = kTupleCap;
  long auto_sum = 0;
  long min_sum = 0;
  for (const ConjunctiveQuery& q : queries) {
    const std::string name = q.ToString();
    PrepareResult chosen = engine.Prepare(q);
    ASSERT_TRUE(chosen.ok()) << name << ": " << chosen.status.ToString();
    ExecuteResult auto_run = engine.Execute(*chosen.query, request);

    std::optional<long> cheapest;
    for (RewriterKind kind : {RewriterKind::kLin, RewriterKind::kLog,
                              RewriterKind::kTw, RewriterKind::kTwStar}) {
      PrepareOptions forced;
      forced.auto_kind = false;
      forced.kind = kind;
      PrepareResult prepared = engine.Prepare(q, forced);
      if (!prepared.ok()) continue;  // Outside this rewriter's class.
      ExecuteResult run = engine.Execute(*prepared.query, request);
      if (run.partial) continue;  // Hit the cap.
      cheapest = std::min(cheapest.value_or(run.stats.generated_tuples),
                          run.stats.generated_tuples);
      // Every complete rewriting returns the certain answers.
      EXPECT_EQ(auto_run.answers, run.answers)
          << name << ": auto vs " << RewriterName(kind);
    }
    ASSERT_TRUE(cheapest.has_value()) << name;
    EXPECT_FALSE(auto_run.partial)
        << name << ": auto picked " << RewriterName(chosen.query->kind())
        << ", which hit the " << kTupleCap << "-tuple cap";
    auto_sum += auto_run.stats.generated_tuples;
    min_sum += *cheapest;
  }
  EXPECT_LE(auto_sum, 1.25 * min_sum)
      << "auto's tuples " << auto_sum << " vs the per-query minima "
      << min_sum;
}

}  // namespace
}  // namespace owlqr
