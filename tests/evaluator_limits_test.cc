#include <gtest/gtest.h>

#include <climits>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"

namespace owlqr {
namespace {

// G(x, y) <- R(x, u) & R(u, y): quadratically many results on a dense R.
NdlProgram JoinProgram(Vocabulary* vocab) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  return program;
}

DataInstance DenseGraph(Vocabulary* vocab, int n) {
  DataInstance data(vocab);
  int r = vocab->InternPredicate("R");
  std::vector<int> inds;
  for (int i = 0; i < n; ++i) {
    inds.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) data.AddRoleAssertion(r, inds[i], inds[j]);
    }
  }
  return data;
}

// Evaluates `program` over a snapshot freshly frozen from `data`, so every
// run builds (and counts) its own indexes.
ExecuteResult RunOver(const NdlProgram& program, const DataInstance& data,
                      const ExecuteRequest& request = {}) {
  return Evaluator(program, DataSnapshot::FromInstance(data)).Run(request);
}

TEST(EvaluatorLimitsTest, BudgetAborts) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);  // 900 result tuples.
  ExecuteRequest request;
  request.limits.max_generated_tuples = 100;
  ExecuteResult result = RunOver(program, data, request);
  const EvaluationStats& stats = result.stats;
  EXPECT_TRUE(stats.aborted);
  EXPECT_LE(stats.generated_tuples, 102);
  EXPECT_LT(result.answers.size(), 900u);
}

TEST(EvaluatorLimitsTest, NoBudgetCompletes) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 20);
  ExecuteResult result = RunOver(program, data);
  EXPECT_FALSE(result.stats.aborted);
  // All pairs incl. (v, v) via a middle.
  EXPECT_EQ(result.answers.size(), 400u);
}

TEST(EvaluatorLimitsTest, DeadlineAborts) {
  Vocabulary vocab;
  // G(x, y) <- R(x, u) & R(u, v) & R(v, y): ~40^4 join emissions, far more
  // than a few milliseconds of work.
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(3)}});
  c.body.push_back({r, {Term::Var(3), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  DataInstance data = DenseGraph(&vocab, 40);
  ExecuteRequest request;
  request.limits.deadline_ms = 5;
  const EvaluationStats stats = RunOver(program, data, request).stats;
  EXPECT_TRUE(stats.aborted);
  EXPECT_TRUE(stats.deadline_exceeded);
}

TEST(EvaluatorLimitsTest, GenerousDeadlineCompletes) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 10);
  ExecuteRequest request;
  request.limits.deadline_ms = 60'000;
  ExecuteResult result = RunOver(program, data, request);
  EXPECT_FALSE(result.stats.aborted);
  EXPECT_FALSE(result.stats.deadline_exceeded);
  EXPECT_EQ(result.answers.size(), 100u);
}

// A deadline too far out for the clock (now + deadline_ms would overflow
// its nanosecond range) is no deadline: it must not wrap into the past and
// abort at once.
TEST(EvaluatorLimitsTest, UnrepresentableDeadlineIsUnlimited) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 10);
  for (long deadline_ms : {10'000'000'000'000L, LONG_MAX}) {
    ExecuteRequest request;
    request.limits.deadline_ms = deadline_ms;
    ExecuteResult result = RunOver(program, data, request);
    EXPECT_TRUE(result.status.ok()) << deadline_ms;
    EXPECT_FALSE(result.stats.aborted) << deadline_ms;
    EXPECT_FALSE(result.stats.deadline_exceeded) << deadline_ms;
    EXPECT_EQ(result.answers.size(), 100u) << deadline_ms;
  }
}

TEST(EvaluatorLimitsTest, PerPredicateStats) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 10);
  ExecuteResult result = RunOver(program, data);
  const EvaluationStats& stats = result.stats;
  const auto& answers = result.answers;
  ASSERT_EQ(stats.predicate_tuples.size(),
            static_cast<size_t>(program.num_predicates()));
  long sum = 0;
  for (long n : stats.predicate_tuples) sum += n;
  EXPECT_EQ(sum, stats.generated_tuples);
  EXPECT_EQ(stats.predicate_tuples[program.goal()],
            static_cast<long>(answers.size()));
  // The two-atom self-join builds at least one index over R.
  EXPECT_GE(stats.index_builds, 1);
}

TEST(EvaluatorLimitsTest, BudgetLargerThanResultIsHarmless) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 10);
  ExecuteRequest request;
  request.limits.max_generated_tuples = 1'000'000;
  ExecuteResult result = RunOver(program, data, request);
  EXPECT_FALSE(result.stats.aborted);
  EXPECT_EQ(result.answers.size(), 100u);
}

// G(x) <- A(x) & R(x, y) over a data instance where A holds one individual
// and R is adversarially wide (every edge points into one hub).  The join
// emits a single tuple, so the deadline can only be caught inside the
// index-build loop — a path a per-emission poll never reaches.  Regression
// test for the pre-fix evaluator, which polled the deadline only every 1024
// join emissions and blew far past deadline_ms here.
TEST(EvaluatorLimitsTest, DeadlineHonouredDuringIndexBuildOnWideEdb) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a = program.AddConceptPredicate(vocab.InternConcept("A"));
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({a, {Term::Var(0)}});
  c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  int concept_a = vocab.InternConcept("A");
  int role_r = vocab.InternPredicate("R");
  int hub = data.AddIndividual("hub");
  constexpr int kSpokes = 500'000;
  for (int i = 0; i < kSpokes; ++i) {
    int s = data.AddIndividual("s" + std::to_string(i));
    data.AddRoleAssertion(role_r, s, hub);
    if (i == 0) data.AddConceptAssertion(concept_a, s);
  }

  ExecuteRequest request;
  // Indexing 500k rows takes well over 1 ms.
  request.limits.deadline_ms = 1;
  const EvaluationStats stats = RunOver(program, data, request).stats;
  EXPECT_TRUE(stats.aborted);
  EXPECT_TRUE(stats.deadline_exceeded);
}

// The limits machinery and the stats fields must behave identically on the
// sequential and the parallel path.
TEST(EvaluatorLimitsTest, SequentialAndParallelStatsAgree) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 20);

  // One snapshot per run, so each run builds its indexes itself and
  // index_builds compares like for like.
  ExecuteResult seq = RunOver(program, data);
  ExecuteRequest parallel;
  parallel.num_threads = 4;
  ExecuteResult par = RunOver(program, data, parallel);
  const EvaluationStats& seq_stats = seq.stats;
  const EvaluationStats& par_stats = par.stats;

  EXPECT_EQ(seq.answers, par.answers);
  EXPECT_EQ(seq_stats.generated_tuples, par_stats.generated_tuples);
  EXPECT_EQ(seq_stats.goal_tuples, par_stats.goal_tuples);
  EXPECT_EQ(seq_stats.predicates_evaluated, par_stats.predicates_evaluated);
  EXPECT_EQ(seq_stats.index_builds, par_stats.index_builds);
  EXPECT_EQ(seq_stats.predicate_tuples, par_stats.predicate_tuples);
  EXPECT_FALSE(seq_stats.aborted);
  EXPECT_FALSE(par_stats.aborted);
  EXPECT_FALSE(seq_stats.deadline_exceeded);
  EXPECT_FALSE(par_stats.deadline_exceeded);
}

TEST(EvaluatorLimitsTest, SequentialAndParallelAbortFlagsAgree) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);
  ExecuteRequest request;
  request.limits.max_generated_tuples = 100;

  const EvaluationStats seq_stats = RunOver(program, data, request).stats;
  request.num_threads = 4;
  const EvaluationStats par_stats = RunOver(program, data, request).stats;

  // Tuple counts differ under an abort (workers race to the budget), but
  // the flags and the stats shape must agree.
  EXPECT_TRUE(seq_stats.aborted);
  EXPECT_TRUE(par_stats.aborted);
  EXPECT_FALSE(seq_stats.deadline_exceeded);
  EXPECT_FALSE(par_stats.deadline_exceeded);
  EXPECT_EQ(seq_stats.predicate_tuples.size(), par_stats.predicate_tuples.size());
}

}  // namespace
}  // namespace owlqr
