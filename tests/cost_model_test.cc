#include <gtest/gtest.h>

#include "chase/certain_answers.h"
#include "core/cost_model.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

TEST(DataStatisticsTest, FromInstance) {
  Vocabulary vocab;
  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("A", "b");
  data.Assert("R", "a", "b");
  DataStatistics stats = DataStatistics::FromInstance(data);
  EXPECT_EQ(stats.num_individuals, 2);
  EXPECT_EQ(stats.ConceptCount(vocab.FindConcept("A")), 2);
  EXPECT_EQ(stats.PredicateCount(vocab.FindPredicate("R")), 1);
  EXPECT_EQ(stats.ConceptCount(vocab.InternConcept("Unknown")), 0);
}

TEST(CostModelTest, JoinEstimateShrinksWithSharedVariables) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  {
    NdlClause c;  // G(x, y) <- R(x, u) & R(u, y).
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);

  DataStatistics stats;
  stats.num_individuals = 100;
  stats.predicate_cardinality[vocab.FindPredicate("R")] = 1000;
  // 1000 * 1000 / 100 = 10000 expected join results.
  EXPECT_NEAR(EstimateEvaluationCost(program, stats), 10000.0, 1.0);
}

TEST(CostModelTest, CostBasedRewriteIsCorrectAndReasonable) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery query = SequenceQuery(&vocab, "RSRRS");

  DatasetConfig config{"t", 60, 0.2, 0.1, 42};
  DataInstance data = GenerateDataset(&vocab, *tbox, config);
  DataStatistics stats = DataStatistics::FromInstance(data);

  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriterKind chosen;
  NdlProgram program = CostBasedRewrite(&ctx, query, stats, options, &chosen);
  // The chosen program is one of the optimal ones and answers correctly.
  EXPECT_TRUE(chosen == RewriterKind::kLin || chosen == RewriterKind::kLog ||
              chosen == RewriterKind::kTw || chosen == RewriterKind::kTwStar);
  auto reference = ComputeCertainAnswers(*tbox, query, data);
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers, reference.answers);
}

TEST(CostModelTest, PrefersCheaperProgramOnSkewedData) {
  // On data where R is huge and the witness concepts are tiny, a rewriting
  // whose clauses join through R repeatedly (Lin's slice chain keeps both
  // endpoints) is costed higher than the balanced ones.
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery query = SequenceQuery(&vocab, "RRRRRRRR");

  DataStatistics stats;
  stats.num_individuals = 1000;
  stats.predicate_cardinality[vocab.FindPredicate("R")] = 500000;

  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult lin_rw = RewriteOmqOrError(&ctx, query, RewriterKind::kLin, options);
  OWLQR_CHECK_MSG(lin_rw.ok(), lin_rw.status.message().c_str());
  NdlProgram lin = std::move(lin_rw.program);
  RewriteResult log_p_rw = RewriteOmqOrError(&ctx, query, RewriterKind::kLog, options);
  OWLQR_CHECK_MSG(log_p_rw.ok(), log_p_rw.status.message().c_str());
  NdlProgram log_p = std::move(log_p_rw.program);
  double lin_cost = EstimateEvaluationCost(lin, stats);
  double log_cost = EstimateEvaluationCost(log_p, stats);
  RewriterKind chosen;
  CostBasedRewrite(&ctx, query, stats, options, &chosen);
  if (lin_cost < log_cost) {
    EXPECT_NE(chosen, RewriterKind::kLog);
  }
  // The estimates are positive and finite either way.
  EXPECT_GT(lin_cost, 0);
  EXPECT_GT(log_cost, 0);
}

}  // namespace
}  // namespace owlqr
