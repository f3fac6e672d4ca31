#include <gtest/gtest.h>

#include "chase/certain_answers.h"
#include "core/cost_model.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace owlqr {
namespace {

// A frozen instance with `num_individuals` individuals and `num_r_facts`
// distinct R facts among them.
std::shared_ptr<const DataSnapshot> SnapshotWithRFacts(Vocabulary* vocab,
                                                       int num_individuals,
                                                       long num_r_facts) {
  DataInstance data(vocab);
  std::vector<std::string> names;
  for (int i = 0; i < num_individuals; ++i) {
    names.push_back("i" + std::to_string(i));
  }
  for (long f = 0; f < num_r_facts; ++f) {
    data.Assert("R", names[f / num_individuals], names[f % num_individuals]);
  }
  return DataSnapshot::FromInstance(data);
}

TEST(CostModelTest, EstimateReadsSnapshotRelationSizes) {
  Vocabulary vocab;
  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("A", "b");
  data.Assert("R", "a", "b");
  auto snapshot = DataSnapshot::FromInstance(data);

  // G(x) <- A(x) & R(x, y) costs |A| * |R| = 2 with one 1/|adom| = 1/2
  // discount for the repeated x; G(x) <- U(x) costs 0, as U has no facts.
  NdlProgram program(&vocab);
  int a = program.AddConceptPredicate(vocab.FindConcept("A"));
  int r = program.AddRolePredicate(vocab.FindPredicate("R"));
  int u = program.AddConceptPredicate(vocab.InternConcept("Unknown"));
  int g = program.AddIdbPredicate("G", 1);
  NdlClause ar;
  ar.head = {g, {Term::Var(0)}};
  ar.body.push_back({a, {Term::Var(0)}});
  ar.body.push_back({r, {Term::Var(0), Term::Var(1)}});
  NdlClause unknown;
  unknown.head = {g, {Term::Var(0)}};
  unknown.body.push_back({u, {Term::Var(0)}});
  program.AddClause(std::move(ar));
  program.AddClause(std::move(unknown));
  program.SetGoal(g);
  EXPECT_DOUBLE_EQ(EstimateEvaluationCost(program, *snapshot), 2.0 * 1 / 2);
}

TEST(CostModelTest, JoinEstimateShrinksWithSharedVariables) {
  Vocabulary vocab;
  auto snapshot = SnapshotWithRFacts(&vocab, 100, 1000);
  ASSERT_EQ(snapshot->active_domain().size(), 100u);
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.FindPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  {
    NdlClause c;  // G(x, y) <- R(x, u) & R(u, y).
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);

  // 1000 * 1000 / 100 = 10000 expected join results.
  EXPECT_NEAR(EstimateEvaluationCost(program, *snapshot), 10000.0, 1.0);
}

TEST(CostModelTest, CostBasedRewriteIsCorrectAndReasonable) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery query = SequenceQuery(&vocab, "RSRRS");

  DatasetConfig config{"t", 60, 0.2, 0.1, 42};
  DataInstance data = GenerateDataset(&vocab, *tbox, config);
  auto snapshot = DataSnapshot::FromInstance(data);

  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriterKind chosen;
  RewriteResult rewrite =
      CostBasedRewrite(&ctx, query, *snapshot, options, &chosen);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status.ToString();
  // The chosen program is one of the optimal ones and answers correctly.
  EXPECT_TRUE(chosen == RewriterKind::kLin || chosen == RewriterKind::kLog ||
              chosen == RewriterKind::kTw || chosen == RewriterKind::kTwStar);
  auto reference = ComputeCertainAnswers(*tbox, query, data);
  Evaluator eval(rewrite.program, snapshot);
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

  auto snapshot = SnapshotWithRFacts(&vocab, 1000, 500000);

  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult lin_rw = RewriteOmqOrError(&ctx, query, RewriterKind::kLin, options);
  OWLQR_CHECK_MSG(lin_rw.ok(), lin_rw.status.message().c_str());
  NdlProgram lin = std::move(lin_rw.program);
  RewriteResult log_p_rw = RewriteOmqOrError(&ctx, query, RewriterKind::kLog, options);
  OWLQR_CHECK_MSG(log_p_rw.ok(), log_p_rw.status.message().c_str());
  NdlProgram log_p = std::move(log_p_rw.program);
  double lin_cost = EstimateEvaluationCost(lin, *snapshot);
  double log_cost = EstimateEvaluationCost(log_p, *snapshot);
  RewriterKind chosen;
  CostBasedRewrite(&ctx, query, *snapshot, options, &chosen);
  if (lin_cost < log_cost) {
    EXPECT_NE(chosen, RewriterKind::kLog);
  }
  // The estimates are positive and finite either way.
  EXPECT_GT(lin_cost, 0);
  EXPECT_GT(log_cost, 0);
}

}  // namespace
}  // namespace owlqr
