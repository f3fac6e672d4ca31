#include <gtest/gtest.h>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"

namespace owlqr {
namespace {

TEST(NdlProgramTest, PredicateInterning) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int g1 = program.AddIdbPredicate("G", 2);
  int g2 = program.AddIdbPredicate("G", 2);
  EXPECT_EQ(g1, g2);
  int c = vocab.InternConcept("A");
  EXPECT_EQ(program.AddConceptPredicate(c), program.AddConceptPredicate(c));
  int p = vocab.InternPredicate("P");
  EXPECT_EQ(program.AddRolePredicate(p), program.AddRolePredicate(p));
  EXPECT_EQ(program.EqualityPredicate(), program.EqualityPredicate());
}

// G(x, y) <- R(x, z) & H(z, y);  H(x, y) <- R(x, y).
NdlProgram ChainProgram(Vocabulary* vocab) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int h = program.AddIdbPredicate("H", 2);
  int g = program.AddIdbPredicate("G", 2);
  {
    NdlClause c;
    c.head = {h, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({h, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  return program;
}

TEST(NdlProgramTest, Analysis) {
  Vocabulary vocab;
  NdlProgram program = ChainProgram(&vocab);
  EXPECT_TRUE(program.IsNonrecursive());
  EXPECT_TRUE(program.IsLinear());
  EXPECT_TRUE(program.IsSkinny());
  EXPECT_EQ(program.Depth(), 2);
  auto order = program.TopologicalOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(program.predicate(order[0]).name, "H");
  EXPECT_EQ(program.predicate(order[1]).name, "G");
}

TEST(NdlProgramTest, RecursionDetected) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({g, {Term::Var(0)}});
  program.AddClause(std::move(c));
  EXPECT_FALSE(program.IsNonrecursive());
}

TEST(NdlProgramTest, WidthWithParameters) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int q = program.AddIdbPredicate("Q", 1);
  int g = program.AddIdbPredicate("G", 1);
  program.mutable_predicate(q).parameter_positions = {true};
  program.mutable_predicate(g).parameter_positions = {true};
  // Example 1 of the paper: G(x) <- R(x,y) & Q(x); Q(x) <- R(y,x).
  {
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    c.body.push_back({q, {Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;
    c.head = {q, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(1), Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  // x is a parameter in both clauses; the only non-parameter variable is y.
  EXPECT_EQ(program.Width(), 1);
}

TEST(EvaluatorTest, ChainJoin) {
  Vocabulary vocab;
  NdlProgram program = ChainProgram(&vocab);
  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "b", "c");
  data.Assert("R", "c", "d");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  ExecuteResult result = eval.Run({});
  const auto& answers = result.answers;
  const EvaluationStats& stats = result.stats;
  // Paths of length 2: (a,c), (b,d).
  ASSERT_EQ(answers.size(), 2u);
  int a = vocab.FindIndividual("a"), b = vocab.FindIndividual("b");
  int c = vocab.FindIndividual("c"), d = vocab.FindIndividual("d");
  std::vector<std::vector<int>> expected = {{a, c}, {b, d}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answers, expected);
  EXPECT_EQ(stats.goal_tuples, 2);
  EXPECT_EQ(stats.generated_tuples, 3 + 2);  // |H| + |G|.
  EXPECT_EQ(stats.predicates_evaluated, 2);
}

TEST(EvaluatorTest, EqualityBindsVariables) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int eq = program.EqualityPredicate();
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({a_pred, {Term::Var(0)}});
  c.body.push_back({eq, {Term::Var(0), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("A", "b");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  auto answers = eval.Run({}).answers;
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0][0], answers[0][1]);
}

TEST(EvaluatorTest, AdomEnumerates) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int adom = program.AdomPredicate();
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({adom, {Term::Var(0)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("R", "b", "c");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers.size(), 3u);
}

TEST(EvaluatorTest, ConstantsInBody) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  int b_ind = vocab.InternIndividual("b");
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({r, {Term::Var(0), Term::Const(b_ind)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "c", "d");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  auto answers = eval.Run({}).answers;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], vocab.FindIndividual("a"));
}

TEST(EvaluatorTest, RepeatedVariableInAtom) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(0)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("R", "a", "a");
  data.Assert("R", "a", "b");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  auto answers = eval.Run({}).answers;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], vocab.FindIndividual("a"));
}

TEST(EvaluatorTest, DisjunctionAcrossClauses) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int b_pred = program.AddConceptPredicate(vocab.InternConcept("B"));
  int g = program.AddIdbPredicate("G", 1);
  for (int pred : {a_pred, b_pred}) {
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({pred, {Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("B", "b");
  data.Assert("A", "c");
  data.Assert("B", "c");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers.size(), 3u);  // Deduplicated.
}

TEST(EvaluatorTest, ZeroAryGoal) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int g = program.AddIdbPredicate("G", 0);
  NdlClause c;
  c.head = {g, {}};
  c.body.push_back({a_pred, {Term::Var(0)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance empty(&vocab);
  EXPECT_TRUE(Evaluator(program, DataSnapshot::FromInstance(empty))
                  .Run({})
                  .answers.empty());

  DataInstance data(&vocab);
  data.Assert("A", "a");
  auto answers =
      Evaluator(program, DataSnapshot::FromInstance(data)).Run({}).answers;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
}

}  // namespace
}  // namespace owlqr
