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

// Adds the clause head <- body to `program`.
void AddRule(NdlProgram* program, NdlAtom head, std::vector<NdlAtom> body) {
  NdlClause c;
  c.head = std::move(head);
  c.body = std::move(body);
  program->AddClause(std::move(c));
}

TEST(RenameAnalysisTest, OnlyPermutedCopiesOfOneRegularAtomAreRenames) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  const Term x = Term::Var(0), y = Term::Var(1);
  const Term c = Term::Const(vocab.InternIndividual("c"));
  const int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  const int s = program.AddRolePredicate(vocab.InternPredicate("S"));
  const int a = program.AddConceptPredicate(vocab.InternConcept("A"));
  const int goal = program.AddIdbPredicate("G", 2);
  const int copy = program.AddIdbPredicate("Copy", 2);
  const int concept_copy = program.AddIdbPredicate("ConceptCopy", 1);
  const int repeated = program.AddIdbPredicate("Repeated", 2);
  const int constant = program.AddIdbPredicate("Constant", 2);
  const int equality = program.AddIdbPredicate("Equality", 2);
  const int adom = program.AddIdbPredicate("Adom", 1);
  const int projection = program.AddIdbPredicate("Projection", 1);
  const int two_clauses = program.AddIdbPredicate("TwoClauses", 2);
  const int two_atoms = program.AddIdbPredicate("TwoAtoms", 2);
  AddRule(&program, {goal, {x, y}}, {{r, {x, y}}});
  AddRule(&program, {copy, {x, y}}, {{r, {x, y}}});
  AddRule(&program, {concept_copy, {x}}, {{a, {x}}});
  AddRule(&program, {repeated, {x, x}}, {{r, {x, x}}});
  AddRule(&program, {constant, {x, c}}, {{r, {x, c}}});
  AddRule(&program, {equality, {x, y}},
          {{program.EqualityPredicate(), {x, y}}});
  AddRule(&program, {adom, {x}}, {{program.AdomPredicate(), {x}}});
  AddRule(&program, {projection, {x}}, {{r, {x, y}}});
  AddRule(&program, {two_clauses, {x, y}}, {{r, {x, y}}});
  AddRule(&program, {two_clauses, {x, y}}, {{s, {x, y}}});
  AddRule(&program, {two_atoms, {x, y}}, {{r, {x, y}}, {s, {x, y}}});
  program.SetGoal(goal);

  const std::vector<int>& root = program.Renames().root;
  ASSERT_EQ(root.size(), static_cast<size_t>(program.num_predicates()));
  EXPECT_EQ(root[copy], r);
  EXPECT_EQ(root[concept_copy], a);
  for (int p : {goal, repeated, constant, equality, adom, projection,
                two_clauses, two_atoms, r, s, a}) {
    EXPECT_EQ(root[p], -1) << program.predicate(p).name;
  }
  // The goal is always materialised; a new goal frees the old one.
  program.SetGoal(copy);
  EXPECT_EQ(program.Renames().root[goal], r);
  EXPECT_EQ(program.Renames().root[copy], -1);
}

TEST(RenameAnalysisTest, ChainsResolveToTheRootWithArgumentsPermuted) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  const Term x = Term::Var(0), y = Term::Var(1), z = Term::Var(2);
  const int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  const int star = program.AddIdbPredicate("R*", 2);
  const int b = program.AddIdbPredicate("B", 2);
  const int a = program.AddIdbPredicate("A", 2);
  const int g = program.AddIdbPredicate("G", 2);
  // R*(x, y) <- R(x, y) & R(y, z) is a join, so the chain's root is R*.
  AddRule(&program, {star, {x, y}}, {{r, {x, y}}, {r, {y, z}}});
  AddRule(&program, {b, {x, y}}, {{star, {y, x}}});  // Swapped arguments.
  AddRule(&program, {a, {x, y}}, {{b, {x, y}}});     // A <- B <- R*.
  AddRule(&program, {g, {x, z}}, {{a, {x, y}}, {b, {z, y}}});
  program.SetGoal(g);

  const RenameAnalysis& renames = program.Renames();
  EXPECT_EQ(renames.root[star], -1);
  EXPECT_EQ(renames.root[b], star);
  EXPECT_EQ(renames.root[a], star);
  EXPECT_EQ(renames.root[g], -1);
  // G(x, z) <- A(x, y) & B(z, y) reads R*(y, x) & R*(y, z).
  // Only clauses that read a rename are rewritten: R*'s join reads none.
  EXPECT_EQ(renames.resolved_slot[0], -1);
  ASSERT_GE(renames.resolved_slot[3], 0);
  const NdlClause& resolved = renames.resolved[renames.resolved_slot[3]];
  ASSERT_EQ(resolved.body.size(), 2u);
  EXPECT_EQ(resolved.head.predicate, g);
  EXPECT_EQ(resolved.body[0].predicate, star);
  EXPECT_EQ(resolved.body[0].args, (std::vector<Term>{y, x}));
  EXPECT_EQ(resolved.body[1].predicate, star);
  EXPECT_EQ(resolved.body[1].args, (std::vector<Term>{y, z}));
  // The program itself is unchanged.
  EXPECT_EQ(program.clause(3).body[0].predicate, a);

  // Evaluated as views: the same answers and counts as the copies.
  DataInstance data(&vocab);
  const int role = vocab.InternPredicate("R");
  const int i0 = data.AddIndividual("i0"), i1 = data.AddIndividual("i1"),
            i2 = data.AddIndividual("i2");
  data.AddRoleAssertion(role, i0, i1);
  data.AddRoleAssertion(role, i1, i2);
  data.AddRoleAssertion(role, i2, i0);
  data.AddRoleAssertion(role, i1, i0);
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  const ExecuteResult result = eval.Run(ExecuteRequest{});
  const long star_rows = result.stats.predicate_tuples[star];
  EXPECT_EQ(star_rows, 4);
  EXPECT_EQ(result.stats.predicate_tuples[b], star_rows);
  EXPECT_EQ(result.stats.predicate_tuples[a], star_rows);
  // G(x, z): x and z are R*-successors of one y.
  EXPECT_EQ(result.answers,
            (std::vector<std::vector<int>>{
                {i0, i0}, {i0, i2}, {i1, i1}, {i2, i0}, {i2, i2}}));
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
