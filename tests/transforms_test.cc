#include <gtest/gtest.h>

#include <random>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "ndl/skinny.h"
#include "ndl/transforms.h"

namespace owlqr {
namespace {

// A wide-body program: G(x,y) <- R(x,a) & R(a,b) & R(b,c) & R(c,y) & A(x),
// plus H as an IDB layer so both EDB and IDB binarisation paths trigger.
NdlProgram WideProgram(Vocabulary* vocab) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int a_pred = program.AddConceptPredicate(vocab->InternConcept("A"));
  int h = program.AddIdbPredicate("H", 2);
  int h2 = program.AddIdbPredicate("H2", 2);
  int h3 = program.AddIdbPredicate("H3", 2);
  int g = program.AddIdbPredicate("G", 2);
  for (int pred : {h, h2, h3}) {
    NdlClause c;
    c.head = {pred, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    // G(x,y) <- H(x,u) & H2(u,v) & H3(v,y) & A(x) & R(x,u).
    NdlClause c;
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({h, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({h2, {Term::Var(2), Term::Var(3)}});
    c.body.push_back({h3, {Term::Var(3), Term::Var(1)}});
    c.body.push_back({a_pred, {Term::Var(0)}});
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  return program;
}

DataInstance RandomChainData(Vocabulary* vocab, uint64_t seed) {
  DataInstance data(vocab);
  std::mt19937_64 rng(seed);
  std::vector<int> inds;
  for (int i = 0; i < 6; ++i) {
    inds.push_back(data.AddIndividual("n" + std::to_string(i)));
  }
  int r = vocab->InternPredicate("R");
  int a = vocab->InternConcept("A");
  for (int i = 0; i < 10; ++i) {
    data.AddRoleAssertion(r, inds[rng() % inds.size()],
                          inds[rng() % inds.size()]);
  }
  for (int i = 0; i < 3; ++i) {
    data.AddConceptAssertion(a, inds[rng() % inds.size()]);
  }
  return data;
}

TEST(SkinnyTest, WeightFunction) {
  Vocabulary vocab;
  NdlProgram program = WideProgram(&vocab);
  std::vector<long> nu = ComputeWeightFunction(program);
  // EDB predicates weigh 0; H/H2/H3 weigh 1; G sums its IDB children.
  int g = program.goal();
  EXPECT_EQ(nu[g], 3);
  for (int p = 0; p < program.num_predicates(); ++p) {
    if (!program.IsIdb(p)) {
      EXPECT_EQ(nu[p], 0) << program.predicate(p).name;
    } else if (p != g) {
      EXPECT_EQ(nu[p], 1) << program.predicate(p).name;
    }
  }
  EXPECT_GE(SkinnyDepth(program), 2 * program.Depth());
}

TEST(SkinnyTest, TransformIsSkinnyAndEquivalent) {
  Vocabulary vocab;
  NdlProgram program = WideProgram(&vocab);
  NdlProgram skinny = SkinnyTransform(program);
  EXPECT_FALSE(program.IsSkinny());
  EXPECT_TRUE(skinny.IsSkinny());
  EXPECT_TRUE(skinny.IsNonrecursive());
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DataInstance data = RandomChainData(&vocab, seed);
    Evaluator e1(program, DataSnapshot::FromInstance(data));
    Evaluator e2(skinny, DataSnapshot::FromInstance(data));
    EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers) << "seed " << seed;
  }
}

TEST(SkinnyTest, WidthDoesNotGrow) {
  Vocabulary vocab;
  NdlProgram program = WideProgram(&vocab);
  NdlProgram skinny = SkinnyTransform(program);
  // Lemma 5: w(Pi') <= w(Pi) (no parameters here, so plain variable counts).
  EXPECT_LE(skinny.Width(), program.Width());
}

TEST(PruneTest, RemovesUndefinedAndUnreachable) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int g = program.AddIdbPredicate("G", 1);
  int dead = program.AddIdbPredicate("Dead", 1);     // No clauses.
  int island = program.AddIdbPredicate("Island", 1); // Unreachable.
  {
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({a_pred, {Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;  // References the undefined predicate: must go.
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({dead, {Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;
    c.head = {island, {Term::Var(0)}};
    c.body.push_back({a_pred, {Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  EXPECT_EQ(PruneProgram(&program), 2);
  EXPECT_EQ(program.num_clauses(), 1);
}

TEST(PruneTest, CascadingRemoval) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int g = program.AddIdbPredicate("G", 0);
  int mid = program.AddIdbPredicate("Mid", 0);
  int dead = program.AddIdbPredicate("Dead", 0);
  {
    NdlClause c;
    c.head = {g, {}};
    c.body.push_back({mid, {}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;  // Mid depends on the undefined Dead -> Mid dies -> G dies.
    c.head = {mid, {}};
    c.body.push_back({dead, {}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  EXPECT_EQ(PruneProgram(&program), 2);
  EXPECT_EQ(program.num_clauses(), 0);
}

TEST(SafetyTest, AddsAdomGuards) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;  // G(x, y) <- A(x): y unbound.
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({a_pred, {Term::Var(0)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  EXPECT_EQ(EnsureSafety(&program), 1);

  DataInstance data(&vocab);
  data.Assert("A", "a");
  data.Assert("A", "b");
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers.size(), 4u);  // 2 x active domain of size 2.
}

TEST(InlineTest, SingleUsePredicatesDisappear) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int h = program.AddIdbPredicate("H", 2);
  int g = program.AddIdbPredicate("G", 2);
  {
    NdlClause c;
    c.head = {h, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({h, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  NdlProgram original = program;  // Keep a copy for comparison.
  EXPECT_EQ(InlineSingleUsePredicates(&program), 1);
  EXPECT_EQ(program.num_clauses(), 1);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "b", "c");
  Evaluator e1(original, DataSnapshot::FromInstance(data));
  Evaluator e2(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers);
}

TEST(InlineTest, RespectsOccurrenceCap) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int h = program.AddIdbPredicate("H", 2);
  int g = program.AddIdbPredicate("G", 2);
  {
    NdlClause c;
    c.head = {h, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  // Three uses of H: above the default cap of 2.
  for (int i = 0; i < 3; ++i) {
    NdlClause c;
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({h, {Term::Var(0), Term::Var(i == 0 ? 1 : 2)}});
    c.body.push_back({h, {Term::Var(i == 0 ? 1 : 2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  EXPECT_EQ(InlineSingleUsePredicates(&program, 2), 0);
  EXPECT_EQ(InlineSingleUsePredicates(&program, 100), 1);
}

TEST(InlineTest, RepeatedHeadVariablesUseEqualities) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int h = program.AddIdbPredicate("H", 2);
  int g = program.AddIdbPredicate("G", 1);
  {
    // H(x, x) <- R(x, x) ... head repeats a variable.
    NdlClause c;
    c.head = {h, {Term::Var(0), Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  {
    // G(x) <- H(x, y) forces x = y on inlining.
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({h, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  NdlProgram original = program;
  InlineSingleUsePredicates(&program);
  DataInstance data(&vocab);
  data.Assert("R", "a", "a");
  data.Assert("R", "a", "b");
  Evaluator e1(original, DataSnapshot::FromInstance(data));
  Evaluator e2(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers);
}

}  // namespace
}  // namespace owlqr
