#include <gtest/gtest.h>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "ndl/optimize.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

TEST(OptimizeTest, EmptyPredicateClausesDropped) {
  // The Table 2 datasets contain no S and no P edges, so all clauses
  // matching S or P directly can be dropped without changing the answers.
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRS");
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kLog, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "b", "c");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("b"));

  Evaluator baseline(program, DataSnapshot::FromInstance(data));
  auto expected = baseline.Run({}).answers;

  NdlProgram optimized = program;
  int removed = DropEmptyPredicateClauses(&optimized, data);
  EXPECT_GT(removed, 0);
  EXPECT_LT(optimized.num_clauses(), program.num_clauses());
  Evaluator eval(optimized, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers, expected);
}

TEST(OptimizeTest, DuplicateClausesSubsumed) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  for (int copy = 0; copy < 2; ++copy) {
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  EXPECT_EQ(RemoveSubsumedClauses(&program), 1);
  EXPECT_EQ(program.num_clauses(), 1);
}

TEST(OptimizeTest, StricterClauseSubsumed) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int a_pred = program.AddConceptPredicate(vocab.InternConcept("A"));
  int g = program.AddIdbPredicate("G", 1);
  {
    // G(x) <- R(x, y): the general clause.
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    // G(x) <- R(x, y) & A(y): strictly more constrained, hence redundant.
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    c.body.push_back({a_pred, {Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    // G(x) <- R(y, x): different direction, not redundant.
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(1), Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  EXPECT_EQ(RemoveSubsumedClauses(&program), 1);
  EXPECT_EQ(program.num_clauses(), 2);
}

TEST(OptimizeTest, SelfLoopDoesNotSubsumeEdge) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  {
    // G(x) <- R(x, x): more specific than R(x, y)...
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(0)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;
    c.head = {g, {Term::Var(0)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);
  // ... so the self-loop clause goes and the general one stays.
  EXPECT_EQ(RemoveSubsumedClauses(&program), 1);
  ASSERT_EQ(program.num_clauses(), 1);
  EXPECT_EQ(program.clause(0).body[0].args[0].value, 0);
  EXPECT_EQ(program.clause(0).body[0].args[1].value, 1);
}

TEST(OptimizeTest, SubsumptionPreservesRewritingAnswers) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSR");
  RewriteOptions options;
  options.arbitrary_instances = true;
  for (RewriterKind kind : {RewriterKind::kUcq, RewriterKind::kTw}) {
    RewriteResult program_rw = RewriteOmqOrError(&ctx, q, kind, options);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    NdlProgram optimized = program;
    RemoveSubsumedClauses(&optimized);

    DataInstance data(&vocab);
    data.Assert("R", "a", "b");
    data.Assert("P", "b", "z");
    data.Assert("S", "b", "c");
    data.Assert("R", "c", "d");
    Evaluator e1(program, DataSnapshot::FromInstance(data));
    Evaluator e2(optimized, DataSnapshot::FromInstance(data));
    EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers) << RewriterName(kind);
  }
}

}  // namespace
}  // namespace owlqr
