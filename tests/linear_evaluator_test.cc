#include <gtest/gtest.h>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "ndl/linear_evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

// The Theorem 2 reachability procedure must agree with the bottom-up
// evaluator on Lin rewritings (the paper's NL evaluation story).
TEST(LinearReachabilityTest, AgreesWithBottomUpOnLinRewritings) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "b", "c");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("b"));

  for (const char* word : {"R", "RS", "RSR", "RSRR"}) {
    ConjunctiveQuery q = SequenceQuery(&vocab, word);
    RewriteOptions options;
    options.arbitrary_instances = true;
    RewriteResult program_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kLin, options);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    ASSERT_TRUE(program.IsLinear()) << word;

    Evaluator eval(program, DataSnapshot::FromInstance(data));
    auto answers = eval.Run({}).answers;
    std::set<std::vector<int>> answer_set(answers.begin(), answers.end());

    LinearReachabilityEvaluator reach(program, data);
    for (int u : data.individuals()) {
      for (int v : data.individuals()) {
        bool expected = answer_set.count({u, v}) > 0;
        EXPECT_EQ(reach.Decide({u, v}), expected)
            << word << " (" << vocab.IndividualName(u) << ", "
            << vocab.IndividualName(v) << ")";
      }
    }
  }
}

TEST(LinearReachabilityTest, HandcraftedChain) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int h = program.AddIdbPredicate("H", 2);
  int g = program.AddIdbPredicate("G", 2);
  program.mutable_predicate(h).parameter_positions = {false, true};
  program.mutable_predicate(g).parameter_positions = {true, true};
  {
    NdlClause c;  // H(x, y) <- R(x, y).
    c.head = {h, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  {
    NdlClause c;  // G(x, y) <- R(x, u) & H(u, y).
    c.head = {g, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({h, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  program.SetGoal(g);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("R", "b", "c");
  LinearReachabilityEvaluator reach(program, data);
  int a = vocab.FindIndividual("a");
  int b = vocab.FindIndividual("b");
  int c = vocab.FindIndividual("c");
  EXPECT_TRUE(reach.Decide({a, c}));
  EXPECT_FALSE(reach.Decide({a, b}));
  EXPECT_FALSE(reach.Decide({b, a}));
  EXPECT_GT(reach.num_edges(), 0);
}

}  // namespace
}  // namespace owlqr
