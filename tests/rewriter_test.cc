#include <gtest/gtest.h>

#include <random>

#include "chase/certain_answers.h"
#include "core/rewriters.h"
#include "data/completion.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

constexpr RewriterKind kAllKinds[] = {
    RewriterKind::kLog, RewriterKind::kLin,       RewriterKind::kTw,
    RewriterKind::kTwStar, RewriterKind::kUcq,    RewriterKind::kPrestoLike};

// Evaluates the rewriting of (tbox, query) by `kind` over `data` (raw, with
// the arbitrary-instance transformation) and checks it against the reference
// engine's certain answers.
void CheckRewriter(RewritingContext* ctx, const ConjunctiveQuery& query,
                   const DataInstance& data, RewriterKind kind,
                   const std::vector<std::vector<int>>& expected,
                   const std::string& label) {
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(ctx, query, kind, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);
  ASSERT_TRUE(program.IsNonrecursive()) << label;
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers, expected)
      << label << " kind=" << RewriterName(kind) << "\n"
      << query.ToString();

  // The complete-instance rewriting over the completed instance must agree.
  RewriteResult complete_program_rw = RewriteOmqOrError(ctx, query, kind);
  OWLQR_CHECK_MSG(complete_program_rw.ok(), complete_program_rw.status.message().c_str());
  NdlProgram complete_program = std::move(complete_program_rw.program);
  DataInstance completed =
      CompleteInstance(data, ctx->tbox(), ctx->saturation());
  Evaluator eval2(complete_program, DataSnapshot::FromInstance(completed));
  EXPECT_EQ(eval2.Run({}).answers, expected)
      << label << " (complete) kind=" << RewriterName(kind) << "\n"
      << query.ToString();
}

TEST(UcqRewriterTest, Example8MatchesAppendixCount) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRSRR");
  NdlProgram ucq = UcqRewrite(&ctx, q);
  // Appendix A.6.1: exactly 9 CQs in the UCQ rewriting.
  EXPECT_EQ(ucq.num_clauses(), 9);
}

TEST(LinRewriterTest, ProducesLinearProgram) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRSRR");
  RewriteResult lin_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kLin);
  OWLQR_CHECK_MSG(lin_rw.ok(), lin_rw.status.message().c_str());
  NdlProgram lin = std::move(lin_rw.program);
  EXPECT_TRUE(lin.IsLinear());
  // Width <= 2 * leaves = 4 over complete instances.
  EXPECT_LE(lin.Width(), 4);
  RewriteOptions arb;
  arb.arbitrary_instances = true;
  RewriteResult lin_arb_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kLin, arb);
  OWLQR_CHECK_MSG(lin_arb_rw.ok(), lin_arb_rw.status.message().c_str());
  NdlProgram lin_arb = std::move(lin_arb_rw.program);
  EXPECT_TRUE(lin_arb.IsLinear());
  EXPECT_LE(lin_arb.Width(), 5);  // Lemma 3: width grows by at most 1.
}

TEST(LogRewriterTest, WidthBound) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRSRR");
  RewriteResult log_program_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kLog);
  OWLQR_CHECK_MSG(log_program_rw.ok(), log_program_rw.status.message().c_str());
  NdlProgram log_program = std::move(log_program_rw.program);
  // Treewidth 1: width <= 3 (t + 1) = 6.
  EXPECT_LE(log_program.Width(), 6);
}

TEST(TwRewriterTest, InliningPreservesAnswers) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSR");
  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.InternIndividual("b"));
  data.AddIndividual("b");

  RewriteOptions arb;
  arb.arbitrary_instances = true;
  RewriteResult tw_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kTw, arb);
  OWLQR_CHECK_MSG(tw_rw.ok(), tw_rw.status.message().c_str());
  NdlProgram tw = std::move(tw_rw.program);
  RewriteResult tw_star_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kTwStar, arb);
  OWLQR_CHECK_MSG(tw_star_rw.ok(), tw_star_rw.status.message().c_str());
  NdlProgram tw_star = std::move(tw_star_rw.program);
  EXPECT_LE(tw_star.num_clauses(), tw.num_clauses());
  Evaluator e1(tw, DataSnapshot::FromInstance(data));
  Evaluator e2(tw_star, DataSnapshot::FromInstance(data));
  EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers);
}

TEST(RewriterTest, Example8EndToEnd) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRSRR");

  // Direct data match plus anonymous witnesses: R(c0,c1), A[P](c1) covers
  // R S R via the tree below c1 (S(c1, c1.P), R(c1.P, c1)), so x3 = c1, and
  // then R(c1,c4), A[P](c4) covers the second R S R with x6 = c4, and
  // finally R(c4, c7)... but that would reuse the R edges.  Build the data
  // so that the expected answers are known from the reference engine.
  DataInstance data(&vocab);
  data.Assert("R", "c0", "c1");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("c1"));
  data.Assert("R", "c1", "c4");
  data.AddConceptAssertion(a_p, vocab.FindIndividual("c4"));
  data.Assert("R", "c4", "c7");

  auto reference = ComputeCertainAnswers(*tbox, q, data);
  ASSERT_TRUE(reference.consistent);
  ASSERT_FALSE(reference.answers.empty());
  for (RewriterKind kind : kAllKinds) {
    CheckRewriter(&ctx, q, data, kind, reference.answers, "example8");
  }
}

// ---------------------------------------------------------------------------
// Randomised cross-validation against the reference engine.
// ---------------------------------------------------------------------------

struct RandomScenario {
  Vocabulary vocab;
  std::unique_ptr<TBox> tbox;
  std::vector<int> predicates;
  std::vector<int> concepts;
  bool finite_depth = true;
};

std::unique_ptr<RandomScenario> MakeScenario(int which) {
  auto s = std::make_unique<RandomScenario>();
  switch (which) {
    case 0: {  // Example 11 (depth 1).
      s->tbox = MakeExample11TBox(&s->vocab);
      break;
    }
    case 1: {  // Depth 2 with concept hierarchy and both-direction roles.
      s->tbox = std::make_unique<TBox>(&s->vocab);
      s->tbox->AddExistsRhs("A", "T1");
      s->tbox->AddConceptInclusion(
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("T1"), true)),
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("T2"))));
      s->tbox->AddExistsLhs("T2", "B", /*inverse=*/true);
      s->tbox->AddRoleInclusion(RoleOf(s->vocab.InternPredicate("T1")),
                                RoleOf(s->vocab.InternPredicate("U")));
      s->tbox->AddAtomicInclusion("B", "C");
      s->tbox->Normalize();
      break;
    }
    case 2: {  // Reflexive role plus inverse games (depth 1).
      s->tbox = std::make_unique<TBox>(&s->vocab);
      int k = s->vocab.InternPredicate("K");
      s->tbox->AddReflexivity(RoleOf(k));
      s->tbox->AddRoleInclusion(RoleOf(k), RoleOf(s->vocab.InternPredicate("R")));
      s->tbox->AddExistsRhs("A", "S");
      s->tbox->AddExistsLhs("S", "B", /*inverse=*/true);
      s->tbox->Normalize();
      break;
    }
    case 4: {  // Depth 3 with branching existentials and a long role chain.
      s->tbox = std::make_unique<TBox>(&s->vocab);
      s->tbox->AddExistsRhs("A", "E1");
      s->tbox->AddExistsRhs("A", "F1");
      s->tbox->AddConceptInclusion(
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("E1"), true)),
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("E2"))));
      s->tbox->AddConceptInclusion(
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("E2"), true)),
          BasicConcept::Exists(RoleOf(s->vocab.InternPredicate("E3"))));
      s->tbox->AddRoleInclusion(RoleOf(s->vocab.InternPredicate("E1")),
                                RoleOf(s->vocab.InternPredicate("U")));
      s->tbox->AddExistsLhs("E3", "Deep", /*inverse=*/true);
      s->tbox->Normalize();
      break;
    }
    case 5: {  // Concept-heavy: hierarchies feeding existentials.
      s->tbox = std::make_unique<TBox>(&s->vocab);
      s->tbox->AddAtomicInclusion("C1", "C2");
      s->tbox->AddAtomicInclusion("C2", "C3");
      s->tbox->AddExistsRhs("C3", "G1");
      s->tbox->AddExistsLhs("G1", "C0", /*inverse=*/true);
      s->tbox->AddRoleInclusion(RoleOf(s->vocab.InternPredicate("G1")),
                                RoleOf(s->vocab.InternPredicate("G2"), true));
      s->tbox->Normalize();
      break;
    }
    case 3: {  // Infinite depth (Tw / baselines only).
      s->tbox = std::make_unique<TBox>(&s->vocab);
      RoleId p = RoleOf(s->vocab.InternPredicate("P"));
      s->tbox->AddExistsRhs("A", "P");
      s->tbox->AddConceptInclusion(BasicConcept::Exists(Inverse(p)),
                                   BasicConcept::Exists(p));
      s->tbox->AddRoleInclusion(p, RoleOf(s->vocab.InternPredicate("R")));
      s->tbox->AddExistsLhs("P", "B", /*inverse=*/true);
      s->tbox->Normalize();
      s->finite_depth = false;
      break;
    }
  }
  for (int p = 0; p < s->vocab.num_predicates(); ++p) {
    s->predicates.push_back(p);
  }
  for (int c = 0; c < s->vocab.num_concepts(); ++c) s->concepts.push_back(c);
  return s;
}

ConjunctiveQuery RandomTreeQuery(RandomScenario* s, std::mt19937_64* rng,
                                 int num_vars) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  ConjunctiveQuery q(&s->vocab);
  for (int v = 0; v < num_vars; ++v) {
    q.AddVariable("y" + std::to_string(v));
  }
  auto pred = [&] {
    return s->predicates[(*rng)() % s->predicates.size()];
  };
  for (int v = 1; v < num_vars; ++v) {
    int parent = static_cast<int>((*rng)() % v);
    if (unit(*rng) < 0.5) {
      q.AddBinaryAtom(pred(), parent, v);
    } else {
      q.AddBinaryAtom(pred(), v, parent);
    }
  }
  // A few unary atoms.
  int unary = static_cast<int>((*rng)() % 3);
  for (int i = 0; i < unary && !s->concepts.empty(); ++i) {
    q.AddUnaryAtom(s->concepts[(*rng)() % s->concepts.size()],
                   static_cast<int>((*rng)() % num_vars));
  }
  for (int v = 0; v < num_vars; ++v) {
    if (unit(*rng) < 0.35) q.MarkAnswerVariable(v);
  }
  return q;
}

DataInstance RandomData(RandomScenario* s, std::mt19937_64* rng,
                        int num_individuals, int num_atoms) {
  DataInstance data(&s->vocab);
  std::vector<int> inds;
  for (int i = 0; i < num_individuals; ++i) {
    inds.push_back(data.AddIndividual("i" + std::to_string(i)));
  }
  for (int a = 0; a < num_atoms; ++a) {
    if ((*rng)() % 3 == 0 && !s->concepts.empty()) {
      data.AddConceptAssertion(s->concepts[(*rng)() % s->concepts.size()],
                               inds[(*rng)() % inds.size()]);
    } else {
      data.AddRoleAssertion(s->predicates[(*rng)() % s->predicates.size()],
                            inds[(*rng)() % inds.size()],
                            inds[(*rng)() % inds.size()]);
    }
  }
  return data;
}

class RandomizedAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedAgreement, AllRewritersMatchReference) {
  int scenario_id = GetParam();
  auto s = MakeScenario(scenario_id);
  RewritingContext ctx(*s->tbox);
  std::mt19937_64 rng(977 + scenario_id);
  int iterations = 40;
  for (int iter = 0; iter < iterations; ++iter) {
    int num_vars = 2 + static_cast<int>(rng() % 4);
    ConjunctiveQuery q = RandomTreeQuery(s.get(), &rng, num_vars);
    DataInstance data = RandomData(s.get(), &rng, 5, 8);
    auto reference = ComputeCertainAnswers(*s->tbox, q, data);
    ASSERT_TRUE(reference.consistent);
    std::string label =
        "scenario " + std::to_string(scenario_id) + " iter " +
        std::to_string(iter);
    for (RewriterKind kind : kAllKinds) {
      if (!s->finite_depth &&
          (kind == RewriterKind::kLog || kind == RewriterKind::kLin)) {
        continue;
      }
      CheckRewriter(&ctx, q, data, kind, reference.answers, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RandomizedAgreement,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

}  // namespace
}  // namespace owlqr

namespace owlqr {
namespace {

TEST(RewriterTest, IsolatedAnswerVariable) {
  // q(x, y) :- R(x, z): y is an isolated answer variable ranging over the
  // active domain (regression: Log used to build a goal of the wrong arity).
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q(&vocab);
  q.AddBinary("R", "x", "z");
  int y = q.AddVariable("y");
  q.MarkAnswerVariable(q.FindVariable("x"));
  q.MarkAnswerVariable(y);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.InternIndividual("c"));

  auto reference = ComputeCertainAnswers(*tbox, q, data);
  ASSERT_EQ(reference.answers.size(), 3u);  // (a, a), (a, b), (a, c).
  for (RewriterKind kind : kAllKinds) {
    CheckRewriter(&ctx, q, data, kind, reference.answers, "isolated-var");
  }
}

}  // namespace
}  // namespace owlqr
