// The Log rewriter is the only optimal one that handles non-tree CQs
// (bounded treewidth > 1).  These tests validate it — and the UCQ baseline,
// whose tree-witness machinery is also shape-agnostic — on cyclic queries
// against the reference engine, plus the Lemma 5 skinny transformation on
// top of real rewriter output.

#include <gtest/gtest.h>

#include <random>

#include "chase/certain_answers.h"
#include "core/lin_rewriter.h"
#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "ndl/skinny.h"
#include "ndl/transforms.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

DataInstance RandomGraphData(Vocabulary* vocab, const TBox& tbox,
                             std::mt19937_64* rng) {
  DataInstance data(vocab);
  std::vector<int> inds;
  for (int i = 0; i < 6; ++i) {
    inds.push_back(data.AddIndividual("g" + std::to_string(i)));
  }
  int r = vocab->FindPredicate("R");
  int s = vocab->FindPredicate("S");
  for (int i = 0; i < 10; ++i) {
    int pred = (*rng)() % 2 == 0 ? r : s;
    data.AddRoleAssertion(pred, inds[(*rng)() % 6], inds[(*rng)() % 6]);
  }
  int a_p = tbox.ExistsConcept(RoleOf(vocab->FindPredicate("P")));
  data.AddConceptAssertion(a_p, inds[(*rng)() % 6]);
  return data;
}

class CyclicQueries : public ::testing::TestWithParam<int> {};

TEST_P(CyclicQueries, LogAndUcqMatchReferenceOnCycles) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  std::mt19937_64 rng(31 + GetParam());

  // A random cyclic query: a cycle of length 3-4 plus a pendant path.
  ConjunctiveQuery q(&vocab);
  int cycle_len = 3 + static_cast<int>(rng() % 2);
  std::vector<int> cycle;
  for (int i = 0; i < cycle_len; ++i) {
    cycle.push_back(q.AddVariable("c" + std::to_string(i)));
  }
  auto pred = [&] { return rng() % 2 == 0 ? vocab.FindPredicate("R")
                                          : vocab.FindPredicate("S"); };
  for (int i = 0; i < cycle_len; ++i) {
    q.AddBinaryAtom(pred(), cycle[i], cycle[(i + 1) % cycle_len]);
  }
  int tail = q.AddVariable("t0");
  q.AddBinaryAtom(pred(), cycle[0], tail);
  int tail2 = q.AddVariable("t1");
  q.AddBinaryAtom(pred(), tail, tail2);
  if (rng() % 2 == 0) q.MarkAnswerVariable(cycle[1]);
  if (rng() % 2 == 0) q.MarkAnswerVariable(tail2);

  DataInstance data = RandomGraphData(&vocab, *tbox, &rng);
  auto reference = ComputeCertainAnswers(*tbox, q, data);
  ASSERT_TRUE(reference.consistent);

  for (RewriterKind kind : {RewriterKind::kLog, RewriterKind::kUcq}) {
    RewriteOptions options;
    options.arbitrary_instances = true;
    RewriteResult program_rw = RewriteOmqOrError(&ctx, q, kind, options);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    Evaluator eval(program, DataSnapshot::FromInstance(data));
    EXPECT_EQ(eval.Run({}).answers, reference.answers)
        << RewriterName(kind) << "\n"
        << q.ToString();

    // Lemma 5 on the real rewriting: the skinny form stays equivalent.
    NdlProgram skinny = SkinnyTransform(program);
    EXPECT_TRUE(skinny.IsSkinny());
    Evaluator eval2(skinny, DataSnapshot::FromInstance(data));
    EXPECT_EQ(eval2.Run({}).answers, reference.answers)
        << RewriterName(kind) << " (skinny)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CyclicQueries, ::testing::Range(0, 16));

TEST(LinRootChoiceTest, AnyRootGivesTheSameAnswers) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRR");
  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("b"));
  data.Assert("R", "b", "c");

  auto reference = ComputeCertainAnswers(*tbox, q, data);
  for (int root = 0; root < q.num_vars(); ++root) {
    NdlProgram lin = LinRewrite(&ctx, q, root);
    EXPECT_TRUE(lin.IsLinear()) << "root " << root;
    NdlProgram program =
        LinearStarTransform(lin, ctx.tbox(), ctx.saturation());
    Evaluator eval(program, DataSnapshot::FromInstance(data));
    EXPECT_EQ(eval.Run({}).answers, reference.answers) << "root " << root;
  }
}

}  // namespace
}  // namespace owlqr
