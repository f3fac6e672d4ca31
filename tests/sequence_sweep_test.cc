// End-to-end parameterised sweep over the full Section 6 workload: every
// prefix of every sequence, rewritten by all six algorithms and evaluated
// over a fixed small dataset; all rewriters must agree with the reference
// chase engine.  This is the test-suite version of Tables 3-5.

#include <gtest/gtest.h>

#include "chase/certain_answers.h"
#include "core/rewriters.h"
#include "data/completion.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

struct SweepCase {
  int sequence;
  int length;
};

class SequenceSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static constexpr const char* kWords[3] = {kSequence1, kSequence2,
                                            kSequence3};
};

TEST_P(SequenceSweep, AllRewritersAgreeWithReference) {
  const SweepCase& param = GetParam();
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  std::string word(kWords[param.sequence], 0,
                   static_cast<size_t>(param.length));
  ConjunctiveQuery query = SequenceQuery(&vocab, word);

  // A small fixed dataset exercising data matches, A[P] / A[P-] witnesses
  // and dead ends.
  DataInstance data(&vocab);
  int r = vocab.FindPredicate("R");
  int s = vocab.FindPredicate("S");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  int a_pi = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P"), true));
  std::vector<int> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  data.AddRoleAssertion(r, v[0], v[1]);
  data.AddRoleAssertion(r, v[1], v[2]);
  data.AddRoleAssertion(r, v[2], v[0]);
  data.AddRoleAssertion(r, v[2], v[3]);
  data.AddRoleAssertion(s, v[3], v[4]);
  data.AddRoleAssertion(r, v[4], v[5]);
  data.AddConceptAssertion(a_p, v[1]);
  data.AddConceptAssertion(a_pi, v[4]);
  data.AddConceptAssertion(a_p, v[5]);

  auto reference = ComputeCertainAnswers(*tbox, query, data);
  ASSERT_TRUE(reference.consistent);

  DataInstance completed = CompleteInstance(data, *tbox, ctx.saturation());
  for (RewriterKind kind :
       {RewriterKind::kLog, RewriterKind::kLin, RewriterKind::kTw,
        RewriterKind::kTwStar, RewriterKind::kUcq,
        RewriterKind::kPrestoLike}) {
    RewriteOptions arbitrary;
    arbitrary.arbitrary_instances = true;
    RewriteResult program_rw = RewriteOmqOrError(&ctx, query, kind, arbitrary);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    Evaluator eval(program, DataSnapshot::FromInstance(data));
    EXPECT_EQ(eval.Run({}).answers, reference.answers)
        << RewriterName(kind) << " over raw data, word " << word;

    RewriteResult complete_program_rw = RewriteOmqOrError(&ctx, query, kind);
    OWLQR_CHECK_MSG(complete_program_rw.ok(), complete_program_rw.status.message().c_str());
    NdlProgram complete_program = std::move(complete_program_rw.program);
    Evaluator eval2(complete_program, DataSnapshot::FromInstance(completed));
    EXPECT_EQ(eval2.Run({}).answers, reference.answers)
        << RewriterName(kind) << " over completed data, word " << word;
  }
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (int sequence = 0; sequence < 3; ++sequence) {
    for (int length = 1; length <= 15; ++length) {
      cases.push_back({sequence, length});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefixes, SequenceSweep, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seq" + std::to_string(info.param.sequence + 1) + "_len" +
             std::to_string(info.param.length);
    });

}  // namespace
}  // namespace owlqr
