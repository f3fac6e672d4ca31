#include <gtest/gtest.h>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/ndl_parser.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

TEST(NdlParserTest, BasicProgram) {
  Vocabulary vocab;
  std::string error;
  auto program = ParseNdlProgram(R"(
      goal: G
      G(v0, v1) <- R(v0, v2) & H(v2, v1)
      H(v0, v1) <- S(v0, v1)
      H(v0, v1) <- =(v0, v1) & TOP(v0)
  )",
                                 &vocab, &error);
  ASSERT_TRUE(program.has_value()) << error;
  EXPECT_EQ(program->num_clauses(), 3);
  EXPECT_TRUE(program->IsNonrecursive());
  ASSERT_GE(program->goal(), 0);
  EXPECT_EQ(program->predicate(program->goal()).name, "G");
  // R and S became role EDBs; H is IDB.
  EXPECT_GE(vocab.FindPredicate("R"), 0);
  EXPECT_GE(vocab.FindPredicate("S"), 0);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("S", "b", "c");
  Evaluator eval(*program, DataSnapshot::FromInstance(data));
  auto answers = eval.Run({}).answers;
  // (a, c) via S, plus (a, b) via the equality clause.
  EXPECT_EQ(answers.size(), 2u);
}

TEST(NdlParserTest, ConstantsInBody) {
  Vocabulary vocab;
  std::string error;
  auto program = ParseNdlProgram(R"(
      goal: G
      G(v0) <- R(v0, bob)
  )",
                                 &vocab, &error);
  ASSERT_TRUE(program.has_value()) << error;
  DataInstance data(&vocab);
  data.Assert("R", "ann", "bob");
  data.Assert("R", "cid", "dee");
  Evaluator eval(*program, DataSnapshot::FromInstance(data));
  auto answers = eval.Run({}).answers;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], vocab.FindIndividual("ann"));
}

TEST(NdlParserTest, Errors) {
  Vocabulary vocab;
  std::string error;
  EXPECT_FALSE(ParseNdlProgram("G(v0) R(v0, v1)", &vocab, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      ParseNdlProgram("goal: Missing\nG(v0) <- R(v0, v1)", &vocab, &error)
          .has_value());
}

class RoundTrip : public ::testing::TestWithParam<RewriterKind> {};

TEST_P(RoundTrip, PrintParseEvaluate) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRR");
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(&ctx, q, GetParam(), options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  std::string printed = program.ToString();
  std::string error;
  auto reparsed = ParseNdlProgram(printed, &vocab, &error);
  ASSERT_TRUE(reparsed.has_value()) << error << "\n" << printed;
  EXPECT_EQ(reparsed->num_clauses(), program.num_clauses());

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("P", "b", "x");
  data.Assert("R", "b", "c");
  Evaluator e1(program, DataSnapshot::FromInstance(data));
  Evaluator e2(*reparsed, DataSnapshot::FromInstance(data));
  EXPECT_EQ(e1.Run({}).answers, e2.Run({}).answers);
}

INSTANTIATE_TEST_SUITE_P(
    AllRewriters, RoundTrip,
    ::testing::Values(RewriterKind::kLin, RewriterKind::kLog,
                      RewriterKind::kTw, RewriterKind::kTwStar,
                      RewriterKind::kUcq, RewriterKind::kPrestoLike),
    [](const ::testing::TestParamInfo<RewriterKind>& info) {
      std::string name = RewriterName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace owlqr
