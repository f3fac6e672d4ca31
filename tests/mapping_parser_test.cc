#include <gtest/gtest.h>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/mapping_parser.h"
#include "syntax/parser.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

TEST(MappingParserTest, ParseAndRun) {
  Vocabulary vocab;
  TBox tbox(&vocab);
  std::string error;
  ASSERT_TRUE(ParseTBox(R"(
      Professor SUB EX teaches
      EX teaches- SUB Course
  )", &tbox, &error)) << error;
  tbox.Normalize();

  TableStore tables(&vocab);
  GavMapping mapping(&vocab, &tables);
  ASSERT_TRUE(ParseMapping(R"(
      # staff(person, position); courses(course, lecturer)
      Professor(x) <- staff(x, "professor")
      teaches(x, y) <- courses(y, x)
  )", &mapping, &error)) << error;
  EXPECT_EQ(mapping.rules().size(), 2u);
  EXPECT_EQ(tables.num_tables(), 2);
  EXPECT_EQ(tables.TableArity(tables.FindTable("staff")), 2);

  tables.AddRow("staff", {"ann", "professor"});
  tables.AddRow("staff", {"eve", "admin"});
  tables.AddRow("courses", {"logic", "bob"});

  auto query = ParseQuery("q(x) :- teaches(x, y), Course(y)", &vocab, &error);
  ASSERT_TRUE(query.has_value()) << error;
  RewritingContext ctx(tbox);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult rewriting_rw = RewriteOmqOrError(&ctx, *query, RewriterKind::kLin, options);
  OWLQR_CHECK_MSG(rewriting_rw.ok(), rewriting_rw.status.message().c_str());
  NdlProgram rewriting = std::move(rewriting_rw.program);
  NdlProgram unfolded = UnfoldThroughMapping(rewriting, mapping);
  DataInstance empty(&vocab);
  Evaluator eval(unfolded, DataSnapshot::FromInstance(empty, &tables));
  auto answers = eval.Run({}).answers;
  ASSERT_EQ(answers.size(), 2u);  // ann (anonymous course) and bob.
}

TEST(MappingParserTest, Errors) {
  Vocabulary vocab;
  TableStore tables(&vocab);
  GavMapping mapping(&vocab, &tables);
  std::string error;
  EXPECT_FALSE(ParseMapping("Professor(x) staff(x)", &mapping, &error));
  EXPECT_FALSE(ParseMapping("P(x, y, z) <- t(x, y, z)", &mapping, &error));
  EXPECT_FALSE(ParseMapping("P(\"c\") <- t(x)", &mapping, &error));
  EXPECT_FALSE(ParseMapping("P(x) <- ", &mapping, &error));
  EXPECT_FALSE(ParseMapping("P(x) <- t(y)", &mapping, &error));  // x unbound.
  EXPECT_FALSE(
      ParseMapping("P(x) <- t(x)\nQ(x) <- t(x, x)", &mapping, &error));
  EXPECT_FALSE(ParseMapping("P(x) <- t(x, 'unterminated", &mapping, &error));
}

TEST(MappingParserTest, QuotedConstantsAndSharedVariables) {
  Vocabulary vocab;
  TableStore tables(&vocab);
  GavMapping mapping(&vocab, &tables);
  std::string error;
  ASSERT_TRUE(ParseMapping(
      "knows(x, y) <- meet(x, y, 'paris'), meet(y, x, \"paris\")",
      &mapping, &error)) << error;
  const MappingRule& rule = mapping.rules()[0];
  EXPECT_FALSE(rule.is_concept);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_TRUE(rule.body[0].args[2].is_constant);
  EXPECT_EQ(rule.body[0].args[2].value, vocab.FindIndividual("paris"));
  // x and y are shared across the two atoms.
  EXPECT_EQ(rule.body[0].args[0].value, rule.body[1].args[1].value);
}

}  // namespace
}  // namespace owlqr
