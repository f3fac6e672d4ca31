#include <gtest/gtest.h>

#include "chase/certain_answers.h"
#include "core/mapping.h"
#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/parser.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

// A relational HR database mapped to a university ontology.
struct ObdaSetup {
  Vocabulary vocab;
  TBox tbox{&vocab};
  TableStore tables{&vocab};
  std::unique_ptr<GavMapping> mapping;
  ConjunctiveQuery query{&vocab};

  ObdaSetup() {
    std::string error;
    OWLQR_CHECK(ParseTBox(R"(
        Professor SUB EX teaches
        EX teaches- SUB Course
        Dean SUB Professor
    )",
                          &tbox, &error));
    tbox.Normalize();

    // Source schema: staff(person, position), courses(course, lecturer).
    int staff = tables.AddTable("staff", 2);
    int courses = tables.AddTable("courses", 2);
    tables.AddRow("staff", {"ann", "professor"});
    tables.AddRow("staff", {"dana", "dean"});
    tables.AddRow("staff", {"eve", "admin"});
    tables.AddRow("courses", {"algebra", "bob"});

    mapping = std::make_unique<GavMapping>(&vocab, &tables);
    int prof_pos = vocab.FindIndividual("professor");
    int dean_pos = vocab.FindIndividual("dean");
    // Professor(x) <- staff(x, 'professor').
    mapping->AddConceptRule(
        vocab.InternConcept("Professor"), 0,
        {{staff, {Term::Var(0), Term::Const(prof_pos)}}});
    // Dean(x) <- staff(x, 'dean').
    mapping->AddConceptRule(vocab.InternConcept("Dean"), 0,
                            {{staff, {Term::Var(0), Term::Const(dean_pos)}}});
    // teaches(x, y) <- courses(y, x).
    mapping->AddRoleRule(vocab.InternPredicate("teaches"), 1, 0,
                         {{courses, {Term::Var(0), Term::Var(1)}}});

    auto parsed =
        ParseQuery("q(x) :- teaches(x, y), Course(y)", &vocab, &error);
    OWLQR_CHECK(parsed.has_value());
    query = std::move(*parsed);
  }
};

TEST(MappingTest, MaterializeMapping) {
  ObdaSetup s;
  DataInstance virtual_abox = MaterializeMapping(*s.mapping, s.tables);
  EXPECT_TRUE(virtual_abox.HasConceptAssertion(
      s.vocab.FindConcept("Professor"), s.vocab.FindIndividual("ann")));
  EXPECT_TRUE(virtual_abox.HasConceptAssertion(
      s.vocab.FindConcept("Dean"), s.vocab.FindIndividual("dana")));
  EXPECT_FALSE(virtual_abox.HasConceptAssertion(
      s.vocab.FindConcept("Professor"), s.vocab.FindIndividual("eve")));
  EXPECT_TRUE(virtual_abox.HasRoleAssertion(
      s.vocab.FindPredicate("teaches"), s.vocab.FindIndividual("bob"),
      s.vocab.FindIndividual("algebra")));
  // 'admin' rows map to nothing; position constants are data, not ABox.
  EXPECT_EQ(virtual_abox.NumAtoms(), 3);
}

TEST(MappingTest, UnfoldingAvoidsMaterialisation) {
  ObdaSetup s;
  RewritingContext ctx(s.tbox);
  // The classical pipeline: materialise M(D) and evaluate the rewriting.
  DataInstance virtual_abox = MaterializeMapping(*s.mapping, s.tables);
  RewriteOptions options;
  options.arbitrary_instances = true;
  for (RewriterKind kind : {RewriterKind::kLin, RewriterKind::kLog,
                            RewriterKind::kTwStar, RewriterKind::kUcq}) {
    RewriteResult rewriting_rw = RewriteOmqOrError(&ctx, s.query, kind, options);
    OWLQR_CHECK_MSG(rewriting_rw.ok(), rewriting_rw.status.message().c_str());
    NdlProgram rewriting = std::move(rewriting_rw.program);
    Evaluator over_abox(rewriting, DataSnapshot::FromInstance(virtual_abox));
    auto expected = over_abox.Run({}).answers;

    // The unfolded pipeline: evaluate directly over the source tables.
    NdlProgram unfolded = UnfoldThroughMapping(rewriting, *s.mapping);
    ASSERT_TRUE(unfolded.IsNonrecursive());
    DataInstance empty(&s.vocab);
    Evaluator over_tables(unfolded,
                          DataSnapshot::FromInstance(empty, &s.tables));
    EXPECT_EQ(over_tables.Run({}).answers, expected) << RewriterName(kind);

    // And both agree with the reference engine over M(D): ann and dana get
    // anonymous courses, bob a real one.
    auto reference = ComputeCertainAnswers(s.tbox, s.query, virtual_abox);
    EXPECT_EQ(expected, reference.answers) << RewriterName(kind);
    EXPECT_EQ(reference.answers.size(), 3u);
  }
}

TEST(MappingTest, UnmappedPredicatesAreEmpty) {
  ObdaSetup s;
  RewritingContext ctx(s.tbox);
  std::string error;
  // "supervises" has no mapping rule: no answers, no crash.
  auto q = ParseQuery("q(x) :- supervises(x, y)", &s.vocab, &error);
  ASSERT_TRUE(q.has_value()) << error;
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult rewriting_rw = RewriteOmqOrError(&ctx, *q, RewriterKind::kTw, options);
  OWLQR_CHECK_MSG(rewriting_rw.ok(), rewriting_rw.status.message().c_str());
  NdlProgram rewriting = std::move(rewriting_rw.program);
  NdlProgram unfolded = UnfoldThroughMapping(rewriting, *s.mapping);
  DataInstance empty(&s.vocab);
  Evaluator eval(unfolded, DataSnapshot::FromInstance(empty, &s.tables));
  EXPECT_TRUE(eval.Run({}).answers.empty());
}

}  // namespace
}  // namespace owlqr
