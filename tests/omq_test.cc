#include <gtest/gtest.h>

#include "core/omq.h"
#include "engine/engine.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

// The rewriter an engine's auto prepare of (tbox, q) chooses over no data.
RewriterKind AutoKind(const TBox& tbox, const ConjunctiveQuery& q) {
  Engine engine(tbox, DataInstance(q.vocabulary()));
  PrepareResult prepared = engine.Prepare(q);
  EXPECT_TRUE(prepared.ok()) << prepared.status.ToString();
  return prepared.ok() ? prepared.query->kind() : RewriterKind::kPrestoLike;
}

TEST(OmqProfileTest, Example8IsInAllThreeClasses) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRRSRR");
  OmqProfile profile = ProfileOmq(ctx, q);
  EXPECT_EQ(profile.ontology_depth, 1);
  EXPECT_TRUE(profile.tree_shaped);
  EXPECT_EQ(profile.num_leaves, 2);
  EXPECT_EQ(profile.treewidth, 1);
  EXPECT_TRUE(profile.InOmqDT());
  EXPECT_TRUE(profile.InOmqDL());
  EXPECT_TRUE(profile.InOmqL());
  EXPECT_EQ(profile.Complexity(), ComplexityClass::kNl);
  // All four optimal rewriters apply; auto takes one of them.
  RewriterKind kind = AutoKind(*tbox, q);
  EXPECT_TRUE(kind == RewriterKind::kLin || kind == RewriterKind::kLog ||
              kind == RewriterKind::kTw || kind == RewriterKind::kTwStar)
      << RewriterName(kind);
  EXPECT_NE(profile.ToString().find("NL"), std::string::npos);
}

TEST(OmqProfileTest, InfiniteDepthTreeQuery) {
  Vocabulary vocab;
  TBox tbox(&vocab);
  RoleId p = RoleOf(vocab.InternPredicate("P"));
  tbox.AddExistsRhs("A", "P");
  tbox.AddConceptInclusion(BasicConcept::Exists(Inverse(p)),
                           BasicConcept::Exists(p));
  tbox.Normalize();
  RewritingContext ctx(tbox);
  ConjunctiveQuery q(&vocab);
  q.AddBinary("P", "x", "y");
  q.AddBinary("P", "y", "z");
  OmqProfile profile = ProfileOmq(ctx, q);
  EXPECT_FALSE(profile.finite_depth());
  EXPECT_TRUE(profile.InOmqL());
  EXPECT_FALSE(profile.InOmqDL());
  EXPECT_EQ(profile.Complexity(), ComplexityClass::kLogCfl);
  RewriterKind kind = AutoKind(tbox, q);
  EXPECT_TRUE(kind == RewriterKind::kTw || kind == RewriterKind::kTwStar)
      << RewriterName(kind);
}

TEST(OmqProfileTest, CyclicQueryFiniteDepth) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q(&vocab);
  q.AddBinary("R", "x", "y");
  q.AddBinary("R", "y", "z");
  q.AddBinary("R", "z", "x");
  OmqProfile profile = ProfileOmq(ctx, q);
  EXPECT_FALSE(profile.tree_shaped);
  EXPECT_EQ(profile.treewidth, 2);
  EXPECT_TRUE(profile.treewidth_exact);
  EXPECT_EQ(profile.Complexity(), ComplexityClass::kLogCfl);
  EXPECT_EQ(AutoKind(*tbox, q), RewriterKind::kLog);
}

TEST(OmqProfileTest, WorstCaseIsNp) {
  Vocabulary vocab;
  TBox tbox(&vocab);
  RoleId p = RoleOf(vocab.InternPredicate("P"));
  tbox.AddConceptInclusion(BasicConcept::Exists(Inverse(p)),
                           BasicConcept::Exists(p));
  tbox.Normalize();
  RewritingContext ctx(tbox);
  ConjunctiveQuery q(&vocab);
  q.AddBinary("P", "x", "y");
  q.AddBinary("P", "y", "z");
  q.AddBinary("P", "z", "x");
  OmqProfile profile = ProfileOmq(ctx, q);
  EXPECT_EQ(profile.Complexity(), ComplexityClass::kNp);
  EXPECT_EQ(AutoKind(tbox, q), RewriterKind::kUcq);
}

}  // namespace
}  // namespace owlqr
