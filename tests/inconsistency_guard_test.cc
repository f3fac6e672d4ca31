#include <gtest/gtest.h>

#include "chase/certain_answers.h"
#include "core/inconsistency_guard.h"
#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

struct GuardScenario {
  Vocabulary vocab;
  TBox tbox{&vocab};
};

// Builds a guarded Lin rewriting of q(x) :- R(x, y), A(y).
NdlProgram BuildGuarded(GuardScenario* s, RewritingContext* ctx) {
  ConjunctiveQuery q(&s->vocab);
  q.AddBinary("R", "x", "y");
  q.AddUnary("A", "y");
  q.MarkAnswerVariable(q.FindVariable("x"));
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(ctx, q, RewriterKind::kLin, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);
  AddInconsistencyGuard(ctx, &program);
  return program;
}

TEST(InconsistencyGuardTest, ConceptDisjointness) {
  GuardScenario s;
  s.tbox.AddConceptDisjointness(
      BasicConcept::Atomic(s.vocab.InternConcept("Male")),
      BasicConcept::Atomic(s.vocab.InternConcept("Female")));
  s.vocab.InternPredicate("R");
  s.vocab.InternConcept("A");
  s.tbox.Normalize();
  RewritingContext ctx(s.tbox);
  NdlProgram program = BuildGuarded(&s, &ctx);

  DataInstance consistent(&s.vocab);
  consistent.Assert("R", "a", "b");
  consistent.Assert("A", "b");
  consistent.Assert("Male", "a");
  EXPECT_TRUE(IsConsistent(s.tbox, consistent));
  Evaluator e1(program, DataSnapshot::FromInstance(consistent));
  EXPECT_EQ(e1.Run({}).answers.size(), 1u);  // Just {a}.

  DataInstance inconsistent(&s.vocab);
  inconsistent.Assert("R", "a", "b");
  inconsistent.Assert("Male", "c");
  inconsistent.Assert("Female", "c");
  EXPECT_FALSE(IsConsistent(s.tbox, inconsistent));
  Evaluator e2(program, DataSnapshot::FromInstance(inconsistent));
  // Every individual becomes an answer.
  EXPECT_EQ(e2.Run({}).answers.size(),
            static_cast<size_t>(inconsistent.num_individuals()));
}

TEST(InconsistencyGuardTest, DerivedConceptClash) {
  GuardScenario s;
  s.tbox.AddAtomicInclusion("Dog", "Animal");
  s.tbox.AddConceptDisjointness(
      BasicConcept::Atomic(s.vocab.FindConcept("Animal")),
      BasicConcept::Atomic(s.vocab.InternConcept("Plant")));
  s.vocab.InternPredicate("R");
  s.vocab.InternConcept("A");
  s.tbox.Normalize();
  RewritingContext ctx(s.tbox);
  NdlProgram program = BuildGuarded(&s, &ctx);

  DataInstance data(&s.vocab);
  data.Assert("R", "a", "b");
  data.Assert("Dog", "b");
  data.Assert("Plant", "b");
  EXPECT_FALSE(IsConsistent(s.tbox, data));
  Evaluator eval(program, DataSnapshot::FromInstance(data));
  EXPECT_EQ(eval.Run({}).answers.size(), 2u);
}

TEST(InconsistencyGuardTest, AnonymousClash) {
  // B <= exists T with exists T^- entailing two disjoint concepts: any
  // B-individual makes the KB inconsistent through the anonymous part.
  GuardScenario s;
  RoleId t = RoleOf(s.vocab.InternPredicate("T"));
  s.tbox.AddExistsRhs("B", "T");
  s.tbox.AddConceptInclusion(BasicConcept::Exists(Inverse(t)),
                             BasicConcept::Atomic(s.vocab.InternConcept("C1")));
  s.tbox.AddConceptInclusion(BasicConcept::Exists(Inverse(t)),
                             BasicConcept::Atomic(s.vocab.InternConcept("C2")));
  s.tbox.AddConceptDisjointness(
      BasicConcept::Atomic(s.vocab.FindConcept("C1")),
      BasicConcept::Atomic(s.vocab.FindConcept("C2")));
  s.vocab.InternPredicate("R");
  s.vocab.InternConcept("A");
  s.tbox.Normalize();
  RewritingContext ctx(s.tbox);
  NdlProgram program = BuildGuarded(&s, &ctx);

  DataInstance no_b(&s.vocab);
  no_b.Assert("R", "a", "b");
  no_b.Assert("A", "b");
  EXPECT_TRUE(IsConsistent(s.tbox, no_b));
  Evaluator e1(program, DataSnapshot::FromInstance(no_b));
  EXPECT_EQ(e1.Run({}).answers.size(), 1u);

  DataInstance with_b = no_b;
  with_b.Assert("B", "c");
  EXPECT_FALSE(IsConsistent(s.tbox, with_b));
  Evaluator e2(program, DataSnapshot::FromInstance(with_b));
  EXPECT_EQ(e2.Run({}).answers.size(), 3u);
}

TEST(InconsistencyGuardTest, RoleDisjointnessAndIrreflexivity) {
  GuardScenario s;
  int p = s.vocab.InternPredicate("P");
  int q_pred = s.vocab.InternPredicate("Q");
  s.tbox.AddRoleDisjointness(RoleOf(p), RoleOf(q_pred));
  s.tbox.AddIrreflexivity(RoleOf(p));
  s.vocab.InternPredicate("R");
  s.vocab.InternConcept("A");
  s.tbox.Normalize();
  RewritingContext ctx(s.tbox);
  NdlProgram program = BuildGuarded(&s, &ctx);

  DataInstance overlap(&s.vocab);
  overlap.Assert("P", "a", "b");
  overlap.Assert("Q", "a", "b");
  EXPECT_FALSE(IsConsistent(s.tbox, overlap));
  Evaluator e1(program, DataSnapshot::FromInstance(overlap));
  EXPECT_EQ(e1.Run({}).answers.size(), 2u);

  DataInstance loop(&s.vocab);
  loop.Assert("P", "a", "a");
  loop.Assert("R", "a", "b");
  EXPECT_FALSE(IsConsistent(s.tbox, loop));
  Evaluator e2(program, DataSnapshot::FromInstance(loop));
  EXPECT_EQ(e2.Run({}).answers.size(), 2u);

  DataInstance fine(&s.vocab);
  fine.Assert("P", "a", "b");
  fine.Assert("Q", "b", "a");
  EXPECT_TRUE(IsConsistent(s.tbox, fine));
  Evaluator e3(program, DataSnapshot::FromInstance(fine));
  EXPECT_TRUE(e3.Run({}).answers.empty());
}

}  // namespace
}  // namespace owlqr
