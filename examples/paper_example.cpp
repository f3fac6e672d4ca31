// The paper's running example (Examples 8 and 11, Appendix A.6): the linear
// query q(x0, x7) = R S R R S R R over the ontology
//     P(x,y) -> S(x,y),  P(x,y) -> R(y,x),
// with all rewritings printed side by side — the "rewritings zoo".
//
//   $ ./example_paper_example

#include <cstdio>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

int main() {
  using namespace owlqr;

  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery query = SequenceQuery(&vocab, "RSRRSRR");
  std::printf("query:    %s\n", query.ToString().c_str());
  std::printf("ontology: P SUBR S, P SUBR R- (+ normalization)\n");
  std::printf("ontology depth: %d\n\n", ctx.depth());

  for (RewriterKind kind :
       {RewriterKind::kUcq, RewriterKind::kLog, RewriterKind::kLin,
        RewriterKind::kTw, RewriterKind::kTwStar}) {
    RewriteResult program_rw = RewriteOmqOrError(&ctx, query, kind);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    std::printf("=== %s rewriting (%d clauses, depth %d, width %d) ===\n%s\n",
                RewriterName(kind), program.num_clauses(), program.Depth(),
                program.Width(), program.ToString().c_str());
  }

  // Evaluate over the tiny instance from the rewriter test: R(c0,c1),
  // A[P](c1), R(c1,c4), A[P](c4), R(c4,c7) — the two A[P] facts stand in for
  // the anonymous P-successors that cover the two  R S R  segments.
  DataInstance data(&vocab);
  data.Assert("R", "c0", "c1");
  data.Assert("R", "c1", "c4");
  data.Assert("R", "c4", "c7");
  int a_p = tbox->ExistsConcept(RoleOf(vocab.FindPredicate("P")));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("c1"));
  data.AddConceptAssertion(a_p, vocab.FindIndividual("c4"));

  std::printf("data:\n%s\n", data.ToString().c_str());
  for (RewriterKind kind :
       {RewriterKind::kUcq, RewriterKind::kLog, RewriterKind::kLin,
        RewriterKind::kTw, RewriterKind::kTwStar}) {
    RewriteOptions options;
    options.arbitrary_instances = true;
    RewriteResult program_rw = RewriteOmqOrError(&ctx, query, kind, options);
    OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
    NdlProgram program = std::move(program_rw.program);
    auto answers =
        Evaluator(program, DataSnapshot::FromInstance(data)).Run({}).answers;
    std::printf("%-4s answers:", RewriterName(kind));
    for (const auto& t : answers) {
      std::printf(" (%s, %s)", vocab.IndividualName(t[0]).c_str(),
                  vocab.IndividualName(t[1]).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
