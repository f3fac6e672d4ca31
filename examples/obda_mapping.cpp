// The full OBDA pipeline of the paper's introduction: a relational source
// database D, a GAV mapping M into the ontology vocabulary, and an
// ontology-mediated query answered two ways —
//   (1) materialise the virtual ABox M(D) and evaluate the rewriting, and
//   (2) unfold the rewriting through M and evaluate directly over D
//       ("so there is no need to materialise M(D)").
//
//   $ ./example_obda_mapping

#include <cstdio>

#include "core/mapping.h"
#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/parser.h"
#include "util/logging.h"
#include <utility>

int main() {
  using namespace owlqr;

  Vocabulary vocab;
  TBox tbox(&vocab);
  std::string error;
  if (!ParseTBox(R"(
        Professor SUB EX teaches
        EX teaches- SUB Course
        Dean SUB Professor
      )",
                 &tbox, &error)) {
    std::fprintf(stderr, "ontology: %s\n", error.c_str());
    return 1;
  }
  tbox.Normalize();

  // The source database: a plain HR schema that knows nothing about the
  // ontology.
  TableStore tables(&vocab);
  int staff = tables.AddTable("staff", 2);     // (person, position)
  int courses = tables.AddTable("courses", 2); // (course, lecturer)
  tables.AddRow("staff", {"ann", "professor"});
  tables.AddRow("staff", {"dana", "dean"});
  tables.AddRow("staff", {"eve", "admin"});
  tables.AddRow("courses", {"algebra", "bob"});
  tables.AddRow("courses", {"logic", "ann"});

  // The GAV mapping M.
  GavMapping mapping(&vocab, &tables);
  mapping.AddConceptRule(
      vocab.InternConcept("Professor"), 0,
      {{staff,
        {Term::Var(0), Term::Const(vocab.InternIndividual("professor"))}}});
  mapping.AddConceptRule(
      vocab.InternConcept("Dean"), 0,
      {{staff, {Term::Var(0), Term::Const(vocab.InternIndividual("dean"))}}});
  mapping.AddRoleRule(vocab.InternPredicate("teaches"), 1, 0,
                      {{courses, {Term::Var(0), Term::Var(1)}}});

  auto query = ParseQuery("q(x) :- teaches(x, y), Course(y)", &vocab, &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "query: %s\n", error.c_str());
    return 1;
  }

  RewritingContext ctx(tbox);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult rewriting_rw = RewriteOmqOrError(&ctx, *query, RewriterKind::kTwStar, options);
  OWLQR_CHECK_MSG(rewriting_rw.ok(), rewriting_rw.status.message().c_str());
  NdlProgram rewriting = std::move(rewriting_rw.program);

  // Pipeline (1): materialise M(D).
  DataInstance virtual_abox = MaterializeMapping(mapping, tables);
  std::printf("virtual ABox M(D): %ld atoms\n%s\n", virtual_abox.NumAtoms(),
              virtual_abox.ToString().c_str());
  auto via_materialisation =
      Evaluator(rewriting, DataSnapshot::FromInstance(virtual_abox))
          .Run({})
          .answers;

  // Pipeline (2): unfold and evaluate over the raw tables.
  NdlProgram unfolded = UnfoldThroughMapping(rewriting, mapping);
  std::printf("unfolded rewriting over the source schema:\n%s\n",
              unfolded.ToString().c_str());
  DataInstance empty(&vocab);
  auto via_unfolding =
      Evaluator(unfolded, DataSnapshot::FromInstance(empty, &tables))
          .Run({})
          .answers;

  std::printf("answers via materialised M(D):");
  for (const auto& t : via_materialisation) {
    std::printf(" %s", vocab.IndividualName(t[0]).c_str());
  }
  std::printf("\nanswers via mapping unfolding: ");
  for (const auto& t : via_unfolding) {
    std::printf(" %s", vocab.IndividualName(t[0]).c_str());
  }
  std::printf("\nagree: %s\n",
              via_materialisation == via_unfolding ? "yes" : "NO (bug!)");
  return via_materialisation == via_unfolding ? 0 : 1;
}
