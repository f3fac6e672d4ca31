// A realistic OBDA scenario in the style the paper's introduction motivates:
// a finite-depth university ontology (cf. the NPD FactPages ontology of
// depth 5 cited in Section 6), a generated "database", and several
// tree-shaped user queries answered through the optimal NDL rewritings.
//
//   $ ./example_university_obda

#include <chrono>
#include <cstdio>
#include <random>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/parser.h"
#include "util/logging.h"
#include <utility>

namespace {

using namespace owlqr;
using Clock = std::chrono::steady_clock;

DataInstance GenerateUniversity(Vocabulary* vocab, int departments,
                                int professors_per_dept, uint64_t seed) {
  DataInstance data(vocab);
  std::mt19937_64 rng(seed);
  int member_of = vocab->InternPredicate("memberOf");
  int lectures = vocab->InternPredicate("lectures");
  int enrolled_in = vocab->InternPredicate("enrolledIn");
  int professor = vocab->InternConcept("Professor");
  int dean = vocab->InternConcept("Dean");
  int student = vocab->InternConcept("Student");

  for (int d = 0; d < departments; ++d) {
    int dept = vocab->InternIndividual("dept" + std::to_string(d));
    for (int p = 0; p < professors_per_dept; ++p) {
      int prof = vocab->InternIndividual("prof_" + std::to_string(d) + "_" +
                                         std::to_string(p));
      data.AddConceptAssertion(professor, prof);
      if (p == 0) data.AddConceptAssertion(dean, prof);
      data.AddRoleAssertion(member_of, prof, dept);
      // Half of the professors have explicit courses; the other half only
      // the ontology's existential ones.
      if (rng() % 2 == 0) {
        int course = vocab->InternIndividual("course_" + std::to_string(d) +
                                             "_" + std::to_string(p));
        data.AddRoleAssertion(lectures, prof, course);
        for (int s = 0; s < 3; ++s) {
          int stu = vocab->InternIndividual(
              "student_" + std::to_string(rng() % 50));
          data.AddConceptAssertion(student, stu);
          data.AddRoleAssertion(enrolled_in, stu, course);
        }
      }
    }
  }
  return data;
}

}  // namespace

int main() {
  Vocabulary vocab;
  TBox tbox(&vocab);
  std::string error;
  // Depth-2 ontology: professors teach courses, courses have enrolments.
  const char* ontology = R"(
      Dean SUB Professor
      Professor SUB Employee
      Professor SUB EX teaches
      lectures SUBR teaches
      EX teaches- SUB Course
      Course SUB EX enrolledIn-
      EX enrolledIn SUB Student
      EX memberOf SUB Employee
      memberOf SUBR affiliatedWith
  )";
  if (!ParseTBox(ontology, &tbox, &error)) {
    std::fprintf(stderr, "ontology error: %s\n", error.c_str());
    return 1;
  }
  tbox.Normalize();
  RewritingContext ctx(tbox);

  DataInstance data = GenerateUniversity(&vocab, 20, 12, /*seed=*/7);
  std::printf("university database: %ld atoms, %d individuals\n\n",
              data.NumAtoms(), data.num_individuals());

  const char* queries[] = {
      // Who teaches a course someone is enrolled in?  (Existential courses
      // contribute answers: the ontology guarantees enrolment.)
      "q(x) :- teaches(x, y), Course(y), enrolledIn(z, y)",
      // Employees affiliated with something (memberOf is a subrole).
      "q(x) :- Employee(x), affiliatedWith(x, d)",
      // A linear 2-leaf chain: dean -> course -> student.
      "q(x, z) :- Dean(x), teaches(x, y), enrolledIn(z, y), Student(z)",
  };

  for (const char* text : queries) {
    auto query = ParseQuery(text, &vocab, &error);
    if (!query.has_value()) {
      std::fprintf(stderr, "query error: %s\n", error.c_str());
      return 1;
    }
    std::printf("query: %s\n", text);
    for (RewriterKind kind : {RewriterKind::kLin, RewriterKind::kLog,
                              RewriterKind::kTwStar}) {
      RewriteOptions options;
      options.arbitrary_instances = true;
      auto t0 = Clock::now();
      RewriteResult program_rw = RewriteOmqOrError(&ctx, *query, kind, options);
      OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
      NdlProgram program = std::move(program_rw.program);
      auto t1 = Clock::now();
      ExecuteResult result =
          Evaluator(program, DataSnapshot::FromInstance(data)).Run({});
      const auto& answers = result.answers;
      const EvaluationStats& stats = result.stats;
      auto t2 = Clock::now();
      std::printf(
          "  %-4s: %3d clauses, %4zu answers, %6ld tuples, "
          "rewrite %.2f ms, eval %.2f ms\n",
          RewriterName(kind), program.num_clauses(), answers.size(),
          stats.generated_tuples,
          std::chrono::duration<double, std::milli>(t1 - t0).count(),
          std::chrono::duration<double, std::milli>(t2 - t1).count());
    }
    std::printf("\n");
  }
  return 0;
}
