// Differential tests for the dependency-DAG scheduler: answers and
// per-predicate tuple counts must be identical whether a program is
// evaluated sequentially or by the DAG scheduler at any worker count.  Part
// of the `sanitize` binary, so TSan/ASan builds exercise the scheduler
// directly.  (The file and suite names predate the removal of intra-clause
// morsel fan-out; they are kept so the test ids stay stable.)

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"

namespace owlqr {
namespace {

// A dense-ish random role over `n` individuals with `edges` assertions.
DataInstance RandomGraph(Vocabulary* vocab, std::mt19937_64* rng, int n,
                         int edges) {
  DataInstance data(vocab);
  int r = vocab->InternPredicate("R");
  int c = vocab->InternConcept("C");
  std::vector<int> inds;
  for (int i = 0; i < n; ++i) {
    inds.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  for (int i = 0; i < edges; ++i) {
    data.AddRoleAssertion(r, inds[(*rng)() % inds.size()],
                          inds[(*rng)() % inds.size()]);
  }
  for (int i = 0; i < n / 2; ++i) {
    data.AddConceptAssertion(c, inds[(*rng)() % inds.size()]);
  }
  return data;
}

// Random layered program over a role EDB: each layer's predicates join two
// relations of earlier layers (or the EDB), so several tasks are ready at
// once and the goal depends on a genuine DAG rather than a chain.
NdlProgram RandomLayeredProgram(Vocabulary* vocab, std::mt19937_64* rng) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int c = program.AddConceptPredicate(vocab->InternConcept("C"));
  std::vector<int> pool = {r};
  for (int layer = 0; layer < 3; ++layer) {
    int width = 2 + static_cast<int>((*rng)() % 2);
    std::vector<int> layer_preds;
    for (int k = 0; k < width; ++k) {
      int p = program.AddIdbPredicate(
          "L" + std::to_string(layer) + "_" + std::to_string(k), 2);
      NdlClause clause;
      clause.head = {p, {Term::Var(0), Term::Var(1)}};
      int left = pool[(*rng)() % pool.size()];
      int right = pool[(*rng)() % pool.size()];
      clause.body.push_back({left, {Term::Var(0), Term::Var(2)}});
      clause.body.push_back({right, {Term::Var(2), Term::Var(1)}});
      if ((*rng)() % 2 == 0) {
        clause.body.push_back({c, {Term::Var(0)}});
      }
      program.AddClause(std::move(clause));
      layer_preds.push_back(p);
    }
    pool.insert(pool.end(), layer_preds.begin(), layer_preds.end());
  }
  int goal = program.AddIdbPredicate("Goal", 2);
  for (size_t i = 1; i < pool.size(); ++i) {
    if ((*rng)() % 2 == 0 || i + 1 == pool.size()) {
      NdlClause g;
      g.head = {goal, {Term::Var(0), Term::Var(1)}};
      g.body.push_back({pool[i], {Term::Var(0), Term::Var(1)}});
      program.AddClause(std::move(g));
    }
  }
  program.SetGoal(goal);
  return program;
}

// Evaluates `program` over `snapshot` on `threads` workers (1: sequential).
ExecuteResult RunOn(const NdlProgram& program,
                    std::shared_ptr<const DataSnapshot> snapshot, int threads) {
  ExecuteRequest request;
  request.num_threads = threads;
  return Evaluator(program, std::move(snapshot)).Run(request);
}

// Sequential and DAG-scheduled evaluation must produce the same sorted
// answers and the same per-predicate tuple counts, at every thread count.
TEST(SchedulerMorselTest, RandomizedDifferential) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    std::mt19937_64 rng(9000 + seed);
    Vocabulary vocab;
    NdlProgram program = RandomLayeredProgram(&vocab, &rng);
    ASSERT_TRUE(program.IsNonrecursive());
    DataInstance data = RandomGraph(&vocab, &rng, 40, 300);
    auto snapshot = DataSnapshot::FromInstance(data);

    const ExecuteResult seq = RunOn(program, snapshot, 1);

    for (int threads : {1, 2, 8}) {
      const ExecuteResult dag = RunOn(program, snapshot, threads);
      EXPECT_EQ(dag.answers, seq.answers)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(dag.stats.predicate_tuples, seq.stats.predicate_tuples)
          << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace owlqr
