// Differential tests for the dependency-DAG scheduler and the intra-clause
// morsel fan-out: answers and per-predicate tuple counts must be identical
// whether a program is evaluated sequentially, by the DAG scheduler with
// the default morsel threshold, or with the threshold forced low enough
// that every sizeable clause splits into morsels.  Part of the `sanitize`
// binary, so TSan/ASan builds exercise the shard-merge path directly.

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
// relations of earlier layers (or the EDB), so middle layers have row
// counts well above a small morsel threshold and the goal depends on a
// genuine DAG rather than a chain.
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
                    std::shared_ptr<const DataSnapshot> snapshot, int threads,
                    const EvaluatorLimits& limits = {}) {
  ExecuteRequest request;
  request.limits = limits;
  request.num_threads = threads;
  return Evaluator(program, std::move(snapshot)).Run(request);
}

// Sequential, DAG-scheduled, and morsel-forced evaluation must produce the
// same sorted answers and the same per-predicate tuple counts, at every
// thread count.
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
      // DAG scheduler with the default morsel threshold (rarely splits at
      // this scale: exercises pure inter-predicate parallelism).
      const ExecuteResult dag = RunOn(program, snapshot, threads);
      EXPECT_EQ(dag.answers, seq.answers)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(dag.stats.predicate_tuples, seq.stats.predicate_tuples)
          << "seed " << seed << " threads " << threads;

      // Morsel threshold forced low: every clause whose driver scans more
      // than 16 rows fans out into shards that the owner merges.
      EvaluatorLimits limits;
      limits.morsel_rows = 16;
      const ExecuteResult morsel = RunOn(program, snapshot, threads, limits);
      EXPECT_EQ(morsel.answers, seq.answers)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(morsel.stats.predicate_tuples, seq.stats.predicate_tuples)
          << "seed " << seed << " threads " << threads;
      if (threads > 1) {
        EXPECT_GE(morsel.stats.morsels, morsel.stats.morsel_batches);
      }
    }
  }
}

// A program whose only task is one heavy scan-driven clause: the scheduler
// has nothing else to hand the other workers, so the clause must fan out
// into morsels (>= 2, since the driver far exceeds morsel_rows) and the
// merged result must match the sequential answer.
TEST(SchedulerMorselTest, SingleHeavyTaskFansOut) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  std::mt19937_64 rng(4242);
  DataInstance data = RandomGraph(&vocab, &rng, 60, 1200);
  auto snapshot = DataSnapshot::FromInstance(data);

  const ExecuteResult seq = RunOn(program, snapshot, 1);

  EvaluatorLimits limits;
  limits.morsel_rows = 64;
  const ExecuteResult parallel = RunOn(program, snapshot, 4, limits);
  const EvaluationStats& stats = parallel.stats;
  EXPECT_EQ(parallel.answers, seq.answers);
  EXPECT_EQ(stats.predicate_tuples, seq.stats.predicate_tuples);
  EXPECT_EQ(stats.scheduler_tasks, 1);
  EXPECT_GE(stats.morsel_batches, 1);
  EXPECT_GE(stats.morsels, 2);
}

// Work stealing: carve the driver into one dominating morsel plus a tiny
// remainder.  The worker that drew the remainder goes idle almost
// immediately and must split the straggler's published range instead of
// waiting at the helpers barrier — observable as stats.steals > 0.  The
// exact interleaving is up to the OS scheduler, so the test retries a few
// rounds and requires at least one steal overall (each round also
// differential-checks the answers, so a round without a steal still
// verifies the merge).  The tiny batch_rows keeps the steal threshold
// (two chunks) far below the dominating range.
TEST(SchedulerMorselTest, IdleWorkerStealsFromDominatingRange) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  // A complete digraph on 100 vertices: exactly 10000 driver rows (the
  // random generator dedups below the fan-out threshold), 100-way fanout.
  DataInstance data(&vocab);
  std::vector<int> inds;
  for (int i = 0; i < 100; ++i) {
    inds.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 100; ++j) {
      data.AddRoleAssertion(vocab.InternPredicate("R"), inds[i], inds[j]);
    }
  }

  auto snapshot = DataSnapshot::FromInstance(data);
  const ExecuteResult seq = RunOn(program, snapshot, 1);

  long steals = 0;
  for (int round = 0; round < 8 && steals == 0; ++round) {
    EvaluatorLimits limits;
    limits.morsel_rows = 9992;  // One dominating morsel + an 8-row stub.
    limits.batch_rows = 32;     // Chunk size; steals need >= 2 chunks left.
    const ExecuteResult parallel = RunOn(program, snapshot, 4, limits);
    ASSERT_EQ(parallel.answers, seq.answers) << "round " << round;
    ASSERT_EQ(parallel.stats.predicate_tuples, seq.stats.predicate_tuples)
        << "round " << round;
    steals += parallel.stats.steals;
  }
  EXPECT_GT(steals, 0)
      << "no idle worker ever stole from the dominating driver range";
}

}  // namespace
}  // namespace owlqr
