#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/rewriters.h"
#include "data/table_store.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

// Evaluates `program` over `snapshot` on `threads` workers (1: sequential).
ExecuteResult RunOn(const NdlProgram& program,
                    std::shared_ptr<const DataSnapshot> snapshot,
                    int threads) {
  ExecuteRequest request;
  request.num_threads = threads;
  return Evaluator(program, std::move(snapshot)).Run(request);
}

TEST(TopologicalLevelsTest, LevelsAreDependenceRanks) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int a = program.AddIdbPredicate("A1", 2);
  int b = program.AddIdbPredicate("B1", 2);
  int g = program.AddIdbPredicate("G", 2);
  for (int pred : {a, b}) {
    NdlClause c;
    c.head = {pred, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
  }
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({a, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({b, {Term::Var(2), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  auto levels = program.TopologicalLevels();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].size(), 2u);  // A1 and B1 are independent.
  EXPECT_EQ(levels[1], std::vector<int>{g});
}

class ParallelAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ParallelAgreement, ParallelMatchesSequential) {
  int threads = GetParam();
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  std::mt19937_64 rng(500 + threads);
  DatasetConfig config{"p", 80, 0.1, 0.1, 99};
  DataInstance data = GenerateDataset(&vocab, *tbox, config);
  auto snapshot = DataSnapshot::FromInstance(data);

  for (int seq = 0; seq < 3; ++seq) {
    std::string word(std::vector<const char*>{kSequence1, kSequence2, kSequence3}[seq], 0, 8);
    ConjunctiveQuery q = SequenceQuery(&vocab, word);
    for (RewriterKind kind :
         {RewriterKind::kLog, RewriterKind::kTw, RewriterKind::kUcq}) {
      RewriteOptions options;
      options.arbitrary_instances = true;
      RewriteResult program_rw = RewriteOmqOrError(&ctx, q, kind, options);
      OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
      NdlProgram program = std::move(program_rw.program);
      const ExecuteResult sequential = RunOn(program, snapshot, 1);
      const ExecuteResult parallel = RunOn(program, snapshot, threads);
      EXPECT_EQ(parallel.answers, sequential.answers)
          << RewriterName(kind) << " seq " << seq << " threads " << threads;
      EXPECT_EQ(sequential.stats.goal_tuples, parallel.stats.goal_tuples);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelAgreement,
                         ::testing::Values(1, 2, 4, 8));

// Regression for the kTableEdb pre-materialisation race: a mapped
// (TableStore-backed) program whose first dependence level is wide enough
// that >= 4 workers race to read and index the shared table EDB.  Run under
// ThreadSanitizer (ctest -L sanitize in an OWLQR_SANITIZE=thread build)
// this proves the snapshot's frozen table rows and its shared index cache
// are safe to hit from every worker at once.
TEST(ParallelRegressionTest, TableEdbIsPreMaterialized) {
  Vocabulary vocab;
  DataInstance empty(&vocab);
  TableStore tables(&vocab);
  int edges = tables.AddTable("edges", 2);
  // Big enough that level-1 workers genuinely overlap (a tiny workload lets
  // the first worker drain the whole level before the second even spawns,
  // which would hide the historical race from TSan).
  constexpr int kNodes = 400;
  for (int i = 0; i < kNodes; ++i) {
    for (int d : {3, 11, 17}) {
      tables.AddRow(edges,
                    {vocab.InternIndividual("n" + std::to_string(i)),
                     vocab.InternIndividual(
                         "n" + std::to_string((i * 7 + d) % kNodes))});
    }
  }

  NdlProgram program(&vocab);
  int t = program.AddTablePredicate("edges", 2, edges);
  int goal = program.AddIdbPredicate("G", 2);
  // Many independent level-1 predicates, each joining the table with
  // itself (forcing concurrent reads + GetIndex on the same predicate).
  for (int k = 0; k < 24; ++k) {
    int p = program.AddIdbPredicate("P" + std::to_string(k), 2);
    NdlClause c;
    c.head = {p, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({t, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({t, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
    NdlClause g;
    g.head = {goal, {Term::Var(0), Term::Var(1)}};
    g.body.push_back({p, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(g));
  }
  program.SetGoal(goal);

  auto snapshot = DataSnapshot::FromInstance(empty, &tables);
  const ExecuteResult sequential = RunOn(program, snapshot, 1);
  EXPECT_FALSE(sequential.answers.empty());
  for (int threads : {4, 8}) {
    const ExecuteResult parallel = RunOn(program, snapshot, threads);
    EXPECT_EQ(parallel.answers, sequential.answers) << "threads " << threads;
    EXPECT_EQ(sequential.stats.goal_tuples, parallel.stats.goal_tuples);
  }
}

// Regression for the lazy ActiveDomain race: the only active-domain use is
// the both-variables-open equality path, reached concurrently by several
// level-1 predicates.  The domain must be complete before workers start —
// it is frozen in the snapshot, table cells included.
TEST(ParallelRegressionTest, AdomViaOpenEqualityIsEager) {
  Vocabulary vocab;
  DataInstance data(&vocab);
  for (int i = 0; i < 1500; ++i) {
    data.AddIndividual("a" + std::to_string(i));
  }
  TableStore tables(&vocab);
  int names = tables.AddTable("names", 1);
  for (int i = 0; i < 500; ++i) {
    tables.AddRow(names, {vocab.InternIndividual("t" + std::to_string(i))});
  }

  NdlProgram program(&vocab);
  int eq = program.EqualityPredicate();
  int goal = program.AddIdbPredicate("G", 2);
  for (int k = 0; k < 24; ++k) {
    int p = program.AddIdbPredicate("E" + std::to_string(k), 2);
    NdlClause c;  // E_k(x, y) <- x = y, both open: enumerates adom.
    c.head = {p, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({eq, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(c));
    NdlClause g;
    g.head = {goal, {Term::Var(0), Term::Var(1)}};
    g.body.push_back({p, {Term::Var(0), Term::Var(1)}});
    program.AddClause(std::move(g));
  }
  program.SetGoal(goal);

  auto snapshot = DataSnapshot::FromInstance(data, &tables);
  const auto expected = RunOn(program, snapshot, 1).answers;
  // adom = 1500 ABox individuals + 500 table cells.
  EXPECT_EQ(expected.size(), 2000u);
  for (int threads : {4, 8}) {
    EXPECT_EQ(RunOn(program, snapshot, threads).answers, expected)
        << "threads " << threads;
  }
}

// Randomized differential check across programs mixing role/concept EDBs,
// table EDBs, equality atoms and adom atoms: a run on k workers must agree
// with the sequential run exactly, including goal_tuples, for k in
// {2, 4, 8}.
TEST(ParallelRegressionTest, RandomizedDifferential) {
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(1234 + seed);
    Vocabulary vocab;
    DataInstance data(&vocab);
    TableStore tables(&vocab);
    std::vector<int> inds;
    for (int i = 0; i < 20; ++i) {
      inds.push_back(vocab.InternIndividual("i" + std::to_string(i)));
      data.AddIndividual(inds.back());
    }
    int concept_id = vocab.InternConcept("C");
    int role = vocab.InternPredicate("R");
    for (int i = 0; i < 15; ++i) {
      data.AddConceptAssertion(concept_id, inds[rng() % inds.size()]);
      data.AddRoleAssertion(role, inds[rng() % inds.size()],
                            inds[rng() % inds.size()]);
    }
    int table = tables.AddTable("T", 2);
    for (int i = 0; i < 12; ++i) {
      tables.AddRow(table, {inds[rng() % inds.size()],
                            inds[rng() % inds.size()]});
    }

    NdlProgram program(&vocab);
    int c_edb = program.AddConceptPredicate(concept_id);
    int r_edb = program.AddRolePredicate(role);
    int t_edb = program.AddTablePredicate("T", 2, table);
    int eq = program.EqualityPredicate();
    int adom = program.AdomPredicate();

    // Three levels of binary IDB predicates; clause bodies draw from the
    // EDBs, equality, adom, and strictly earlier IDB predicates.
    std::vector<int> idbs;
    for (int layer = 0; layer < 3; ++layer) {
      int width = 2 + static_cast<int>(rng() % 3);
      std::vector<int> layer_preds;
      for (int k = 0; k < width; ++k) {
        int p = program.AddIdbPredicate(
            "P" + std::to_string(layer) + "_" + std::to_string(k), 2);
        NdlClause c;
        c.head = {p, {Term::Var(0), Term::Var(1)}};
        // Anchor atom guaranteeing head safety.
        switch (rng() % 3) {
          case 0:
            c.body.push_back({r_edb, {Term::Var(0), Term::Var(1)}});
            break;
          case 1:
            c.body.push_back({t_edb, {Term::Var(0), Term::Var(1)}});
            break;
          default:
            if (idbs.empty()) {
              c.body.push_back({r_edb, {Term::Var(0), Term::Var(1)}});
            } else {
              c.body.push_back(
                  {static_cast<int>(idbs[rng() % idbs.size()]),
                   {Term::Var(0), Term::Var(1)}});
            }
            break;
        }
        // 0-2 extra atoms over vars {0, 1, 2}.
        int extras = static_cast<int>(rng() % 3);
        for (int e = 0; e < extras; ++e) {
          int v1 = static_cast<int>(rng() % 3);
          int v2 = static_cast<int>(rng() % 3);
          switch (rng() % 5) {
            case 0:
              c.body.push_back({c_edb, {Term::Var(v1)}});
              break;
            case 1:
              c.body.push_back({r_edb, {Term::Var(v1), Term::Var(v2)}});
              break;
            case 2:
              c.body.push_back({t_edb, {Term::Var(v1), Term::Var(v2)}});
              break;
            case 3:
              c.body.push_back({eq, {Term::Var(v1), Term::Var(v2)}});
              break;
            default:
              c.body.push_back({adom, {Term::Var(v1)}});
              break;
          }
        }
        program.AddClause(std::move(c));
        layer_preds.push_back(p);
      }
      idbs.insert(idbs.end(), layer_preds.begin(), layer_preds.end());
    }
    int goal = program.AddIdbPredicate("Goal", 2);
    for (int src : idbs) {
      if (rng() % 2 == 0 || src == idbs.back()) {
        NdlClause g;
        g.head = {goal, {Term::Var(0), Term::Var(1)}};
        g.body.push_back({src, {Term::Var(0), Term::Var(1)}});
        program.AddClause(std::move(g));
      }
    }
    program.SetGoal(goal);
    ASSERT_TRUE(program.IsNonrecursive());

    auto snapshot = DataSnapshot::FromInstance(data, &tables);
    const ExecuteResult sequential = RunOn(program, snapshot, 1);
    for (int threads : {2, 4, 8}) {
      const ExecuteResult parallel = RunOn(program, snapshot, threads);
      EXPECT_EQ(parallel.answers, sequential.answers)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(sequential.stats.goal_tuples, parallel.stats.goal_tuples)
          << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace owlqr
