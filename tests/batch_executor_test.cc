// Differential tests for the vector-at-a-time (columnar batch) join
// executor: with batching enabled (any EvaluatorLimits::batch_rows > 0) the
// answers, the deterministic counters and the limit-abort points must all be
// identical to the scalar tuple-at-a-time oracle (batch_rows = 0) — across
// every rewriter kind, random programs covering every batch-step recipe
// (scans, probes under every key mask, equality and adom built-ins,
// constants, repeated variables), IDB truncation at the row
// ceiling, deadline aborts mid-batch, and the semi-naive delta path.  Part
// of the `sanitize` binary, so TSan/ASan builds cover the batch scratch and
// the morsel/steal interaction directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/rewriters.h"
#include "core/rewriting_context.h"
#include "data/data_instance.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

// The stats fields that are deterministic across executor paths (the batch
// tallies themselves differ by design; memory readings depend on scratch).
void ExpectStatsMatch(const EvaluationStats& batch,
                      const EvaluationStats& scalar,
                      const std::string& label) {
  EXPECT_EQ(batch.generated_tuples, scalar.generated_tuples) << label;
  EXPECT_EQ(batch.goal_tuples, scalar.goal_tuples) << label;
  EXPECT_EQ(batch.join_emissions, scalar.join_emissions) << label;
  EXPECT_EQ(batch.predicate_tuples, scalar.predicate_tuples) << label;
  EXPECT_EQ(batch.aborted, scalar.aborted) << label;
  EXPECT_EQ(batch.row_ceiling, scalar.row_ceiling) << label;
}

EvaluatorLimits BatchLimits(long batch_rows) {
  EvaluatorLimits limits;
  limits.batch_rows = batch_rows;
  return limits;
}

// Evaluates `program` over a snapshot freshly frozen from `data`.
ExecuteResult RunWith(const NdlProgram& program, const DataInstance& data,
                      const EvaluatorLimits& limits, int num_threads = 1) {
  ExecuteRequest request;
  request.limits = limits;
  request.num_threads = num_threads;
  return Evaluator(program, DataSnapshot::FromInstance(data)).Run(request);
}

// A small data instance whose individuals double as the constant pool of
// the random programs below.
DataInstance RandomInstance(Vocabulary* vocab, std::mt19937_64* rng, int n,
                            int edges) {
  DataInstance data(vocab);
  int r = vocab->InternPredicate("R");
  int s = vocab->InternPredicate("S");
  int c = vocab->InternConcept("C");
  std::vector<int> inds;
  for (int i = 0; i < n; ++i) {
    inds.push_back(data.AddIndividual("i" + std::to_string(i)));
  }
  for (int i = 0; i < edges; ++i) {
    data.AddRoleAssertion(r, inds[(*rng)() % inds.size()],
                          inds[(*rng)() % inds.size()]);
    if (i % 2 == 0) {
      data.AddRoleAssertion(s, inds[(*rng)() % inds.size()],
                            inds[(*rng)() % inds.size()]);
    }
  }
  for (int i = 0; i < n; ++i) {
    if ((*rng)() % 3 == 0) data.AddConceptAssertion(c, inds[i]);
  }
  return data;
}

// Random nonrecursive program exercising every batch recipe: IDB heads of
// arity 1-3, bodies mixing EDB scans/probes (every boundness mask arises
// from the greedy join order), repeated variables (tuple-position checks),
// individual constants (constant keys, checks and head outputs), and
// equality / adom atoms in filter, bind and expand positions.
NdlProgram RandomProgram(Vocabulary* vocab, std::mt19937_64* rng,
                         int num_individuals) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int s = program.AddRolePredicate(vocab->InternPredicate("S"));
  int c = program.AddConceptPredicate(vocab->InternConcept("C"));
  struct Pred {
    int id;
    int arity;
  };
  std::vector<Pred> pool = {{r, 2}, {s, 2}, {c, 1}};
  auto rnd = [&](int m) { return static_cast<int>((*rng)() % m); };
  // A term over variables 0..3: mostly variables, sometimes a constant
  // (individual ids are dense from 0, so any id below num_individuals is
  // real) — constants exercise the negative term codes end to end.
  auto term = [&]() {
    if (rnd(6) == 0) return Term::Const(rnd(num_individuals));
    return Term::Var(rnd(4));
  };
  int last = -1;
  for (int layer = 0; layer < 3; ++layer) {
    for (int k = 0; k < 2; ++k) {
      int arity = 1 + rnd(3);
      int p = program.AddIdbPredicate(
          "P" + std::to_string(layer) + "_" + std::to_string(k), arity);
      NdlClause clause;
      int atoms = 1 + rnd(2);
      std::vector<char> var_bound(4, 0);
      for (int a = 0; a < atoms; ++a) {
        const Pred& src = pool[rnd(static_cast<int>(pool.size()))];
        NdlAtom atom;
        atom.predicate = src.id;
        for (int i = 0; i < src.arity; ++i) {
          Term t = term();
          if (!t.is_constant) var_bound[t.value] = 1;
          atom.args.push_back(t);
        }
        clause.body.push_back(std::move(atom));
      }
      // Sprinkle the built-ins over bound and open variables alike, so
      // filter (both bound), bind (one side), and expand (all open)
      // recipes all arise across seeds.
      if (rnd(3) == 0) {
        NdlAtom eq;
        eq.predicate = program.EqualityPredicate();
        eq.args.push_back(term());
        eq.args.push_back(term());
        for (const Term& t : eq.args) {
          if (!t.is_constant) var_bound[t.value] = 1;
        }
        clause.body.push_back(std::move(eq));
      }
      if (rnd(3) == 0) {
        NdlAtom adom;
        adom.predicate = program.AdomPredicate();
        Term t = term();
        if (!t.is_constant) var_bound[t.value] = 1;
        adom.args.push_back(t);
        clause.body.push_back(std::move(adom));
      }
      // Safe head: arguments are body-bound variables or constants, with a
      // repeat now and then (repeated head variables are legal).
      std::vector<int> bound_vars;
      for (int v = 0; v < 4; ++v) {
        if (var_bound[v]) bound_vars.push_back(v);
      }
      clause.head.predicate = p;
      for (int i = 0; i < arity; ++i) {
        if (bound_vars.empty() || rnd(5) == 0) {
          clause.head.args.push_back(Term::Const(rnd(num_individuals)));
        } else {
          clause.head.args.push_back(
              Term::Var(bound_vars[rnd(static_cast<int>(bound_vars.size()))]));
        }
      }
      program.AddClause(std::move(clause));
      pool.push_back({p, arity});
      last = p;
    }
  }
  program.SetGoal(last);
  return program;
}

// Random programs, several batch widths (1 forces a flush per element, 3
// exercises mid-expansion flushes, 1024 is the default) against the scalar
// oracle: answers and deterministic stats must match exactly.
TEST(BatchExecutorTest, RandomizedProgramDifferential) {
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(7100 + seed);
    Vocabulary vocab;
    NdlProgram program = RandomProgram(&vocab, &rng, 24);
    ASSERT_TRUE(program.IsNonrecursive());
    DataInstance data = RandomInstance(&vocab, &rng, 24, 120);

    const ExecuteResult scalar = RunWith(program, data, BatchLimits(0));

    for (long batch_rows : {1L, 3L, 1024L}) {
      const ExecuteResult batch =
          RunWith(program, data, BatchLimits(batch_rows));
      std::string label =
          "seed " + std::to_string(seed) + " batch_rows " +
          std::to_string(batch_rows);
      EXPECT_EQ(batch.answers, scalar.answers) << label;
      ExpectStatsMatch(batch.stats, scalar.stats, label);
      EXPECT_GT(batch.stats.batch_rows + batch.stats.batch_probes, 0)
          << label;
    }
  }
}

// The same differential through the DAG scheduler and the morsel/steal
// machinery: thread counts > 1 with a low morsel threshold so clauses fan
// out, with and without batching.
TEST(BatchExecutorTest, ParallelDifferential) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    std::mt19937_64 rng(7300 + seed);
    Vocabulary vocab;
    NdlProgram program = RandomProgram(&vocab, &rng, 30);
    DataInstance data = RandomInstance(&vocab, &rng, 30, 400);

    const ExecuteResult scalar = RunWith(program, data, BatchLimits(0));

    for (int threads : {2, 4}) {
      for (long batch_rows : {0L, 4L, 1024L}) {
        EvaluatorLimits limits = BatchLimits(batch_rows);
        limits.morsel_rows = 16;
        const ExecuteResult parallel = RunWith(program, data, limits, threads);
        std::string label = "seed " + std::to_string(seed) + " threads " +
                            std::to_string(threads) + " batch_rows " +
                            std::to_string(batch_rows);
        EXPECT_EQ(parallel.answers, scalar.answers) << label;
        ExpectStatsMatch(parallel.stats, scalar.stats, label);
      }
    }
  }
}

// Every rewriter kind over the Example 11 scenario: the production-shaped
// programs (UCQ unions, Presto-style, Lin/Log/Tw/TwStar) all run the batch
// executor and must agree with the scalar oracle on answers and counters.
TEST(BatchExecutorTest, RewriterKindsDifferential) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  DataInstance data = GenerateDataset(
      &vocab, *tbox, DatasetConfig{"c", 60, 0.1, 0.12, 7});
  RewriteOptions options;
  options.arbitrary_instances = true;
  for (RewriterKind kind :
       {RewriterKind::kUcq, RewriterKind::kPrestoLike, RewriterKind::kLin,
        RewriterKind::kLog, RewriterKind::kTw, RewriterKind::kTwStar}) {
    for (const char* word : {"RS", "RSRRS"}) {
      ConjunctiveQuery query = SequenceQuery(&vocab, word);
      RewriteResult rewritten = RewriteOmqOrError(&ctx, query, kind, options);
      ASSERT_TRUE(rewritten.ok()) << rewritten.status.ToString();
      const NdlProgram& program = rewritten.program;

      const ExecuteResult scalar = RunWith(program, data, BatchLimits(0));
      const ExecuteResult batch = RunWith(program, data, BatchLimits(1024));
      std::string label = std::string("kind ") +
                          std::to_string(static_cast<int>(kind)) + " word " +
                          word;
      EXPECT_EQ(batch.answers, scalar.answers) << label;
      ExpectStatsMatch(batch.stats, scalar.stats, label);
    }
  }
}

// Limit-abort parity: for a sweep of max_generated_tuples and max_work
// cutoffs the batch path must stop on exactly the same emission as the
// scalar path — identical truncated answers and identical counters.
TEST(BatchExecutorTest, LimitAbortPointParity) {
  // Random instances are occasionally degenerate (a goal that derives
  // almost nothing); scan forward from the base seed to the first one
  // productive enough to cut at interesting points.
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<NdlProgram> program;
  std::unique_ptr<DataInstance> data;
  EvaluationStats full;
  for (uint64_t seed = 7500;; ++seed) {
    ASSERT_LT(seed, 7532u) << "no productive random instance found";
    std::mt19937_64 rng(seed);
    vocab = std::make_unique<Vocabulary>();
    program =
        std::make_unique<NdlProgram>(RandomProgram(vocab.get(), &rng, 24));
    data = std::make_unique<DataInstance>(
        RandomInstance(vocab.get(), &rng, 24, 200));
    full = RunWith(*program, *data, BatchLimits(0)).stats;
    if (full.generated_tuples > 40) break;
  }

  for (long cut : {1L, 2L, 7L, full.generated_tuples / 2,
                   full.generated_tuples - 1}) {
    for (bool limit_work : {false, true}) {
      EvaluatorLimits scalar_limits = BatchLimits(0);
      EvaluatorLimits batch_limits = BatchLimits(1024);
      if (limit_work) {
        scalar_limits.max_work = cut;
        batch_limits.max_work = cut;
      } else {
        scalar_limits.max_generated_tuples = cut;
        batch_limits.max_generated_tuples = cut;
      }
      const ExecuteResult scalar = RunWith(*program, *data, scalar_limits);
      const ExecuteResult batch = RunWith(*program, *data, batch_limits);
      std::string label = std::string(limit_work ? "work " : "tuples ") +
                          std::to_string(cut);
      EXPECT_EQ(batch.answers, scalar.answers) << label;
      ExpectStatsMatch(batch.stats, scalar.stats, label);
      EXPECT_TRUE(batch.stats.aborted) << label;
    }
  }
}

// A lowered row ceiling truncates IDB relations mid-insert; the batch path
// must refuse, flag and abort exactly like the scalar path.  The snapshot
// is frozen under the normal ceiling, so the EDB stays complete, and the
// instance is the first from the base seed whose IDB relations outgrow the
// lowered ceiling (most random programs here derive only a few tuples).
TEST(BatchExecutorTest, RowCeilingParity) {
  constexpr long kCeiling = 12;
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<NdlProgram> program;
  std::shared_ptr<const DataSnapshot> snapshot;
  for (uint64_t seed = 7700;; ++seed) {
    ASSERT_LT(seed, 7764u) << "no productive random instance found";
    std::mt19937_64 rng(seed);
    vocab = std::make_unique<Vocabulary>();
    program =
        std::make_unique<NdlProgram>(RandomProgram(vocab.get(), &rng, 20));
    snapshot = DataSnapshot::FromInstance(
        RandomInstance(vocab.get(), &rng, 20, 150));
    const std::vector<long> sizes =
        Evaluator(*program, snapshot).Run({}).stats.predicate_tuples;
    if (*std::max_element(sizes.begin(), sizes.end()) > kCeiling) break;
  }
  ExecuteRequest scalar_request;
  scalar_request.limits = BatchLimits(0);
  ExecuteRequest batch_request;
  batch_request.limits = BatchLimits(1024);

  Rows::SetMaxRowsForTest(kCeiling);
  const ExecuteResult scalar =
      Evaluator(*program, snapshot).Run(scalar_request);
  const ExecuteResult batch = Evaluator(*program, snapshot).Run(batch_request);
  Rows::SetMaxRowsForTest(0);

  EXPECT_EQ(batch.answers, scalar.answers);
  ExpectStatsMatch(batch.stats, scalar.stats, "row ceiling");
  EXPECT_TRUE(batch.stats.row_ceiling);
}

// A deadline that expires mid-evaluation: the abort point is wall-clock
// nondeterministic, so only soundness is asserted — whatever the batch path
// returns must be a subset of the complete answer set, with the abort
// reported.  (Loops until a run actually hits the deadline.)
TEST(BatchExecutorTest, DeadlineMidBatchSoundness) {
  std::mt19937_64 rng(7900);
  Vocabulary vocab;
  NdlProgram program = RandomProgram(&vocab, &rng, 40);
  DataInstance data = RandomInstance(&vocab, &rng, 40, 1500);

  const auto complete = RunWith(program, data, BatchLimits(1024)).answers;

  bool saw_abort = false;
  for (int attempt = 0; attempt < 20 && !saw_abort; ++attempt) {
    EvaluatorLimits limits = BatchLimits(1024);
    limits.deadline_ms = 1;
    const ExecuteResult truncated = RunWith(program, data, limits);
    for (const auto& tuple : truncated.answers) {
      EXPECT_TRUE(std::binary_search(complete.begin(), complete.end(), tuple));
    }
    if (truncated.stats.aborted) {
      EXPECT_TRUE(truncated.stats.deadline_exceeded);
      saw_abort = true;
    }
  }
  // On any realistic machine 1 ms expires at least once in 20 attempts;
  // if not, the subset checks above still validated soundness.
}

// The semi-naive delta path through the engine: interleaved ApplyFacts /
// incremental Execute rounds where the batch-path incremental answers must
// equal both the scalar-path incremental answers and a full re-evaluation
// of the grown instance.
TEST(BatchExecutorTest, DeltaPathDifferential) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  DataInstance base = GenerateDataset(
      &vocab, *tbox, DatasetConfig{"c", 40, 0.1, 0.12, 7});
  ConjunctiveQuery query = SequenceQuery(&vocab, "RSR");

  PrepareOptions prepare_options;
  prepare_options.auto_kind = false;
  prepare_options.kind = RewriterKind::kTw;

  // Two engines over the same base so retained IDB state evolves under
  // each executor path independently.
  Engine batch_engine(*tbox, base);
  Engine scalar_engine(*tbox, base);
  PrepareResult bp = batch_engine.Prepare(query, prepare_options);
  PrepareResult sp = scalar_engine.Prepare(query, prepare_options);
  ASSERT_TRUE(bp.ok()) << bp.status.ToString();
  ASSERT_TRUE(sp.ok()) << sp.status.ToString();

  RewritingContext ctx(*tbox);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult oracle_program =
      RewriteOmqOrError(&ctx, query, RewriterKind::kTw, options);
  ASSERT_TRUE(oracle_program.ok());

  ExecuteRequest batch_request;
  batch_request.incremental = true;
  ExecuteRequest scalar_request;
  scalar_request.incremental = true;
  scalar_request.limits.batch_rows = 0;

  // Warm both retained states with a full execution each.
  ASSERT_TRUE(batch_engine.Execute(*bp.query, batch_request).status.ok());
  ASSERT_TRUE(scalar_engine.Execute(*sp.query, scalar_request).status.ok());

  int r_id = vocab.InternPredicate("R");
  int s_id = vocab.InternPredicate("S");
  DataInstance grown = base;
  std::mt19937_64 rng(8100);
  for (int round = 0; round < 6; ++round) {
    FactBatch batch;
    std::string prefix = "d" + std::to_string(round) + "_";
    std::vector<int> chain;
    for (int i = 0; i < 4; ++i) {
      chain.push_back(vocab.InternIndividual(prefix + std::to_string(i)));
    }
    batch.roles.push_back({r_id, chain[0], chain[1]});
    batch.roles.push_back({s_id, chain[1], chain[2]});
    batch.roles.push_back({r_id, chain[2], chain[3]});
    uint64_t batch_version = 0;
    uint64_t scalar_version = 0;
    ASSERT_TRUE(batch_engine.ApplyFactsOrError(batch, &batch_version).ok());
    ASSERT_TRUE(scalar_engine.ApplyFactsOrError(batch, &scalar_version).ok());
    ASSERT_EQ(batch_version, scalar_version);
    for (const FactBatch::RoleFact& fact : batch.roles) {
      grown.AddRoleAssertion(fact.role_id, fact.subject, fact.object);
    }

    ExecuteResult br = batch_engine.Execute(*bp.query, batch_request);
    ExecuteResult sr = scalar_engine.Execute(*sp.query, scalar_request);
    ASSERT_TRUE(br.status.ok()) << br.status.ToString();
    ASSERT_TRUE(sr.status.ok()) << sr.status.ToString();
    EXPECT_EQ(br.answers, sr.answers) << "round " << round;

    EXPECT_EQ(br.answers, RunWith(oracle_program.program, grown, {}).answers)
        << "round " << round;
  }
}

}  // namespace
}  // namespace owlqr
