// Differential and contract tests for incremental answer maintenance
// (ExecuteRequest::incremental): interleaved ApplyFacts / Execute rounds
// where every incremental answer set must be byte-identical to a full
// re-evaluation of the same snapshot version, including duplicate-fact and
// empty-batch rounds; plus the ApplyFactsOrError validation contract and
// the no-op version semantics of effectively-empty batches.  Part of the
// `sanitize` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/rewriters.h"
#include "engine/engine.h"
#include "engine_test_peer.h"
#include "ndl/evaluator.h"
#include "syntax/parser.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

const char* const kWords[] = {"RS", "RSR", "RRSR"};
constexpr int kNumQueries = 3;

// Applies `batch` asserting success, returning the installed version.
uint64_t MustApply(Engine& engine, const FactBatch& batch) {
  uint64_t version = 0;
  EXPECT_TRUE(engine.ApplyFactsOrError(batch, &version).ok());
  return version;
}

void ApplyBatchToInstance(DataInstance* data, const FactBatch& batch) {
  for (const FactBatch::ConceptFact& fact : batch.concepts) {
    data->AddConceptAssertion(fact.concept_id, fact.individual);
  }
  for (const FactBatch::RoleFact& fact : batch.roles) {
    data->AddRoleAssertion(fact.role_id, fact.subject, fact.object);
  }
}

class EngineIncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tbox_ = MakeExample11TBox(&vocab_);
    base_ = std::make_unique<DataInstance>(
        GenerateDataset(&vocab_, *tbox_, DatasetConfig{"c", 40, 0.1, 0.12, 7}));
    for (const char* word : kWords) {
      queries_.push_back(SequenceQuery(&vocab_, word));
    }
    RewritingContext ctx(*tbox_);
    RewriteOptions options;
    options.arbitrary_instances = true;
    for (const ConjunctiveQuery& q : queries_) {
      RewriteResult rewritten =
          RewriteOmqOrError(&ctx, q, RewriterKind::kTw, options);
      ASSERT_TRUE(rewritten.ok()) << rewritten.status.ToString();
      programs_.push_back(std::move(rewritten.program));
    }
    prepare_options_.auto_kind = false;
    prepare_options_.kind = RewriterKind::kTw;
  }

  // The full-evaluation oracle: a fresh evaluator over the mirror instance.
  std::vector<std::vector<int>> Oracle(const DataInstance& grown, int q) {
    Evaluator eval(programs_[q], DataSnapshot::FromInstance(grown));
    ExecuteResult result = eval.Run(ExecuteRequest{});
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return result.answers;
  }

  Vocabulary vocab_;
  std::unique_ptr<TBox> tbox_;
  std::unique_ptr<DataInstance> base_;
  std::vector<ConjunctiveQuery> queries_;
  std::vector<NdlProgram> programs_;
  PrepareOptions prepare_options_;
};

// N interleaved ApplyFacts / Execute rounds: fresh batches, verbatim
// re-application of old batches (no-op), mixed batches (one new fact among
// duplicates), and empty batches, each followed by incremental executions
// whose answers must equal a from-scratch evaluation of the mirror
// instance at the same version.
TEST_F(EngineIncrementalTest, RandomizedDifferentialDeltaVsFull) {
  Engine engine(*tbox_, *base_);
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  for (const ConjunctiveQuery& q : queries_) {
    PrepareResult p = engine.Prepare(q, prepare_options_);
    ASSERT_TRUE(p.ok()) << p.status.ToString();
    prepared.push_back(p.query);
  }

  int r_id = vocab_.InternPredicate("R");
  int s_id = vocab_.InternPredicate("S");
  int label = tbox_->ExistsConcept(RoleOf(vocab_.InternPredicate("P")));
  ASSERT_GE(label, 0);

  std::mt19937 rng(4242);
  DataInstance grown = *base_;     // The oracle's mirror of the snapshot.
  std::vector<FactBatch> applied;  // Accepted batches, for duplicate rounds.
  std::vector<int> pool;           // Individuals introduced by fresh rounds.
  uint64_t version = engine.snapshot_version();
  ASSERT_EQ(version, 1u);
  int incremental_served = 0;

  constexpr int kRounds = 14;
  for (int round = 0; round < kRounds; ++round) {
    FactBatch batch;
    bool expect_bump = false;
    switch (round % 4) {
      case 0:
      case 2: {
        // Fresh chain (guaranteed-new facts) plus random edges within the
        // pool, which may or may not duplicate earlier rounds' edges.
        std::string prefix = "inc" + std::to_string(round) + "_";
        std::vector<int> chain;
        for (int i = 0; i < 5; ++i) {
          chain.push_back(vocab_.InternIndividual(prefix + std::to_string(i)));
        }
        batch.roles.push_back({r_id, chain[0], chain[1]});
        batch.roles.push_back({s_id, chain[1], chain[2]});
        batch.roles.push_back({r_id, chain[2], chain[3]});
        batch.roles.push_back({r_id, chain[3], chain[4]});
        batch.concepts.push_back({label, chain[4]});
        for (int k = 0; !pool.empty() && k < 3; ++k) {
          batch.roles.push_back({rng() % 2 == 0 ? r_id : s_id,
                                 pool[rng() % pool.size()],
                                 pool[rng() % pool.size()]});
        }
        pool.insert(pool.end(), chain.begin(), chain.end());
        expect_bump = true;
        break;
      }
      case 1: {
        // Verbatim duplicate of an accepted batch: every fact is already
        // present, so this must be a version-preserving no-op.
        if (!applied.empty()) batch = applied[rng() % applied.size()];
        expect_bump = false;
        break;
      }
      case 3: {
        // Empty batch half the time; otherwise duplicates plus exactly one
        // genuinely new fact, which must bump the version by one.
        if (rng() % 2 == 0 && !applied.empty()) {
          batch = applied[rng() % applied.size()];
          int fresh = vocab_.InternIndividual("mix" + std::to_string(round));
          batch.roles.push_back({r_id, fresh, fresh});
          pool.push_back(fresh);
          expect_bump = true;
        }
        break;
      }
    }

    uint64_t new_version = 0;
    ASSERT_TRUE(engine.ApplyFactsOrError(batch, &new_version).ok());
    if (expect_bump) {
      EXPECT_EQ(new_version, version + 1) << "round " << round;
    } else {
      EXPECT_EQ(new_version, version) << "round " << round;
    }
    version = new_version;
    ApplyBatchToInstance(&grown, batch);  // Insert dedups; mirror stays equal.

    // One mid-run state wipe: the next executions miss, re-capture from a
    // full run (a parallel one below), and the rounds after that go back
    // to serving deltas off the re-captured state.
    if (round == 9) engine.ClearIncrementalState();

    for (int q = 0; q < kNumQueries; ++q) {
      ExecuteRequest request;
      request.incremental = true;
      request.num_threads = round % 5 == 4 ? 2 : 1;
      ExecuteResult result = engine.Execute(*prepared[q], request);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_FALSE(result.partial);
      EXPECT_EQ(result.snapshot_version, version);
      if (result.incremental) ++incremental_served;
      EXPECT_EQ(result.answers, Oracle(grown, q))
          << "round " << round << " query " << kWords[q]
          << (result.incremental ? " (incremental)" : " (full)");
    }
  }

  // The delta path must actually have served most rounds: after each
  // query's first (capturing) full run, every later round is one delta
  // behind at most.
  EXPECT_GT(incremental_served, kRounds);
  EXPECT_GT(engine.incremental_state_size(), 0u);

  // Retained states are the only surviving budget charges; dropping them
  // accounts the engine back to zero.
  engine.ClearIncrementalState();
  EXPECT_EQ(engine.incremental_state_size(), 0u);
  EXPECT_EQ(engine.governor_counters().memory_used, 0u);
}

// A request with tuple/work limits must transparently fall back to the full
// path: a truncated retained state would poison every later delta run.
TEST_F(EngineIncrementalTest, LimitedRequestsFallBackToFullEvaluation) {
  Engine engine(*tbox_, *base_);
  PrepareResult p = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();

  // Seed retained state with a clean incremental-capturing run.
  ExecuteRequest request;
  request.incremental = true;
  ExecuteResult seed = engine.Execute(*p.query, request);
  ASSERT_TRUE(seed.status.ok());
  EXPECT_EQ(engine.incremental_state_size(), 1u);

  ExecuteRequest limited = request;
  limited.limits.max_generated_tuples = 1;
  ExecuteResult truncated = engine.Execute(*p.query, limited);
  EXPECT_FALSE(truncated.incremental);
  // The retained state survives untouched and still serves the next
  // unlimited incremental request.
  EXPECT_EQ(engine.incremental_state_size(), 1u);
  ExecuteResult again = engine.Execute(*p.query, request);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.incremental);
  EXPECT_EQ(again.answers, seed.answers);
}

// The delta path does less work than a full re-evaluation: after a
// one-fact update that adds answers, the incremental run returns the full
// run's answers at the same version while emitting strictly fewer join
// tuples (both paths report join_emissions as their evaluator's work
// count, so the comparison is deterministic).
TEST_F(EngineIncrementalTest, OneFactDeltaEmitsFewerJoinsThanFullRun) {
  Engine engine(*tbox_, *base_);
  PrepareResult p = engine.Prepare(queries_[2], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();
  ExecuteRequest incremental;
  incremental.incremental = true;
  ExecuteResult seed = engine.Execute(*p.query, incremental);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_EQ(engine.incremental_state_size(), 1u);

  const std::vector<int>& adom = engine.snapshot()->active_domain();
  ASSERT_GE(adom.size(), 2u);
  FactBatch batch;
  batch.roles.push_back({vocab_.InternPredicate("R"), adom[0], adom[1]});
  const uint64_t version = MustApply(engine, batch);
  ASSERT_EQ(version, seed.snapshot_version + 1);

  ExecuteResult delta = engine.Execute(*p.query, incremental);
  ExecuteResult full = engine.Execute(*p.query);
  ASSERT_TRUE(delta.status.ok()) << delta.status.ToString();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_TRUE(delta.incremental);
  EXPECT_FALSE(full.incremental);
  EXPECT_EQ(delta.snapshot_version, version);
  EXPECT_EQ(full.snapshot_version, version);
  EXPECT_NE(full.answers, seed.answers);  // The fact is not a no-op.
  EXPECT_EQ(delta.answers, full.answers);
  EXPECT_LT(delta.stats.join_emissions, full.stats.join_emissions);
}

// Unknown or negative ids must reject the whole batch atomically: nothing
// installed, version unchanged, and no orphan relations for later valid
// updates to trip over.
TEST_F(EngineIncrementalTest, InvalidIdsAreRejectedAtomically) {
  Engine engine(*tbox_, *base_);
  const uint64_t version = engine.snapshot_version();
  const long atoms = engine.snapshot()->num_atoms();
  int r_id = vocab_.InternPredicate("R");
  int known = vocab_.InternIndividual("known");

  FactBatch bad_concept;
  bad_concept.concepts.push_back({vocab_.num_concepts() + 5, known});
  FactBatch negative_concept;
  negative_concept.concepts.push_back({-1, known});
  FactBatch bad_role;
  bad_role.roles.push_back({vocab_.num_predicates(), known, known});
  FactBatch bad_individual;
  bad_individual.roles.push_back({r_id, known, vocab_.num_individuals() + 9});
  // A batch mixing one valid and one invalid fact must install NEITHER.
  FactBatch mixed;
  mixed.roles.push_back({r_id, known, known});
  mixed.roles.push_back({-3, known, known});

  for (const FactBatch* batch : {&bad_concept, &negative_concept, &bad_role,
                                 &bad_individual, &mixed}) {
    uint64_t out = 77;
    Status status = engine.ApplyFactsOrError(*batch, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(engine.snapshot_version(), version);
    EXPECT_EQ(engine.snapshot()->num_atoms(), atoms);
  }

  // The same valid fact goes through once the poison pill is gone.
  FactBatch good;
  good.roles.push_back({r_id, known, known});
  uint64_t out = 0;
  ASSERT_TRUE(engine.ApplyFactsOrError(good, &out).ok());
  EXPECT_EQ(out, version + 1);
  EXPECT_EQ(engine.snapshot()->num_atoms(), atoms + 1);
}

// The explicit no-op contract of WithFacts through the engine: empty and
// all-duplicate batches return the parent snapshot unchanged — same
// version, same object — and never log a phantom delta.
TEST_F(EngineIncrementalTest, DuplicateAndEmptyBatchesAreNoOps) {
  Engine engine(*tbox_, *base_);
  std::shared_ptr<const DataSnapshot> before = engine.snapshot();

  uint64_t out = 0;
  ASSERT_TRUE(engine.ApplyFactsOrError(FactBatch{}, &out).ok());
  EXPECT_EQ(out, before->version());
  EXPECT_EQ(engine.snapshot(), before);  // Same object, not just version.

  int r_id = vocab_.InternPredicate("R");
  FactBatch batch;
  batch.roles.push_back({r_id, vocab_.InternIndividual("dup_a"),
                         vocab_.InternIndividual("dup_b")});
  // The batch also duplicates itself; one row must land, once.
  batch.roles.push_back(batch.roles.front());
  ASSERT_TRUE(engine.ApplyFactsOrError(batch, &out).ok());
  EXPECT_EQ(out, before->version() + 1);
  std::shared_ptr<const DataSnapshot> after = engine.snapshot();
  EXPECT_EQ(after->num_atoms(), before->num_atoms() + 1);

  // Re-applying the identical batch is a no-op at the new version.
  ASSERT_TRUE(engine.ApplyFactsOrError(batch, &out).ok());
  EXPECT_EQ(out, after->version());
  EXPECT_EQ(engine.snapshot(), after);
}

// No cap on how far behind a retained state may fall: a state captured 100
// versions ago catches up in one delta run that reads every row appended
// since from the relation stores, answering exactly as a full evaluation
// at that version with strictly less join work.  The base is larger than
// the fixture's, so 100 small batches stay a small delta.
TEST_F(EngineIncrementalTest, HundredVersionsBehindCatchesUpIncrementally) {
  constexpr int kBatches = 100;
  const DataInstance base = GenerateDataset(
      &vocab_, *tbox_, DatasetConfig{"behind", 200, 0.02, 0.05, 7});
  Engine engine(*tbox_, base);
  PrepareResult p = engine.Prepare(queries_[2], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();
  ExecuteRequest incremental;
  incremental.incremental = true;
  ExecuteResult seed = engine.Execute(*p.query, incremental);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_EQ(engine.incremental_state_size(), 1u);

  // Half the batches add an R edge between existing individuals, half
  // bring new individuals, so both the role stores and the active domain
  // grow.  Every batch is new, so each one is a version.
  const std::vector<int> adom = engine.snapshot()->active_domain();
  const int r_id = vocab_.InternPredicate("R");
  const int s_id = vocab_.InternPredicate("S");
  DataInstance grown = base;
  size_t next_pair = 0;
  for (int b = 0; b < kBatches; ++b) {
    FactBatch batch;
    if (b % 2 == 0) {
      int pair[2];
      do {
        pair[0] = adom[next_pair % adom.size()];
        pair[1] = adom[next_pair / adom.size() % adom.size()];
        ++next_pair;
      } while (engine.snapshot()->Role(r_id)->rows().Contains(pair));
      batch.roles.push_back({r_id, pair[0], pair[1]});
    } else {
      const std::string prefix = "behind" + std::to_string(b) + "_";
      const int x = vocab_.InternIndividual(prefix + "x");
      const int y = vocab_.InternIndividual(prefix + "y");
      batch.roles.push_back({r_id, adom[0], x});
      batch.roles.push_back({s_id, x, y});
    }
    ApplyBatchToInstance(&grown, batch);
    ASSERT_EQ(MustApply(engine, batch), seed.snapshot_version + b + 1);
  }
  const uint64_t version = seed.snapshot_version + kBatches;

  ExecuteResult delta = engine.Execute(*p.query, incremental);
  ExecuteResult full = engine.Execute(*p.query);
  ASSERT_TRUE(delta.status.ok()) << delta.status.ToString();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_TRUE(delta.incremental);
  EXPECT_FALSE(full.incremental);
  EXPECT_EQ(delta.snapshot_version, version);
  EXPECT_EQ(full.snapshot_version, version);
  EXPECT_NE(full.answers, seed.answers);
  EXPECT_EQ(delta.answers, full.answers);
  EXPECT_EQ(delta.answers, Oracle(grown, 2));
  EXPECT_LT(delta.stats.join_emissions, full.stats.join_emissions);
}

// Re-executing at the version the retained state already holds is a delta
// run over nothing: it is served incrementally and joins no tuple.
TEST_F(EngineIncrementalTest, UnchangedVersionReExecuteJoinsNothing) {
  Engine engine(*tbox_, *base_);
  PrepareResult p = engine.Prepare(queries_[1], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();
  ExecuteRequest incremental;
  incremental.incremental = true;
  ExecuteResult seed = engine.Execute(*p.query, incremental);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_FALSE(seed.incremental);
  ASSERT_GT(seed.stats.join_emissions, 0);

  ExecuteResult again = engine.Execute(*p.query, incremental);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.incremental);
  EXPECT_EQ(again.snapshot_version, seed.snapshot_version);
  EXPECT_EQ(again.stats.join_emissions, 0);
  EXPECT_EQ(again.answers, seed.answers);
}

// An individual can enter the answers through a TOP atom alone: under
// `TOP SUB EX R` every individual has an R-successor.  The rewriting
// spells TOP out over the predicates the vocabulary knew at prepare time,
// so a fact over a role interned later reaches the plan only through the
// active domain, and only the adom delta can drive that clause.
TEST_F(EngineIncrementalTest, NewIndividualReachesTopAtomsThroughAdomDelta) {
  Vocabulary vocab;
  TBox tbox(&vocab);
  DataInstance data(&vocab);
  std::string error;
  ASSERT_TRUE(ParseTBox("TOP SUB EX R\n", &tbox, &error)) << error;
  ASSERT_TRUE(ParseData("R(a, b).\n", &data, &error)) << error;
  auto query = ParseQuery("q(x) :- R(x, y)", &vocab, &error);
  ASSERT_TRUE(query.has_value()) << error;
  Engine engine(tbox, data);
  PrepareResult p = engine.Prepare(*query);
  ASSERT_TRUE(p.ok()) << p.status.ToString();
  ExecuteRequest incremental;
  incremental.incremental = true;
  ExecuteResult seed = engine.Execute(*p.query, incremental);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_EQ(seed.answers.size(), 2u);

  FactBatch batch;
  batch.roles.push_back({vocab.InternPredicate("Later"),
                         vocab.InternIndividual("c"),
                         vocab.InternIndividual("d")});
  MustApply(engine, batch);
  ExecuteResult delta = engine.Execute(*p.query, incremental);
  ExecuteResult full = engine.Execute(*p.query);
  ASSERT_TRUE(delta.status.ok()) << delta.status.ToString();
  EXPECT_TRUE(delta.incremental);
  EXPECT_EQ(full.answers.size(), 4u);
  EXPECT_EQ(delta.answers, full.answers);
}

// The incremental path's forward re-pin: when the retained state was
// captured on a snapshot NEWER than the one this request pinned (an
// ApplyFacts plus a re-capturing run landed between pin and serve), the
// serve must re-pin forward and answer for the re-pinned version — versions
// are monotone, so reconverging forward is always correct.
TEST_F(EngineIncrementalTest, RetainedStateAheadOfPinForcesForwardRePin) {
  Engine engine(*tbox_, *base_);
  PrepareResult p = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();
  ExecuteRequest request;
  request.incremental = true;

  // Pin version 1 the way Execute would, BEFORE the world moves.
  std::shared_ptr<const DataSnapshot> stale = engine.snapshot();
  ASSERT_EQ(stale->version(), 1u);

  // Seed retained state at v1, move the engine to v2, re-capture at v2.
  ASSERT_TRUE(engine.Execute(*p.query, request).status.ok());
  int r_id = vocab_.InternPredicate("R");
  int s_id = vocab_.InternPredicate("S");
  FactBatch batch;
  int a = vocab_.InternIndividual("repin_a");
  int b = vocab_.InternIndividual("repin_b");
  int c = vocab_.InternIndividual("repin_c");
  batch.roles.push_back({r_id, a, b});
  batch.roles.push_back({s_id, b, c});
  ASSERT_EQ(MustApply(engine, batch), 2u);
  ExecuteResult at2 = engine.Execute(*p.query, request);
  ASSERT_TRUE(at2.status.ok());
  ASSERT_EQ(at2.snapshot_version, 2u);

  // Serve with the stale pin: state.version (2) > snap->version (1), so
  // the peer call must re-pin forward and serve the delta run at v2.
  DataInstance grown = *base_;
  ApplyBatchToInstance(&grown, batch);
  std::shared_ptr<const DataSnapshot> snap = stale;
  ExecuteResult result;
  ASSERT_TRUE(EngineTestPeer::ExecuteIncremental(engine, *p.query, request,
                                                 &snap, &result));
  EXPECT_EQ(snap->version(), 2u);  // Re-pinned, not the stale pin.
  EXPECT_TRUE(result.incremental);
  EXPECT_EQ(result.snapshot_version, 2u);
  EXPECT_EQ(result.answers, Oracle(grown, 0));
}

// Differential check that RetainedIdbState.version is stamped from the
// snapshot the capturing run actually evaluated (the pinned one), not from
// whatever the engine's current version happens to be at publish time:
// capture-publish races ApplyFacts here, and a mis-stamped state would make
// a later delta run merge the wrong version range and answer incorrectly
// for the version it reports.
TEST_F(EngineIncrementalTest, CapturePublishRacingApplyFactsStampsPinnedVersion) {
  constexpr int kBatches = 8;
  constexpr int kExecutions = 48;

  int r_id = vocab_.InternPredicate("R");
  int s_id = vocab_.InternPredicate("S");
  int label = tbox_->ExistsConcept(RoleOf(vocab_.InternPredicate("P")));
  ASSERT_GE(label, 0);

  // Deterministic batches and per-version expected answers, precomputed on
  // this thread (the Vocabulary is not thread-safe).
  std::vector<FactBatch> batches;
  for (int b = 0; b < kBatches; ++b) {
    std::string prefix = "race" + std::to_string(b) + "_";
    auto ind = [&](int i) {
      return vocab_.InternIndividual(prefix + std::to_string(i));
    };
    FactBatch batch;
    batch.roles.push_back({r_id, ind(0), ind(1)});
    batch.roles.push_back({s_id, ind(1), ind(2)});
    batch.roles.push_back({r_id, ind(2), ind(3)});
    batch.concepts.push_back({label, ind(3)});
    batches.push_back(batch);
  }
  std::vector<std::vector<std::vector<int>>> expected;  // expected[v - 1].
  DataInstance grown = *base_;
  expected.push_back(Oracle(grown, 0));
  for (const FactBatch& batch : batches) {
    ApplyBatchToInstance(&grown, batch);
    expected.push_back(Oracle(grown, 0));
  }
  ASSERT_NE(expected.front(), expected.back());

  Engine engine(*tbox_, *base_);
  PrepareResult p = engine.Prepare(queries_[0], prepare_options_);
  ASSERT_TRUE(p.ok()) << p.status.ToString();

  std::atomic<int> failures{0};
  std::atomic<int> incremental_served{0};
  std::thread updater([&] {
    for (int b = 0; b < kBatches; ++b) {
      uint64_t version = 0;
      if (!engine.ApplyFactsOrError(batches[b], &version).ok() ||
          version != static_cast<uint64_t>(b) + 2) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  std::thread executor([&] {
    for (int i = 0; i < kExecutions; ++i) {
      ExecuteRequest request;
      request.incremental = true;
      ExecuteResult result = engine.Execute(*p.query, request);
      if (!result.status.ok() || result.partial) {
        failures.fetch_add(1);
        continue;
      }
      size_t v = static_cast<size_t>(result.snapshot_version);
      if (v < 1 || v > static_cast<size_t>(kBatches) + 1 ||
          result.answers != expected[v - 1]) {
        failures.fetch_add(1);
      }
      if (result.incremental) incremental_served.fetch_add(1);
    }
  });
  updater.join();
  executor.join();
  EXPECT_EQ(failures.load(), 0);
  // Once the updater stops, every later execution serves off retained
  // state: the delta path must actually have fired.
  EXPECT_GT(incremental_served.load(), 0);

  // And a final run agrees with the fully-grown oracle at the final
  // version — the retained state reconverged exactly.
  ExecuteRequest request;
  request.incremental = true;
  ExecuteResult last = engine.Execute(*p.query, request);
  ASSERT_TRUE(last.status.ok());
  EXPECT_EQ(last.snapshot_version, static_cast<uint64_t>(kBatches) + 1);
  EXPECT_EQ(last.answers, expected.back());
}

}  // namespace
}  // namespace owlqr
