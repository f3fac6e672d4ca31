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

// DeltaBetween's range edges, pinned white-box: from == to is the trivial
// empty delta (even for a version the log never held); a range whose first
// needed entry is exactly `delta_log_.front()` still composes after
// trimming; one version older has fallen off and must miss; backwards
// ranges never compose.
TEST_F(EngineIncrementalTest, DeltaBetweenHandlesRangeEdgesAndTrimming) {
  EngineOptions engine_options;
  engine_options.delta_log_capacity = 2;
  Engine engine(*tbox_, *base_, nullptr, engine_options);
  int r_id = vocab_.InternPredicate("R");
  auto bump = [&](int tag) {
    FactBatch batch;
    batch.roles.push_back(
        {r_id, vocab_.InternIndividual("dl" + std::to_string(tag) + "a"),
         vocab_.InternIndividual("dl" + std::to_string(tag) + "b")});
    return MustApply(engine, batch);
  };

  SnapshotDelta identity;
  EXPECT_TRUE(EngineTestPeer::DeltaBetween(engine, 1, 1, &identity));
  EXPECT_TRUE(identity.empty());
  // from == to does not consult the log at all, so it holds even for
  // versions the engine has never seen.
  EXPECT_TRUE(EngineTestPeer::DeltaBetween(engine, 9, 9, &identity));
  EXPECT_TRUE(identity.empty());

  ASSERT_EQ(bump(0), 2u);
  ASSERT_EQ(bump(1), 3u);
  ASSERT_EQ(bump(2), 4u);  // Capacity 2: only the v3 and v4 entries survive.
  EXPECT_EQ(EngineTestPeer::DeltaLogSize(engine), 2u);
  EXPECT_EQ(EngineTestPeer::DeltaLogFrontVersion(engine), 3u);

  // [2 -> 4] needs entries {3, 4} — exactly the surviving run, starting at
  // the log's front.
  SnapshotDelta at_front;
  EXPECT_TRUE(EngineTestPeer::DeltaBetween(engine, 2, 4, &at_front));
  EXPECT_FALSE(at_front.empty());
  // Each bump introduced two fresh individuals; both trimmed-in deltas
  // contribute theirs.
  EXPECT_EQ(at_front.new_individuals.size(), 4u);

  // [1 -> 4] additionally needs the trimmed v2 entry: a clean miss, with
  // the output left untouched for the caller to discard.
  SnapshotDelta trimmed;
  EXPECT_FALSE(EngineTestPeer::DeltaBetween(engine, 1, 4, &trimmed));
  // Backwards ranges never compose (a retained state ahead of the target
  // version is the caller's re-pin problem, not a merge problem).
  SnapshotDelta backwards;
  EXPECT_FALSE(EngineTestPeer::DeltaBetween(engine, 4, 3, &backwards));
  // And from == to stays trivially true at the current version.
  SnapshotDelta current;
  EXPECT_TRUE(EngineTestPeer::DeltaBetween(engine, 4, 4, &current));
  EXPECT_TRUE(current.empty());
}

// A no-op ApplyFacts (verbatim duplicate or empty batch) must not append a
// delta-log entry: the log's versions are assumed ascending and gap-free by
// DeltaBetween's indexing, and a phantom empty entry would also evict a
// real one once the log is at capacity.
TEST_F(EngineIncrementalTest, NoOpApplyFactsAppendsNoDeltaLogEntry) {
  Engine engine(*tbox_, *base_);
  EXPECT_EQ(EngineTestPeer::DeltaLogSize(engine), 0u);

  int r_id = vocab_.InternPredicate("R");
  FactBatch batch;
  batch.roles.push_back({r_id, vocab_.InternIndividual("nolog_a"),
                         vocab_.InternIndividual("nolog_b")});
  ASSERT_EQ(MustApply(engine, batch), 2u);
  EXPECT_EQ(EngineTestPeer::DeltaLogSize(engine), 1u);
  EXPECT_EQ(EngineTestPeer::DeltaLogFrontVersion(engine), 2u);

  // Verbatim duplicate: version preserved, log untouched.
  ASSERT_EQ(MustApply(engine, batch), 2u);
  EXPECT_EQ(EngineTestPeer::DeltaLogSize(engine), 1u);
  // Empty batch: likewise.
  ASSERT_EQ(MustApply(engine, FactBatch{}), 2u);
  EXPECT_EQ(EngineTestPeer::DeltaLogSize(engine), 1u);
  EXPECT_EQ(EngineTestPeer::DeltaLogFrontVersion(engine), 2u);
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
