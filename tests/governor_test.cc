// Tests for the resource governor stack: MemoryBudget/MemoryAccount
// exactness, cooperative cancellation through every evaluator poll point,
// memory-abort behaviour, admission control (slots, FIFO queue, timeouts,
// shedding), graceful degradation, the Rows row-ceiling saturation (the
// morsel-shard merge regression), and the abortable shared snapshot index
// build.  Part of the `sanitize` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/data_instance.h"
#include "data/relation.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "engine/governor.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "util/budget.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

// G(x, y) <- R(x, u) & R(u, y): quadratically many results on a dense R,
// with an index probe on the second atom.
NdlProgram JoinProgram(Vocabulary* vocab) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  return program;
}

// G(x, y) <- R(x, y): a pure scan copy, so the execution's only charged
// allocation (on the snapshot path) is the G arena itself.
NdlProgram CopyProgram(Vocabulary* vocab) {
  NdlProgram program(vocab);
  int r = program.AddRolePredicate(vocab->InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  return program;
}

DataInstance DenseGraph(Vocabulary* vocab, int n) {
  DataInstance data(vocab);
  int r = vocab->InternPredicate("R");
  std::vector<int> inds;
  for (int i = 0; i < n; ++i) {
    inds.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) data.AddRoleAssertion(r, inds[i], inds[j]);
    }
  }
  return data;
}

// Restores the real row ceiling even when an assertion fails mid-test.
struct RowCeilingGuard {
  explicit RowCeilingGuard(size_t max_rows) {
    Rows::SetMaxRowsForTest(max_rows);
  }
  ~RowCeilingGuard() { Rows::SetMaxRowsForTest(0); }
};

// --- MemoryBudget / MemoryAccount -----------------------------------------

TEST(MemoryBudgetTest, ChargeReleaseAndHighWater) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(400));
  EXPECT_TRUE(budget.Charge(600));  // Exactly at the limit: not exceeded.
  EXPECT_EQ(budget.used(), 1000u);
  EXPECT_FALSE(budget.Charge(1));  // Now over — but still recorded.
  EXPECT_EQ(budget.used(), 1001u);
  EXPECT_EQ(budget.high_water(), 1001u);
  budget.Release(1001);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.high_water(), 1001u);  // High water persists.
  EXPECT_TRUE(budget.Charge(1000));       // Back under: charges succeed.
}

TEST(MemoryBudgetTest, ZeroLimitTracksOnly) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.Charge(1'000'000'000));
  EXPECT_EQ(budget.used(), 1'000'000'000u);
}

TEST(MemoryAccountTest, DestructionReleasesEverythingToBudget) {
  MemoryBudget budget(0);
  {
    MemoryAccount account(&budget);
    EXPECT_TRUE(account.Charge(123));
    EXPECT_TRUE(account.Charge(877));
    account.Release(100);
    EXPECT_EQ(account.used(), 900u);
    EXPECT_EQ(budget.used(), 900u);
  }
  EXPECT_EQ(budget.used(), 0u);  // The account died owing nothing.
  EXPECT_EQ(budget.high_water(), 1000u);
}

TEST(MemoryAccountTest, PerExecutionCapTripsBeforeBudget) {
  MemoryBudget budget(1'000'000);
  MemoryAccount account(&budget, /*limit_bytes=*/100);
  EXPECT_FALSE(account.Charge(200));  // Over the per-execution cap.
  EXPECT_EQ(account.used(), 200u);    // Still recorded...
  EXPECT_EQ(budget.used(), 200u);     // ...and forwarded.
}

TEST(MemoryAccountTest, SharedBudgetTripsAcrossAccounts) {
  MemoryBudget budget(1000);
  MemoryAccount a(&budget);
  MemoryAccount b(&budget);
  EXPECT_TRUE(a.Charge(600));
  EXPECT_FALSE(b.Charge(600));  // a + b exceed the shared budget.
}

// --- Memory accounting through the evaluator ------------------------------

// The executed memory numbers must be *exact*: on the snapshot path the only
// charged allocations of a pure scan are the goal arena (EDB arenas and
// shared indexes are engine-lifetime, deliberately uncharged), so the
// account must equal the arena's MemoryBytes to the byte — reproduced here
// by replaying the same inserts (same order, same Reserve hint) into a
// local Rows.
TEST(GovernorMemoryTest, ScanChargesExactlyTheGoalArena) {
  Vocabulary vocab;
  NdlProgram program = CopyProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 40);  // 1560 R pairs.
  auto snapshot = DataSnapshot::FromInstance(data);
  const Rows& r_rows = snapshot->Role(vocab.InternPredicate("R"))->rows();

  MemoryBudget budget(0);
  MemoryAccount account(&budget);
  Evaluator eval(program, snapshot);
  eval.set_memory_account(&account);
  ExecuteResult result = eval.Run({});
  const EvaluationStats& stats = result.stats;
  const auto& answers = result.answers;
  ASSERT_FALSE(stats.aborted);
  ASSERT_EQ(answers.size(), r_rows.size());

  Rows replay;
  replay.arity = 2;
  replay.Reserve(r_rows.size());  // RunJoin's scan-driver hint.
  for (size_t i = 0; i < r_rows.size(); ++i) replay.Insert(r_rows.row(i));
  EXPECT_EQ(static_cast<size_t>(stats.memory_bytes), replay.MemoryBytes());
  EXPECT_EQ(account.used(), replay.MemoryBytes());
  // The batch executor's column scratch is charged while a clause runs and
  // released when its context dies, so the high water exceeds the retained
  // arena but the final usage reconciles to it exactly (asserted above).
  EXPECT_GE(account.high_water(), replay.MemoryBytes());
  EXPECT_EQ(budget.used(), account.used());

  // With batching disabled nothing is ever released mid-run, so the high
  // water equals the retained arena byte for byte.
  MemoryBudget scalar_budget(0);
  MemoryAccount scalar_account(&scalar_budget);
  ExecuteRequest scalar_request;
  scalar_request.limits.batch_rows = 0;
  Evaluator scalar_eval(program, snapshot);
  scalar_eval.set_memory_account(&scalar_account);
  ExecuteResult scalar = scalar_eval.Run(scalar_request);
  ASSERT_FALSE(scalar.stats.aborted);
  EXPECT_EQ(scalar.answers, answers);
  EXPECT_EQ(scalar_account.used(), replay.MemoryBytes());
  EXPECT_EQ(scalar_account.high_water(), replay.MemoryBytes());
}

TEST(GovernorMemoryTest, BudgetReturnsToZeroAfterExecution) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);
  auto snapshot = DataSnapshot::FromInstance(data);
  MemoryBudget budget(0);
  {
    MemoryAccount account(&budget);
    Evaluator eval(program, snapshot);
    eval.set_memory_account(&account);
    EXPECT_FALSE(eval.Run({}).stats.aborted);
    EXPECT_GT(budget.used(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.high_water(), 0u);
}

TEST(GovernorMemoryTest, MemoryAbortMidJoin) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 60);  // 3600 goal tuples.
  auto snapshot = DataSnapshot::FromInstance(data);
  MemoryBudget budget(16 * 1024);  // Far less than the goal arena needs.
  MemoryAccount account(&budget);
  Evaluator eval(program, snapshot);
  eval.set_memory_account(&account);
  ExecuteResult result = eval.Run(ExecuteRequest{});
  EXPECT_EQ(result.status.code(), StatusCode::kMemoryExceeded);
  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_TRUE(result.stats.memory_exceeded);
  EXPECT_FALSE(result.stats.cancelled);
  EXPECT_FALSE(result.stats.deadline_exceeded);
  // Truncated, not garbage: a sound subset with sane counters.
  EXPECT_LT(result.answers.size(), 3600u);
  EXPECT_GE(result.stats.generated_tuples, 0);
  EXPECT_EQ(result.stats.predicate_tuples.size(),
            static_cast<size_t>(program.num_predicates()));
  EXPECT_GE(result.stats.memory_high_water,
            static_cast<long>(budget.limit()));
}

// --- Cancellation ----------------------------------------------------------

TEST(GovernorCancelTest, CancelBeforeStartDoesNoWork) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);
  auto snapshot = DataSnapshot::FromInstance(data);
  auto cancel = std::make_shared<CancelToken>();
  cancel->Cancel();
  Evaluator eval(program, snapshot);
  ExecuteRequest request;
  request.cancel = cancel;
  ExecuteResult result = eval.Run(request);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.stats.cancelled);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_TRUE(result.answers.empty());
  EXPECT_EQ(result.stats.generated_tuples, 0);
}

TEST(GovernorCancelTest, CancelMidEvaluationAborts) {
  Vocabulary vocab;
  // Three-way self-join: ~40^4 emissions, seconds of work if left alone.
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 2);
  NdlClause c;
  c.head = {g, {Term::Var(0), Term::Var(1)}};
  c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
  c.body.push_back({r, {Term::Var(2), Term::Var(3)}});
  c.body.push_back({r, {Term::Var(3), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);
  DataInstance data = DenseGraph(&vocab, 40);
  auto snapshot = DataSnapshot::FromInstance(data);

  auto cancel = std::make_shared<CancelToken>();
  std::thread canceller([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel->Cancel();
  });
  Evaluator eval(program, snapshot);
  ExecuteRequest request;
  request.cancel = cancel;
  const auto start = std::chrono::steady_clock::now();
  ExecuteResult result = eval.Run(request);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  canceller.join();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.stats.cancelled);
  EXPECT_FALSE(result.stats.deadline_exceeded);
  // Cooperative, but prompt: the poll cadence is every 1024 emissions /
  // rows, so the abort lands long before the uncancelled runtime.
  EXPECT_LT(elapsed_ms, 5000);
}

TEST(GovernorCancelTest, CancelOutranksDeadlineInStatus) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);
  auto snapshot = DataSnapshot::FromInstance(data);
  auto cancel = std::make_shared<CancelToken>();
  cancel->Cancel();
  Evaluator eval(program, snapshot);
  ExecuteRequest request;
  request.cancel = cancel;
  request.limits.deadline_ms = 1;
  ExecuteResult result = eval.Run(request);
  // The cancel token is polled first, so even with an already-expired
  // deadline the reported cause is the cancellation.
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

// --- Row ceiling -----------------------------------------------------------

// A relation at the 32-bit row ceiling must refuse inserts and surface a
// cooperative abort — not OWLQR_CHECK-abort the process.  Sequential path.
TEST(RowCeilingTest, SequentialJoinSaturatesAtCeiling) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);  // 900 goal tuples unbounded.
  auto snapshot = DataSnapshot::FromInstance(data);
  // Installed only after the snapshot's EDB arenas are built: the lowered
  // ceiling should bite the execution's IDB arena, not the data load.
  RowCeilingGuard guard(100);
  Evaluator eval(program, snapshot);
  ExecuteResult result = eval.Run(ExecuteRequest{});
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_TRUE(result.stats.row_ceiling);
  EXPECT_TRUE(result.partial);
  // A ceiling stop is a truncation, not a caller error: status stays OK.
  EXPECT_TRUE(result.status.ok());
  EXPECT_LE(result.answers.size(), 100u);
}

// Regression: the morsel-shard merge path writes through Rows::Insert too;
// merging shards whose union passes the ceiling must saturate, flag the
// abort, and leave a sound prefix — under the old code the merge loop
// OWLQR_CHECKed and took the whole process down.
TEST(RowCeilingTest, MorselShardMergeSaturatesAtCeiling) {
  Vocabulary vocab;
  NdlProgram program = JoinProgram(&vocab);
  DataInstance data = DenseGraph(&vocab, 30);  // 900 > 400 merged rows.
  auto snapshot = DataSnapshot::FromInstance(data);
  RowCeilingGuard guard(400);  // After the EDB arenas exist; see above.
  Evaluator eval(program, snapshot);
  ExecuteRequest request;
  request.num_threads = 4;
  request.limits.morsel_rows = 64;  // Force intra-clause fan-out.
  ExecuteResult result = eval.Run(request);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_TRUE(result.stats.row_ceiling);
  EXPECT_TRUE(result.partial);
  EXPECT_LE(result.answers.size(), 400u);
  EXPECT_GT(result.stats.morsels, 0);  // The fan-out actually happened.
}

// --- Abortable shared snapshot index build ---------------------------------

// An abort poll that fires mid-build must abandon the shared index WITHOUT
// publishing it; the next (unaborted) request rebuilds a complete one.
TEST(SnapshotIndexTest, AbortedSharedBuildIsDiscardedAndRebuilt) {
  Vocabulary vocab;
  DataInstance data(&vocab);
  int role_r = vocab.InternPredicate("R");
  int hub = data.AddIndividual("hub");
  constexpr int kSpokes = 500'000;  // Hundreds of poll intervals.
  for (int i = 0; i < kSpokes; ++i) {
    int s = data.AddIndividual("s" + std::to_string(i));
    data.AddRoleAssertion(role_r, s, hub);
  }
  auto snapshot = DataSnapshot::FromInstance(data);
  const EdbRelation* rel = snapshot->Role(role_r);
  ASSERT_NE(rel, nullptr);

  // Poll that trips on its third call: the build gets through a couple of
  // 1024-row intervals, then must stop.
  int calls = 0;
  bool built_now = true;
  const HashIndex* aborted = rel->Index(
      /*mask=*/1u,
      [](void* arg) { return ++*static_cast<int*>(arg) >= 3; }, &calls,
      &built_now);
  EXPECT_EQ(aborted, nullptr);
  EXPECT_FALSE(built_now);
  EXPECT_GE(calls, 3);

  // The slot was reset, not poisoned: an unaborted request builds the full
  // index and every key probes correctly.
  const HashIndex& full = rel->Index(1u, &built_now);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(full.ids.size(), static_cast<size_t>(kSpokes));
  const Rows& rows = rel->rows();
  int first_spoke = rows.row(0)[0];
  auto [first, last] = full.Find(HashTuple(&first_spoke, 1));
  ASSERT_NE(first, last);
}

// End-to-end: a deadline trips while (or before) the evaluator builds the
// lazily shared snapshot index over a 500k-row EDB; the run aborts with
// DEADLINE_EXCEEDED and a later uncancelled run on the SAME snapshot gets
// exact answers — proving no partial index was published.
TEST(SnapshotIndexTest, DeadlineDuringLazySharedIndexBuild) {
  Vocabulary vocab;
  NdlProgram program(&vocab);
  int a = program.AddConceptPredicate(vocab.InternConcept("A"));
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  int g = program.AddIdbPredicate("G", 1);
  NdlClause c;
  c.head = {g, {Term::Var(0)}};
  c.body.push_back({a, {Term::Var(0)}});
  c.body.push_back({r, {Term::Var(0), Term::Var(1)}});
  program.AddClause(std::move(c));
  program.SetGoal(g);

  DataInstance data(&vocab);
  int concept_a = vocab.InternConcept("A");
  int role_r = vocab.InternPredicate("R");
  int hub = data.AddIndividual("hub");
  constexpr int kSpokes = 500'000;
  for (int i = 0; i < kSpokes; ++i) {
    int s = data.AddIndividual("s" + std::to_string(i));
    data.AddRoleAssertion(role_r, s, hub);
    if (i == 0) data.AddConceptAssertion(concept_a, s);
  }
  auto snapshot = DataSnapshot::FromInstance(data);

  {
    Evaluator eval(program, snapshot);
    ExecuteRequest request;
    request.limits.deadline_ms = 1;  // Indexing 500k rows takes well over.
    ExecuteResult result = eval.Run(request);
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.stats.deadline_exceeded);
  }
  {
    Evaluator eval(program, snapshot);
    ExecuteResult result = eval.Run(ExecuteRequest{});
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.stats.aborted);
    ASSERT_EQ(result.answers.size(), 1u);  // Exactly the one A-member.
  }
}

// --- Admission control ------------------------------------------------------

TEST(AdmissionTest, UnlimitedGovernorAlwaysAdmits) {
  QueryGovernor governor(GovernorOptions{});
  auto a = governor.Admit();
  auto b = governor.Admit();
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(governor.counters().admitted, 2);
}

TEST(AdmissionTest, SaturatedPoolShedsWithoutQueueing) {
  GovernorOptions options;
  options.max_concurrent = 1;
  QueryGovernor governor(options);
  auto slot = governor.Admit();
  ASSERT_TRUE(slot.admitted());
  // timeout 0: never queue.
  auto shed = governor.Admit(/*request_timeout_ms=*/0);
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.status().code(), StatusCode::kRejected);
  QueryGovernor::Counters counters = governor.counters();
  EXPECT_EQ(counters.admitted, 1);
  EXPECT_EQ(counters.rejected(), 1);
}

TEST(AdmissionTest, FullQueueShedsImmediately) {
  GovernorOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;  // No waiting room at all.
  QueryGovernor governor(options);
  auto slot = governor.Admit();
  auto shed = governor.Admit(/*request_timeout_ms=*/1000);
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.status().code(), StatusCode::kRejected);
  EXPECT_EQ(governor.counters().rejected_queue_full, 1);
}

TEST(AdmissionTest, QueueTimeoutSheds) {
  GovernorOptions options;
  options.max_concurrent = 1;
  QueryGovernor governor(options);
  auto slot = governor.Admit();
  const auto start = std::chrono::steady_clock::now();
  auto shed = governor.Admit(/*request_timeout_ms=*/30);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.status().code(), StatusCode::kRejected);
  EXPECT_GE(waited_ms, 25.0);  // It genuinely waited its turn.
  EXPECT_EQ(governor.counters().rejected_timeout, 1);
}

// A queue timeout too far out for the clock (now + timeout would overflow
// its nanosecond range) is no timeout: the request must wait for the slot,
// not wrap into the past and shed at once.
TEST(AdmissionTest, UnrepresentableQueueTimeoutWaitsForTheSlot) {
  GovernorOptions options;
  options.max_concurrent = 1;
  QueryGovernor governor(options);
  auto slot = std::make_unique<QueryGovernor::Admission>(governor.Admit());
  ASSERT_TRUE(slot->admitted());
  std::thread releaser([&slot] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slot.reset();
  });
  auto admission = governor.Admit(/*request_timeout_ms=*/LONG_MAX);
  releaser.join();
  EXPECT_TRUE(admission.admitted()) << admission.status().ToString();
  EXPECT_EQ(governor.counters().rejected_timeout, 0);
}

TEST(AdmissionTest, ReleaseHandsSlotToWaitersInFifoOrder) {
  GovernorOptions options;
  options.max_concurrent = 1;
  QueryGovernor governor(options);
  auto slot = std::make_unique<QueryGovernor::Admission>(governor.Admit());
  ASSERT_TRUE(slot->admitted());

  std::atomic<int> order{0};
  std::atomic<int> first_granted{-1};
  std::atomic<int> second_granted{-1};
  auto waiter = [&](int id, std::atomic<int>* granted_at) {
    auto admission = governor.Admit(/*request_timeout_ms=*/10'000);
    EXPECT_TRUE(admission.admitted()) << "waiter " << id;
    granted_at->store(order.fetch_add(1));
    // Hold briefly so the other waiter observably waits behind us.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  std::thread first(waiter, 0, &first_granted);
  // Deterministic enqueue order: the second waiter starts only after the
  // first is provably parked in the queue.
  while (governor.counters().queued < 1) std::this_thread::yield();
  std::thread second(waiter, 1, &second_granted);
  while (governor.counters().queued < 2) std::this_thread::yield();

  slot.reset();  // Release: the slot must go to the FIRST waiter.
  first.join();
  second.join();
  EXPECT_EQ(first_granted.load(), 0);
  EXPECT_EQ(second_granted.load(), 1);
  QueryGovernor::Counters counters = governor.counters();
  EXPECT_EQ(counters.admitted, 3);
  EXPECT_EQ(counters.queued, 2);
  EXPECT_EQ(counters.rejected(), 0);
}

// --- Engine integration -----------------------------------------------------

class GovernedEngineTest : public ::testing::Test {
 protected:
  // A real OMQ: the paper's Example 11 ontology with the two-step chain
  // query q(x0, x2) :- R(x0, x1), R(x1, x2), through the engine's own
  // rewrite and snapshot path.
  void SetUp() override { tbox_ = MakeExample11TBox(&vocab_); }

  ConjunctiveQuery ChainQuery() { return SequenceQuery(&vocab_, "RR"); }

  // Two R-layers through a single middle node: a_i -> mid -> c_j.  The
  // chain query produces m^2 distinct answers from ~m^2 emissions (every
  // emission is a fresh tuple), so a memory budget trips after only a few
  // hundred thousand emissions — fast even under sanitizers.
  DataInstance LayeredGraph(int m) {
    DataInstance data(&vocab_);
    int r = vocab_.InternPredicate("R");
    int mid = data.AddIndividual("mid");
    for (int i = 0; i < m; ++i) {
      data.AddRoleAssertion(r, data.AddIndividual("a" + std::to_string(i)),
                            mid);
      data.AddRoleAssertion(r, mid,
                            data.AddIndividual("c" + std::to_string(i)));
    }
    return data;
  }

  // Dense n-clique: the chain join runs n * (n-1)^2 emissions (~64M at
  // n = 400) while producing only n^2 distinct answers — an execution that
  // keeps a slot busy for a long time without much memory.
  DataInstance DenseData(int n) {
    DataInstance data(&vocab_);
    int r = vocab_.InternPredicate("R");
    std::vector<int> inds;
    for (int i = 0; i < n; ++i) {
      inds.push_back(data.AddIndividual("v" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) data.AddRoleAssertion(r, inds[i], inds[j]);
      }
    }
    return data;
  }

  Vocabulary vocab_;
  std::unique_ptr<TBox> tbox_;
};

TEST_F(GovernedEngineTest, MemoryRejectionSurfacesThroughExecute) {
  DataInstance data = LayeredGraph(1000);  // 1M chain answers unbudgeted.
  EngineOptions options;
  options.governor.max_memory_bytes = 256 * 1024;
  Engine engine(*tbox_, data, nullptr, options);
  Status status;
  ExecuteResult result = engine.Query(ChainQuery(), ExecuteRequest{}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.status.code(), StatusCode::kMemoryExceeded);
  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.stats.memory_exceeded);
  QueryGovernor::Counters counters = engine.governor_counters();
  EXPECT_EQ(counters.memory_exceeded, 1);
  // Accounting is back to zero the moment the execution returns.
  EXPECT_EQ(counters.memory_used, 0u);
  EXPECT_GT(counters.memory_high_water, 0u);
}

TEST_F(GovernedEngineTest, DegradedRetryReturnsTruncatedResult) {
  DataInstance data = LayeredGraph(1000);
  EngineOptions options;
  // Big enough for a tuple-limited run (whose arenas are dominated by the
  // bounded Reserve hints), far too small for the 1M-tuple full answer set.
  options.governor.max_memory_bytes = 4 * 1024 * 1024;
  options.governor.degraded_max_generated_tuples = 50;
  Engine engine(*tbox_, data, nullptr, options);
  Status status;
  ExecuteResult result = engine.Query(ChainQuery(), ExecuteRequest{}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The retry fit under the tightened tuple limit: a usable truncated
  // result instead of a memory error.
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.partial);
  EXPECT_LE(result.stats.generated_tuples, 52);
  QueryGovernor::Counters counters = engine.governor_counters();
  EXPECT_EQ(counters.degraded_retries, 1);
  EXPECT_EQ(counters.memory_exceeded, 0);  // The final outcome was OK.
  EXPECT_EQ(counters.memory_used, 0u);
}

TEST_F(GovernedEngineTest, DegradedRetryReconcilesBudgetAndCountsOnce) {
  DataInstance data = LayeredGraph(1000);
  EngineOptions options;
  options.governor.max_memory_bytes = 4 * 1024 * 1024;
  options.governor.degraded_max_generated_tuples = 50;
  Engine engine(*tbox_, data, nullptr, options);
  PrepareResult prepared = engine.Prepare(ChainQuery());
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  int r = vocab_.FindPredicate("R");
  ASSERT_GE(r, 0);
  constexpr int kRounds = 3;
  for (int i = 0; i < kRounds; ++i) {
    ExecuteResult result = engine.Execute(*prepared.query, ExecuteRequest{});
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(result.partial);
    // The retry ran on a freshly pinned snapshot: the reported version is
    // the engine's current one, including the facts applied below on
    // earlier rounds.
    EXPECT_EQ(result.snapshot_version, engine.snapshot_version());

    QueryGovernor::Counters counters = engine.governor_counters();
    // The aborted first attempt's account reconciled fully: no residue
    // accumulates across memory-abort-then-retry rounds.
    EXPECT_EQ(counters.memory_used, 0u);
    // Exactly ONE outcome per Execute, and it is the retry's: the retry
    // counter advances once per round while the abort of the first attempt
    // never surfaces as a memory_exceeded outcome.
    EXPECT_EQ(counters.degraded_retries, i + 1);
    EXPECT_EQ(counters.memory_exceeded, 0);
    EXPECT_EQ(counters.cancelled, 0);
    EXPECT_EQ(counters.deadline_exceeded, 0);

    // Grow the data between rounds so each retry answers a later version.
    FactBatch batch;
    batch.roles.push_back(
        {r, vocab_.InternIndividual("fresh" + std::to_string(i)),
         vocab_.InternIndividual("mid2" + std::to_string(i))});
    uint64_t version = 0;
    ASSERT_TRUE(engine.ApplyFactsOrError(batch, &version).ok());
    EXPECT_EQ(version, static_cast<uint64_t>(i) + 2);
  }
}

TEST_F(GovernedEngineTest, RejectedExecutionCostsNothing) {
  DataInstance data = DenseData(400);
  EngineOptions options;
  options.governor.max_concurrent = 1;
  options.governor.queue_timeout_ms = 5'000;
  Engine engine(*tbox_, data, nullptr, options);
  PrepareResult prepared = engine.Prepare(ChainQuery());
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();

  // Occupy the only slot with a cancellable run over the dense graph
  // (tens of millions of join emissions uncancelled — it cannot finish
  // before the assertions below complete).
  auto cancel = std::make_shared<CancelToken>();
  std::thread holder([&] {
    ExecuteRequest request;
    request.cancel = cancel;
    // No deadline: only the cancel ends it.
    ExecuteResult result = engine.Execute(*prepared.query, request);
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  });
  while (engine.governor_counters().admitted < 1) std::this_thread::yield();

  ExecuteRequest reject_me;
  reject_me.queue_timeout_ms = 0;  // Don't wait: shed immediately.
  ExecuteResult rejected = engine.Execute(*prepared.query, reject_me);
  EXPECT_EQ(rejected.status.code(), StatusCode::kRejected);
  EXPECT_TRUE(rejected.answers.empty());
  EXPECT_EQ(rejected.snapshot_version, 0u);  // Never pinned a snapshot.

  cancel->Cancel();
  holder.join();
  QueryGovernor::Counters counters = engine.governor_counters();
  EXPECT_EQ(counters.rejected(), 1);
  EXPECT_EQ(counters.cancelled, 1);
  EXPECT_EQ(counters.memory_used, 0u);
}

}  // namespace
}  // namespace owlqr
