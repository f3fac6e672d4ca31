// Plan-carried relation sizes (JoinOrderHints::rows): a clean run records
// every IDB relation's size, and the next run of the plan builds each
// relation once at that size.  Answers and counters must not move.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/rewriters.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "util/metrics.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

// Installs a fresh global metrics registry for one scope.
class ScopedRegistry {
 public:
  ScopedRegistry() { MetricsRegistry::SetGlobal(&registry_); }
  ~ScopedRegistry() { MetricsRegistry::SetGlobal(nullptr); }
  MetricsRegistry& operator*() { return registry_; }
  MetricsRegistry* operator->() { return &registry_; }

 private:
  MetricsRegistry registry_;
};

class PlanHintsTest : public ::testing::TestWithParam<RewriterKind> {
 protected:
  void SetUp() override {
    tbox_ = MakeExample11TBox(&vocab_);
    data_ = std::make_unique<DataInstance>(
        GenerateDataset(&vocab_, *tbox_, Table2Configs(0.1)[1]));
    engine_ = std::make_unique<Engine>(*tbox_, *data_);
    PrepareOptions options;
    options.auto_kind = false;
    options.kind = GetParam();
    PrepareResult prepared =
        engine_->Prepare(SequenceQuery(&vocab_, "RSRRSSR"), options);
    ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
    plan_ = prepared.query;
    // One unhinted run first, so the snapshot's shared EDB indexes exist
    // and no later run counts their builds.
    Evaluator(plan_->program(), engine_->snapshot()).Run(ExecuteRequest{});
  }

  // One run of the plan's program under `hints`.
  ExecuteResult Run(JoinOrderHints* hints, const ExecuteRequest& request) {
    Evaluator eval(plan_->program(), engine_->snapshot());
    eval.set_join_order_hints(hints);
    return eval.Run(request);
  }

  std::unique_ptr<JoinOrderHints> FreshHints() const {
    return std::make_unique<JoinOrderHints>(
        plan_->program().num_clauses(), plan_->program().num_predicates());
  }

  Vocabulary vocab_;
  std::unique_ptr<TBox> tbox_;
  std::unique_ptr<DataInstance> data_;
  std::unique_ptr<Engine> engine_;
  std::shared_ptr<const PreparedQuery> plan_;
};

TEST_P(PlanHintsTest, WarmRunDoesNoRehashAndCountsTheSame) {
  std::unique_ptr<JoinOrderHints> hints = FreshHints();
  ExecuteResult cold;
  long cold_rehashes;
  {
    ScopedRegistry registry;
    cold = Run(hints.get(), ExecuteRequest{});
    cold_rehashes = registry->counter("relation/rehash");
  }
  ASSERT_TRUE(cold.status.ok());
  ASSERT_FALSE(cold.partial);
  // The cold run grows its relations through the doubling cascade, so the
  // warm run's zero below is the hints' doing.
  EXPECT_GT(cold_rehashes, 0);

  for (int threads : {1, 4}) {
    ExecuteRequest request;
    request.num_threads = threads;
    ScopedRegistry registry;
    ExecuteResult warm = Run(hints.get(), request);
    EXPECT_EQ(registry->counter("relation/rehash"), 0) << threads;
    EXPECT_EQ(warm.answers, cold.answers);
    EXPECT_EQ(warm.stats.generated_tuples, cold.stats.generated_tuples);
    EXPECT_EQ(warm.stats.join_emissions, cold.stats.join_emissions);
    EXPECT_EQ(warm.stats.index_builds, cold.stats.index_builds);
    EXPECT_EQ(warm.stats.predicate_tuples, cold.stats.predicate_tuples);
  }
}

TEST_P(PlanHintsTest, EngineExecutionsShareThePlansHints) {
  ExecuteResult first = engine_->Execute(*plan_, ExecuteRequest{});
  ASSERT_TRUE(first.status.ok());
  ScopedRegistry registry;
  ExecuteResult second = engine_->Execute(*plan_, ExecuteRequest{});
  EXPECT_EQ(registry->counter("relation/rehash"), 0);
  EXPECT_EQ(second.answers, first.answers);
  EXPECT_EQ(second.stats.generated_tuples, first.stats.generated_tuples);
}

TEST_P(PlanHintsTest, TupleLimitCapsEveryReservation) {
  std::unique_ptr<JoinOrderHints> hints = FreshHints();
  ExecuteResult clean = Run(hints.get(), ExecuteRequest{});
  ASSERT_FALSE(clean.partial);
  long largest = 0;
  for (long count : clean.stats.predicate_tuples) {
    largest = std::max(largest, count);
  }
  constexpr long kLimit = 40;
  ASSERT_GT(largest, kLimit);

  ExecuteRequest limited;
  limited.limits.max_generated_tuples = kLimit;
  std::unique_ptr<JoinOrderHints> cold_hints = FreshHints();
  for (JoinOrderHints* run_hints : {hints.get(), cold_hints.get()}) {
    ScopedRegistry registry;
    ExecuteResult result = Run(run_hints, limited);
    EXPECT_TRUE(result.partial);
    const MetricsRegistry::TimerStats reserved =
        registry->timer("evaluator/reserved_rows");
    EXPECT_GT(reserved.count, 0);
    EXPECT_LE(reserved.max, static_cast<double>(kLimit));
  }
}

TEST_P(PlanHintsTest, PartialOrAbortedRunStoresNoHint) {
  const NdlProgram& program = plan_->program();
  auto no_hints = [&program](const JoinOrderHints& hints) {
    for (int p = 0; p < program.num_predicates(); ++p) {
      if (hints.rows[p].load() != 0) return false;
    }
    return true;
  };
  std::unique_ptr<JoinOrderHints> hints = FreshHints();

  ExecuteRequest limited;
  limited.limits.max_generated_tuples = 40;
  ExecuteResult truncated = Run(hints.get(), limited);
  ASSERT_TRUE(truncated.partial);
  EXPECT_TRUE(no_hints(*hints));

  ExecuteRequest cancelled;
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  cancelled.cancel = token;
  ExecuteResult aborted = Run(hints.get(), cancelled);
  ASSERT_EQ(aborted.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(no_hints(*hints));

  ExecuteResult clean = Run(hints.get(), ExecuteRequest{});
  ASSERT_FALSE(clean.partial);
  // Stored as the row count plus one (a materialised empty relation: 1).
  for (int p = 0; p < program.num_predicates(); ++p) {
    const long count = clean.stats.predicate_tuples[p];
    if (count > 0) {
      EXPECT_EQ(hints->rows[p].load(), static_cast<size_t>(count) + 1) << p;
    } else {
      EXPECT_LE(hints->rows[p].load(), 1u) << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rewriters, PlanHintsTest,
                         ::testing::Values(RewriterKind::kLin,
                                           RewriterKind::kLog,
                                           RewriterKind::kTw),
                         [](const ::testing::TestParamInfo<RewriterKind>& i) {
                           std::string name = RewriterName(i.param);
                           if (name.back() == '*') name.back() = 'S';
                           return name;
                         });

}  // namespace
}  // namespace owlqr
