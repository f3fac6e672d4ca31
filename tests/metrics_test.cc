#include "util/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "util/json.h"

namespace owlqr {
namespace {

// Installs a registry as the process-global sink for the test's lifetime.
class GlobalRegistry {
 public:
  GlobalRegistry() { MetricsRegistry::SetGlobal(&registry_); }
  ~GlobalRegistry() { MetricsRegistry::SetGlobal(nullptr); }
  MetricsRegistry& operator*() { return registry_; }
  MetricsRegistry* operator->() { return &registry_; }

 private:
  MetricsRegistry registry_;
};

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry registry;
  registry.Count("a", 2);
  registry.Count("a", 3);
  registry.Count("b");
  EXPECT_EQ(registry.counter("a"), 5);
  EXPECT_EQ(registry.counter("b"), 1);
  EXPECT_EQ(registry.counter("absent"), 0);
}

TEST(MetricsTest, TimersTrackMinMaxSumCount) {
  MetricsRegistry registry;
  registry.Record("t", 3.0);
  registry.Record("t", 1.0);
  registry.Record("t", 2.0);
  MetricsRegistry::TimerStats t = registry.timer("t");
  EXPECT_EQ(t.count, 3);
  EXPECT_DOUBLE_EQ(t.sum, 6.0);
  EXPECT_DOUBLE_EQ(t.min, 1.0);
  EXPECT_DOUBLE_EQ(t.max, 3.0);
  EXPECT_EQ(registry.timer("absent").count, 0);
}

TEST(MetricsTest, SpansNestAndClose) {
  MetricsRegistry registry;
  {
    ScopedSpan outer(&registry, "outer");
    ScopedSpan inner(&registry, "inner");
    inner.Attr("k", 7);
  }
  std::vector<MetricsRegistry::Span> spans = registry.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  for (const auto& span : spans) EXPECT_GE(span.duration_ms, 0);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "k");
  EXPECT_EQ(spans[1].attrs[0].second, 7);
}

TEST(MetricsTest, MacrosAreNoOpsWithoutGlobalRegistry) {
  ASSERT_EQ(MetricsRegistry::Global(), nullptr);
  // Must not crash or leak; there is nothing to observe.
  OWLQR_COUNT("noop", 1);
  OWLQR_RECORD("noop", 1.0);
  OWLQR_SPAN("noop");
  EXPECT_FALSE(OWLQR_METRICS_ENABLED());
}

TEST(MetricsTest, MacrosReportToGlobalRegistry) {
  GlobalRegistry global;
  {
    OWLQR_NAMED_SPAN(span, "stage");
    span.Attr("n", 1);
    OWLQR_COUNT("c", 4);
    OWLQR_RECORD("r", 2.5);
  }
  EXPECT_EQ(global->counter("c"), 4);
  EXPECT_EQ(global->timer("r").count, 1);
  ASSERT_EQ(global->spans().size(), 1u);
  EXPECT_EQ(global->spans()[0].name, "stage");
}

TEST(MetricsTest, JsonSerialisesAllSections) {
  MetricsRegistry registry;
  registry.Count("counter\"quoted", 1);
  registry.Record("timer", 1.5);
  {
    ScopedSpan span(&registry, "span");
    span.Attr("rows", 3);
  }
  // The trace must round-trip through the repo's own parser: the emitter
  // and the serving layer's reader share one implementation of escaping.
  JsonValue trace;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(registry.ToJson(), &trace, &error)) << error;
  const JsonValue* counters = trace.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("counter\"quoted"), nullptr);
  EXPECT_EQ(counters->Find("counter\"quoted")->AsLong(), 1);
  const JsonValue* timers = trace.Find("timers");
  ASSERT_NE(timers, nullptr);
  ASSERT_NE(timers->Find("timer"), nullptr);
  EXPECT_EQ(timers->Find("timer")->Find("count")->AsLong(), 1);
  EXPECT_DOUBLE_EQ(timers->Find("timer")->Find("sum")->AsDouble(), 1.5);
  const JsonValue* spans = trace.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items().size(), 1u);
  const JsonValue& span = spans->items()[0];
  EXPECT_EQ(span.Find("name")->AsString(), "span");
  ASSERT_NE(span.Find("attrs"), nullptr);
  EXPECT_EQ(span.Find("attrs")->Find("rows")->AsLong(), 3);
}

TEST(MetricsTest, EmptyRegistrySerialisesToValidSkeleton) {
  MetricsRegistry registry;
  JsonValue trace;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(registry.ToJson(), &trace, &error)) << error;
  ASSERT_NE(trace.Find("counters"), nullptr);
  EXPECT_EQ(trace.Find("counters")->size(), 0u);
  ASSERT_NE(trace.Find("timers"), nullptr);
  EXPECT_EQ(trace.Find("timers")->size(), 0u);
  ASSERT_NE(trace.Find("spans"), nullptr);
  EXPECT_TRUE(trace.Find("spans")->is_array());
  EXPECT_EQ(trace.Find("spans")->size(), 0u);
}

// Direct concurrent hammering of one registry (runs under ctest -L sanitize
// in the TSan build).
TEST(MetricsTest, ConcurrentRecordingIsThreadSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kOps; ++i) {
        registry.Count("ops");
        registry.Record("value", static_cast<double>(i));
        ScopedSpan span(&registry, "worker");
        span.Attr("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("ops"), kThreads * kOps);
  EXPECT_EQ(registry.timer("value").count, kThreads * kOps);
  EXPECT_EQ(registry.spans().size(),
            static_cast<size_t>(kThreads) * kOps);
}

// The registry collects from parallel-evaluator workers: every clause
// evaluation emits a span and flushes its emission tallies concurrently.
TEST(MetricsTest, EvaluateParallelReportsThroughGlobalRegistry) {
  GlobalRegistry global;

  Vocabulary vocab;
  NdlProgram program(&vocab);
  int r = program.AddRolePredicate(vocab.InternPredicate("R"));
  // Eight independent IDB predicates on one level so several workers record
  // concurrently, plus a goal joining two of them.
  std::vector<int> mids;
  for (int i = 0; i < 8; ++i) {
    int m = program.AddIdbPredicate("M" + std::to_string(i), 2);
    NdlClause c;
    c.head = {m, {Term::Var(0), Term::Var(1)}};
    c.body.push_back({r, {Term::Var(0), Term::Var(2)}});
    c.body.push_back({r, {Term::Var(2), Term::Var(1)}});
    program.AddClause(std::move(c));
    mids.push_back(m);
  }
  int g = program.AddIdbPredicate("G", 2);
  // Intersects all eight (cheap fully-bound probes) so every predicate is
  // goal-reachable without a combinatorial chain join.
  NdlClause top;
  top.head = {g, {Term::Var(0), Term::Var(1)}};
  for (int m : mids) {
    top.body.push_back({m, {Term::Var(0), Term::Var(1)}});
  }
  program.AddClause(std::move(top));
  program.SetGoal(g);

  DataInstance data(&vocab);
  int role_r = vocab.InternPredicate("R");
  std::vector<int> inds;
  for (int i = 0; i < 15; ++i) {
    inds.push_back(data.AddIndividual("v" + std::to_string(i)));
  }
  for (int i = 0; i < 15; ++i) {
    for (int j = 0; j < 15; ++j) {
      if (i != j) data.AddRoleAssertion(role_r, inds[i], inds[j]);
    }
  }

  ExecuteRequest request;
  request.num_threads = 4;
  ExecuteResult result =
      Evaluator(program, DataSnapshot::FromInstance(data)).Run(request);
  const EvaluationStats& stats = result.stats;
  EXPECT_FALSE(result.answers.empty());

  // One evaluate/join span per clause, all closed.
  long join_spans = 0;
  for (const auto& span : global->spans()) {
    if (span.name == "evaluate/join") {
      ++join_spans;
      EXPECT_GE(span.duration_ms, 0);
    }
  }
  EXPECT_EQ(join_spans, static_cast<long>(program.num_clauses()));
  EXPECT_GT(global->counter("evaluator/join_emissions"), 0);
  EXPECT_GE(global->counter("evaluator/join_emissions"),
            global->counter("evaluator/new_tuples"));
  EXPECT_EQ(global->counter("evaluator/new_tuples"),
            stats.generated_tuples);
  EXPECT_GT(global->timer("evaluator/index_build_ms").count, 0);
}

}  // namespace
}  // namespace owlqr