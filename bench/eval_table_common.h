#ifndef OWLQR_BENCH_EVAL_TABLE_COMMON_H_
#define OWLQR_BENCH_EVAL_TABLE_COMMON_H_

// Shared driver for Tables 3, 4 and 5: evaluate the six rewritings of every
// 1..15-atom prefix of one query sequence over the four Table 2 datasets.
// Counters per cell: Answers, GeneratedTuples, Clauses, Aborted (the tuple
// budget standing in for the paper's 999 s timeout).  Mirrors the paper's
// setup: rewritings over arbitrary instances, evaluated by materialising all
// IDB predicates.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>

#include "bench_common.h"
#include "ndl/evaluator.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {
namespace bench {

inline const DataInstance& CachedDataset(int index) {
  static std::map<int, DataInstance>* cache = new std::map<int, DataInstance>();
  auto it = cache->find(index);
  if (it != cache->end()) return it->second;
  Scenario& s = Scenario::Get();
  auto configs = Table2Configs(DatasetScale());
  DataInstance data = GenerateDataset(&s.vocab, *s.tbox, configs[index]);
  return cache->emplace(index, std::move(data)).first->second;
}

inline void BM_EvalCell(benchmark::State& state) {
  Scenario& s = Scenario::Get();
  const char* sequence = kSequences[state.range(0)];
  int length = static_cast<int>(state.range(1));
  RewriterKind kind = kTableKinds[state.range(2)];
  int dataset = static_cast<int>(state.range(3));

  std::string word(sequence, 0, static_cast<size_t>(length));
  ConjunctiveQuery query = SequenceQuery(&s.vocab, word);
  RewriteOptions options;
  options.arbitrary_instances = true;

  // Per-stage trace of this cell (rewrite included); see TraceEnabled().
  MetricsRegistry metrics;
  const bool trace = TraceEnabled();
  if (trace) MetricsRegistry::SetGlobal(&metrics);

  auto rewrite_start = std::chrono::steady_clock::now();
  RewriteResult rewritten = RewriteOmqOrError(s.ctx.get(), query, kind,
                                              options);
  OWLQR_CHECK_MSG(rewritten.ok(), rewritten.status.ToString().c_str());
  const NdlProgram& program = rewritten.program;
  double rewrite_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - rewrite_start)
                          .count();
  const DataInstance& data = CachedDataset(dataset);

  ExecuteRequest request;
  request.limits.max_generated_tuples = TupleBudget();
  request.limits.max_work = 20 * TupleBudget();
  ExecuteResult result;
  for (auto _ : state) {
    Evaluator eval(program, DataSnapshot::FromInstance(data));
    result = eval.Run(request);
    benchmark::DoNotOptimize(result.answers);
  }
  const EvaluationStats& stats = result.stats;
  state.counters["Answers"] = static_cast<double>(stats.goal_tuples);
  state.counters["GeneratedTuples"] =
      static_cast<double>(stats.generated_tuples);
  state.counters["Clauses"] = static_cast<double>(program.num_clauses());
  state.counters["Aborted"] =
      stats.aborted || rewritten.diag.truncated ? 1 : 0;
  state.counters["RewriteMs"] = rewrite_ms;
  if (trace) {
    MetricsRegistry::SetGlobal(nullptr);
    double transform_ms = 0;
    double join_ms = 0;
    double edb_ms = 0;
    for (const MetricsRegistry::Span& span : metrics.spans()) {
      // Only the top-level transforms the table rewrites use (nested
      // safety/prune spans would double-count).
      if (span.name == "transform/star" ||
          span.name == "transform/linear-star") {
        transform_ms += span.duration_ms;
      } else if (span.name == "evaluate/join") {
        join_ms += span.duration_ms;
      } else if (span.name == "evaluate/edb") {
        edb_ms += span.duration_ms;
      }
    }
    MetricsRegistry::TimerStats index = metrics.timer(
        "evaluator/index_build_ms");
    state.counters["TransformMs"] = transform_ms;
    state.counters["IndexBuildMs"] = index.sum;
    state.counters["JoinMs"] = join_ms;
    state.counters["EdbMs"] = edb_ms;
    state.counters["JoinEmissions"] =
        static_cast<double>(metrics.counter("evaluator/join_emissions"));
    state.counters["DedupNewTuples"] =
        static_cast<double>(metrics.counter("evaluator/new_tuples"));
  }
  state.SetLabel(std::string(RewriterName(kind)) + " " + word + " ds" +
                 std::to_string(dataset + 1));
}

inline void RegisterEvalTable(const char* table, int sequence_index,
                              int max_length = 15) {
  for (int dataset = 0; dataset < 4; ++dataset) {
    for (int length = 1; length <= max_length; ++length) {
      for (int kind = 0; kind < 6; ++kind) {
        std::string name = std::string(table) + "/ds" +
                           std::to_string(dataset + 1) + "/len" +
                           std::to_string(length) + "/" +
                           RewriterName(kTableKinds[kind]);
        benchmark::RegisterBenchmark(name.c_str(), BM_EvalCell)
            ->Args({sequence_index, length, kind, dataset})
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

}  // namespace bench
}  // namespace owlqr

#endif  // OWLQR_BENCH_EVAL_TABLE_COMMON_H_
