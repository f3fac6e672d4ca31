// Ablation: the splitting strategy (Section 6 discussion).  The three
// optimal rewriters differ only in how they pick splitting points — Lin
// slices by distance from the root, Log splits the tree decomposition
// balanced (Lemma 10), Tw splits at centroids with tree witnesses
// (Lemma 14).  This bench runs all three (plus Tw*) on identical OMQs and
// data so their evaluation profiles can be compared directly.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ndl/evaluator.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace bench {
namespace {

constexpr RewriterKind kOptimalKinds[] = {
    RewriterKind::kLin, RewriterKind::kLog, RewriterKind::kTw,
    RewriterKind::kTwStar};

void BM_SplitAblation(benchmark::State& state) {
  Scenario& s = Scenario::Get();
  int sequence = static_cast<int>(state.range(0));
  int length = static_cast<int>(state.range(1));
  RewriterKind kind = kOptimalKinds[state.range(2)];
  std::string word(kSequences[sequence], 0, static_cast<size_t>(length));
  ConjunctiveQuery query = SequenceQuery(&s.vocab, word);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(s.ctx.get(), query, kind, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  auto configs = Table2Configs(DatasetScale());
  DataInstance data = GenerateDataset(&s.vocab, *s.tbox, configs[1]);
  EvaluationStats stats;
  ExecuteRequest request;
  request.limits.max_generated_tuples = TupleBudget();
  request.limits.max_work = 20 * TupleBudget();
  for (auto _ : state) {
    ExecuteResult result =
        Evaluator(program, DataSnapshot::FromInstance(data)).Run(request);
    benchmark::DoNotOptimize(result.answers);
    stats = result.stats;
  }
  state.counters["Clauses"] = static_cast<double>(program.num_clauses());
  state.counters["GeneratedTuples"] =
      static_cast<double>(stats.generated_tuples);
  state.counters["Answers"] = static_cast<double>(stats.goal_tuples);
  state.counters["Aborted"] = stats.aborted ? 1 : 0;
  state.SetLabel(std::string(RewriterName(kind)) + " " + word);
}

void RegisterAll() {
  for (int sequence = 0; sequence < 3; ++sequence) {
    for (int length : {5, 10, 15}) {
      for (int kind = 0; kind < 4; ++kind) {
        std::string name = "AblationSplit/seq" + std::to_string(sequence + 1) +
                           "/len" + std::to_string(length) + "/" +
                           RewriterName(kOptimalKinds[kind]);
        benchmark::RegisterBenchmark(name.c_str(), BM_SplitAblation)
            ->Args({sequence, length, kind})
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace bench
}  // namespace owlqr

BENCHMARK_MAIN();
