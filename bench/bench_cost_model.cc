// Validation of the Section 6 cost-model proposal: per rewriting, the
// model's estimated materialised-tuple count next to the measured one, and
// which strategy the cost-based selector would pick.  The model only needs
// to get the *ordering* right to be useful as a planner.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/cost_model.h"
#include "ndl/evaluator.h"
#include "util/logging.h"
#include <memory>
#include <utility>

namespace owlqr {
namespace bench {
namespace {

void BM_CostModel(benchmark::State& state) {
  Scenario& s = Scenario::Get();
  int sequence = static_cast<int>(state.range(0));
  int length = static_cast<int>(state.range(1));
  RewriterKind kind = kTableKinds[state.range(2)];
  std::string word(kSequences[sequence], 0, static_cast<size_t>(length));
  ConjunctiveQuery query = SequenceQuery(&s.vocab, word);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(s.ctx.get(), query, kind, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  auto configs = Table2Configs(DatasetScale());
  std::shared_ptr<const DataSnapshot> snapshot = DataSnapshot::FromInstance(
      GenerateDataset(&s.vocab, *s.tbox, configs[1]));
  double estimated = EstimateEvaluationCost(program, *snapshot);

  RewriterKind chosen;
  CostBasedRewrite(s.ctx.get(), query, *snapshot, options, &chosen);

  EvaluationStats measured;
  ExecuteRequest request;
  request.limits.max_generated_tuples = TupleBudget();
  request.limits.max_work = 20 * TupleBudget();
  for (auto _ : state) {
    ExecuteResult result = Evaluator(program, snapshot).Run(request);
    benchmark::DoNotOptimize(result.answers);
    measured = result.stats;
  }
  state.counters["EstimatedTuples"] = estimated;
  state.counters["MeasuredTuples"] =
      static_cast<double>(measured.generated_tuples);
  state.counters["Aborted"] = measured.aborted ? 1 : 0;
  state.SetLabel(std::string(RewriterName(kind)) + " " + word +
                 " (selector picks " + RewriterName(chosen) + ")");
}

void RegisterAll() {
  for (int sequence = 0; sequence < 3; ++sequence) {
    for (int length : {5, 10}) {
      for (int kind : {2, 3, 5}) {  // Lin, Log, Tw*.
        std::string name = "CostModel/seq" + std::to_string(sequence + 1) +
                           "/len" + std::to_string(length) + "/" +
                           RewriterName(kTableKinds[kind]);
        benchmark::RegisterBenchmark(name.c_str(), BM_CostModel)
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
