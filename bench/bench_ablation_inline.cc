// Ablation: Tw vs Tw* (Appendix D.4).  The paper observed that inlining
// predicates defined by a single clause and used at most twice can speed up
// evaluation dramatically (28 s -> 0.9 s in their RDFox run) — but not
// uniformly.  This bench compares program sizes and evaluation on all three
// sequences.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ndl/evaluator.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace bench {
namespace {

void BM_InlineAblation(benchmark::State& state) {
  Scenario& s = Scenario::Get();
  int sequence = static_cast<int>(state.range(0));
  int length = static_cast<int>(state.range(1));
  bool inlined = state.range(2) != 0;
  std::string word(kSequences[sequence], 0, static_cast<size_t>(length));
  ConjunctiveQuery query = SequenceQuery(&s.vocab, word);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(
      s.ctx.get(), query,
      inlined ? RewriterKind::kTwStar : RewriterKind::kTw, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  auto configs = Table2Configs(DatasetScale());
  DataInstance data = GenerateDataset(&s.vocab, *s.tbox, configs[2]);
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
  state.counters["Aborted"] = stats.aborted ? 1 : 0;
  state.SetLabel(std::string(inlined ? "Tw*" : "Tw") + " " + word);
}

void RegisterAll() {
  for (int sequence = 0; sequence < 3; ++sequence) {
    for (int length : {3, 7, 11, 15}) {
      for (int inlined = 0; inlined <= 1; ++inlined) {
        std::string name = "AblationInline/seq" + std::to_string(sequence + 1) +
                           "/len" + std::to_string(length) +
                           (inlined ? "/TwStar" : "/Tw");
        benchmark::RegisterBenchmark(name.c_str(), BM_InlineAblation)
            ->Args({sequence, length, inlined})
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
