// Ablation: the Lemma 5 skinny transformation.  Compares the Log rewriting
// as produced (wide clauses) against its Huffman-binarised skinny form on
// both rewriting size and evaluation time.  The skinny form is what the
// LOGCFL evaluation bound is proved for; this measures its practical cost.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ndl/evaluator.h"
#include "ndl/skinny.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace bench {
namespace {

void BM_SkinnyAblation(benchmark::State& state) {
  Scenario& s = Scenario::Get();
  int length = static_cast<int>(state.range(0));
  bool use_skinny = state.range(1) != 0;
  std::string word(kSequence1, 0, static_cast<size_t>(length));
  ConjunctiveQuery query = SequenceQuery(&s.vocab, word);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(s.ctx.get(), query, RewriterKind::kLog,
                                  options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);
  if (use_skinny) program = SkinnyTransform(program);

  auto configs = Table2Configs(DatasetScale());
  DataInstance data = GenerateDataset(&s.vocab, *s.tbox, configs[0]);
  EvaluationStats stats;
  for (auto _ : state) {
    ExecuteResult result =
        Evaluator(program, DataSnapshot::FromInstance(data)).Run({});
    benchmark::DoNotOptimize(result.answers);
    stats = result.stats;
  }
  state.counters["Clauses"] = static_cast<double>(program.num_clauses());
  state.counters["Depth"] = static_cast<double>(program.Depth());
  state.counters["SkinnyDepthBound"] =
      static_cast<double>(SkinnyDepth(program));
  state.counters["GeneratedTuples"] =
      static_cast<double>(stats.generated_tuples);
  state.SetLabel(use_skinny ? "Log+skinny" : "Log");
}

void RegisterAll() {
  for (int length : {3, 6, 9, 12, 15}) {
    for (int skinny = 0; skinny <= 1; ++skinny) {
      std::string name = "AblationSkinny/len" + std::to_string(length) +
                         (skinny ? "/skinny" : "/wide");
      benchmark::RegisterBenchmark(name.c_str(), BM_SkinnyAblation)
          ->Args({length, skinny})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace bench
}  // namespace owlqr

BENCHMARK_MAIN();
