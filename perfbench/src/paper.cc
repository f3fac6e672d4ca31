// Workload "paper": the source paper's own Section 6 setting, in process.
//
// Data: the Example 11 ontology over Table 2 dataset 2 at scale 0.1 (500
// individuals, average degree 10).  Queries: a frozen pool of {R,S}-words,
// kWordsPerLength of each length 3..15, every word prepared in set-up with
// the Lin, Log and Tw rewriters (forced, not auto).  The timed script
// executes every (word, rewriter) plan once per cycle, in a seeded order,
// from one client at num_threads=1, with no answer cache and a tuple budget
// under which nothing aborts.  core + ndl do almost all the work.
//
// Checks: Lin, Log and Tw agree on every word (in the warm-up); every timed
// answer equals that reference; a seeded subset of short words matches the
// chase oracle (untimed).

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "chase/certain_answers.h"
#include "core/rewriters.h"
#include "core/rewriting_context.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace perfbench {
namespace {

constexpr int kMinLength = 3;
constexpr int kMaxLength = 15;
constexpr int kWordsPerLength = 12;
// Longest run of consecutive R letters.  Each R is a hop in the
// average-degree-10 graph, so an R-run of k joins ~10^k paths: at k >= 3
// single executions take seconds, and the pool stops being a serving mix.
constexpr int kMaxRRun = 2;
constexpr uint64_t kPoolSeed = 20170002;
constexpr RewriterKind kKinds[] = {RewriterKind::kLin, RewriterKind::kLog,
                                   RewriterKind::kTw};
constexpr int kNumKinds = 3;
// The timed executions run at one thread.  At num_threads=4 the same
// script's median moved by up to 2x between back-to-back runs on a 4-core
// VM (1.06 to 2.18 ms, against 0.66 to 0.72 ms at one thread), far past any
// usable bound; the traced run replays every plan at 4 threads instead.
constexpr int kThreads = 1;
constexpr int kReplayThreads = 4;
constexpr long kTupleBudget = 20'000'000;
// Plans executed per second on a 4-core x86-64 VM; the script holds about
// seconds * rate executions, in whole cycles, and at least kPasses cycles.
constexpr double kNominalOpsPerSecond = 300;
// Short words checked against the chase oracle, per length 3..5.
constexpr int kOracleWordsPerLength = 3;

using Answers = std::vector<std::vector<int>>;

struct PaperWorld {
  Vocabulary vocab;
  std::unique_ptr<TBox> tbox;
  std::unique_ptr<DataInstance> data;
  std::unique_ptr<Engine> engine;
  std::vector<ConjunctiveQuery> queries;  // One per word.
  std::vector<std::shared_ptr<const PreparedQuery>> plans;  // [word * 3 + k]
  std::vector<Answers> reference;  // Per word, from the warm-up.
};

// The frozen word pool: the same for every --seed, so that runs on
// different seeds execute the same multiset of plans (the seed orders
// them).  With its heavy tail, a freshly drawn pool of this size moves the
// mean execution time by several percent from seed to seed.
std::vector<std::string> MakeWords() {
  std::mt19937_64 rng(kPoolSeed);
  std::vector<std::string> words;
  for (int len = kMinLength; len <= kMaxLength; ++len) {
    for (int i = 0; i < kWordsPerLength; ++i) {
      std::string word;
      int run = 0;
      for (int j = 0; j < len; ++j) {
        char c = (rng() & 1) ? 'R' : 'S';
        if (c == 'R' && run >= kMaxRRun) c = 'S';
        run = c == 'R' ? run + 1 : 0;
        word += c;
      }
      words.push_back(word);
    }
  }
  return words;
}

ExecuteRequest MakeRequest(int threads) {
  ExecuteRequest request;
  request.num_threads = threads;
  request.limits.max_generated_tuples = kTupleBudget;
  request.limits.max_work = 20 * kTupleBudget;
  return request;
}

// Builds the world and runs the warm-up; false (with a note) when the
// rewriters disagree or an execution fails.  Traced cold prepares land in
// `tracer`.
bool SetUp(const std::vector<std::string>& words, Tracer* tracer,
           PaperWorld* w, Report* report) {
  w->tbox = MakeExample11TBox(&w->vocab);
  w->data = std::make_unique<DataInstance>(
      GenerateDataset(&w->vocab, *w->tbox, Table2Configs(0.1)[1]));
  EngineOptions options;
  options.plan_cache_capacity = words.size() * kNumKinds + 16;
  w->engine = std::make_unique<Engine>(*w->tbox, *w->data, nullptr, options);
  for (const std::string& word : words) {
    w->queries.push_back(SequenceQuery(&w->vocab, word));
  }
  for (const ConjunctiveQuery& q : w->queries) {
    for (RewriterKind kind : kKinds) {
      PrepareOptions prepare;
      prepare.auto_kind = false;
      prepare.kind = kind;
      Tracer::Scope span(tracer, "engine.prepare_cold", 0);
      PrepareResult prepared = w->engine->Prepare(q, prepare);
      if (!prepared.ok()) {
        report->Fail("prepare: " + prepared.status.ToString());
        return false;
      }
      span.Count("clauses", prepared.query->program().num_clauses());
      w->plans.push_back(prepared.query);
    }
  }
  // Warm-up: every plan once; Lin, Log and Tw must agree per word.
  const ExecuteRequest request = MakeRequest(kThreads);
  for (size_t i = 0; i < words.size(); ++i) {
    for (int k = 0; k < kNumKinds; ++k) {
      ExecuteResult r = w->engine->Execute(*w->plans[i * kNumKinds + k],
                                           request);
      if (!Complete(r)) {
        report->Fail("warm-up " + words[i] + ": " + r.status.ToString());
        return false;
      }
      if (k == 0) {
        w->reference.push_back(std::move(r.answers));
      } else if (r.answers != w->reference[i]) {
        report->Fail(std::string("rewriters disagree on ") + words[i] +
                     " (" + RewriterName(kKinds[k]) + " vs Lin)");
        return false;
      }
    }
  }
  return true;
}

// The seeded subset of short words must match the chase oracle.
void CheckAgainstChase(const std::vector<std::string>& words, uint64_t seed,
                       const PaperWorld& w, Report* report) {
  std::mt19937_64 rng(seed ^ 0x6368617365ull);
  int checked = 0;
  for (int len = kMinLength; len <= 5; ++len) {
    const size_t first = static_cast<size_t>(len - kMinLength) *
                         kWordsPerLength;
    std::vector<size_t> picks(kWordsPerLength);
    for (int i = 0; i < kWordsPerLength; ++i) picks[i] = first + i;
    std::shuffle(picks.begin(), picks.end(), rng);
    for (int i = 0; i < kOracleWordsPerLength; ++i) {
      const size_t wi = picks[i];
      CertainAnswersResult oracle =
          ComputeCertainAnswers(*w.tbox, w.queries[wi], *w.data);
      Answers expected = oracle.answers;
      std::sort(expected.begin(), expected.end());
      Answers got = w.reference[wi];
      std::sort(got.begin(), got.end());
      if (!oracle.consistent || expected != got) {
        report->Fail("chase oracle disagrees on " + words[wi]);
      }
      ++checked;
    }
  }
  report->Note("chase oracle checked " + std::to_string(checked) + " words");
}

// Replays each traced execution's plan straight through Evaluator::Run on
// the engine's snapshot, at the workload's thread count and at 4.
void ReplayEvaluator(const PaperWorld& w, const PreparedQuery& plan, long op,
                     Tracer* tracer) {
  for (int threads : {kThreads, kReplayThreads}) {
    Evaluator eval(plan.program(), w.engine->snapshot());
    eval.set_join_order_hints(plan.join_order_hints());
    Tracer::Scope span(tracer, threads == kThreads ? "ndl.run" : "ndl.run_t4",
                       op);
    ExecuteResult r = eval.Run(MakeRequest(threads));
    const EvaluationStats& s = r.stats;
    span.Count("generated_tuples", static_cast<double>(s.generated_tuples));
    span.Count("join_emissions", static_cast<double>(s.join_emissions));
    span.Count("index_builds", static_cast<double>(s.index_builds));
    span.Count("batch_probes", static_cast<double>(s.batch_probes));
    span.Count("tasks", static_cast<double>(s.scheduler_tasks));
    span.Count("morsel_batches", static_cast<double>(s.morsel_batches));
    span.Count("steals", static_cast<double>(s.steals));
    span.Count("slowest_task_ms", s.slowest_task_ms);
  }
}

void AddLayerMetrics(const SpanLog& log, Report* report) {
  const std::vector<double> exec = log.Durations("engine.execute");
  const std::vector<double> run = log.Durations("ndl.run");
  report->AddLayer("engine.execute_ms", Mean(exec), "ms");
  report->AddLayer("engine.overhead_ms", Mean(exec) - Mean(run), "ms");
  report->AddLayer("ndl.run_ms", Mean(run), "ms");
  report->AddLayer("ndl.run_p90_ms", Quantile(run, 0.9), "ms");
  report->AddLayer("ndl.run_t4_ms", Mean(log.Durations("ndl.run_t4")), "ms");
  const double n = std::max<double>(1, run.size());
  const double generated = log.SumCount("ndl.run", "generated_tuples");
  const double emissions = log.SumCount("ndl.run", "join_emissions");
  report->AddLayer("ndl.generated_tuples", generated / n, "count");
  report->AddLayer("ndl.join_emissions", emissions / n, "count");
  report->AddLayer("ndl.dedup_yield",
                   emissions > 0 ? generated / emissions : 0, "share");
  for (const char* count : {"index_builds", "batch_probes"}) {
    report->AddLayer(std::string("ndl.") + count,
                     log.SumCount("ndl.run", count) / n, "count");
  }
  // The scheduler's counters come from the 4-thread replay.
  const std::vector<double> run_t4 = log.Durations("ndl.run_t4");
  for (const char* count : {"tasks", "morsel_batches", "steals"}) {
    report->AddLayer(std::string("ndl.") + count,
                     log.SumCount("ndl.run_t4", count) / n, "count");
  }
  const std::vector<double> slowest =
      log.Counts("ndl.run_t4", "slowest_task_ms");
  double share = 0;
  for (size_t i = 0; i < slowest.size() && i < run_t4.size(); ++i) {
    if (run_t4[i] > 0) share += slowest[i] / run_t4[i];
  }
  report->AddLayer("ndl.critical_path_share", share / n, "share");
  const std::vector<double> high = log.Counts("engine.execute", "mem_high");
  report->AddLayer("ndl.mem_high_water_mb",
                   high.empty() ? 0
                                : *std::max_element(high.begin(), high.end()) /
                                      (1024.0 * 1024.0),
                   "MB");
  const std::vector<double> cold = log.Durations("engine.prepare_cold");
  report->AddLayer("engine.prepare_cold_ms", Mean(cold), "ms");
  report->AddLayer("core.rewrite_ms", Mean(log.Durations("core.rewrite")),
                   "ms");
  report->AddLayer("core.clauses",
                   Mean(log.Counts("engine.prepare_cold", "clauses")),
                   "count");
  report->AddLayer("engine.prepare_warm_us",
                   1000.0 * Mean(log.Durations("engine.prepare_warm")), "us");
  report->AddLayer("engine.plan_hit_rate",
                   Mean(log.Counts("engine.prepare_warm", "hit")), "share");
  report->AddLayer("data.freeze_ms", Mean(log.Durations("data.freeze")), "ms");
}

}  // namespace

Report RunPaper(const Args& args, bool trace) {
  Report report;
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(trace, epoch);
  const std::vector<std::string> words = MakeWords();

  // Set-up, repeated; the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<PaperWorld> world;
  for (int rep = 0; rep < kPasses; ++rep) {
    world.reset();
    auto fresh = std::make_unique<PaperWorld>();
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(words, &tracer, fresh.get(), &report)) {
      report.attempted = 1;
      report.failed = 1;
      AddCommonMetrics({0}, PeakRssMb(), &report);
      return report;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    world = std::move(fresh);
  }
  PaperWorld& w = *world;

  // The fixed script: whole cycles, each a seeded order of every (word,
  // rewriter) plan.  A plan is one operation, timed once per cycle.
  std::mt19937_64 rng(args.seed);
  const long per_cycle = static_cast<long>(words.size()) * kNumKinds;
  const long cycles = std::max<long>(
      kPasses,
      std::lround(args.seconds * kNominalOpsPerSecond / per_cycle));
  std::vector<int> script;  // Plan indexes.
  std::vector<int> order(per_cycle);
  std::iota(order.begin(), order.end(), 0);
  for (long c = 0; c < cycles; ++c) {
    std::shuffle(order.begin(), order.end(), rng);
    script.insert(script.end(), order.begin(), order.end());
  }

  const ExecuteRequest request = MakeRequest(kThreads);
  std::vector<OpSample> samples;
  samples.reserve(script.size());
  const Clock::time_point start = Clock::now();
  for (size_t op = 0; op < script.size(); ++op) {
    const int plan = script[op];
    const long rid = static_cast<long>(op);
    ExecuteResult r;
    {
      Tracer::Scope root(&tracer, "bench.op", rid);
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope span(&tracer, "engine.execute", rid);
        r = w.engine->Execute(*w.plans[plan], request);
        span.Count("mem_high", static_cast<double>(r.stats.memory_high_water));
      }
      samples.push_back({plan, MsBetween(t0, Clock::now())});
    }
    ++report.attempted;
    if (!Complete(r) || r.answers != w.reference[plan / kNumKinds]) {
      ++report.failed;
    }
    if (trace) ReplayEvaluator(w, *w.plans[plan], rid, &tracer);
  }
  const Clock::time_point end = Clock::now();

  const double peak_rss_mb = PeakRssMb();  // Before the oracle runs.
  CheckAgainstChase(words, args.seed, w, &report);
  AddLatencyMetrics(samples, &report);
  AddCommonMetrics(setup_s, peak_rss_mb, &report);
  report.Note("paper: " + std::to_string(words.size()) + " words x 3 " +
              "rewriters, " + std::to_string(script.size()) +
              " executions at t" + std::to_string(kThreads));

  if (trace) {
    // Side measurements of set-up's layers, on the measured world.
    for (size_t i = 0; i < w.queries.size(); ++i) {
      RewritingContext ctx(*w.tbox);
      for (RewriterKind kind : kKinds) {
        RewriteOptions options;
        options.arbitrary_instances = true;
        Tracer::Scope span(&tracer, "core.rewrite", static_cast<long>(i));
        RewriteResult rewritten =
            RewriteOmqOrError(&ctx, w.queries[i], kind, options);
        if (!rewritten.ok()) report.Fail("rewrite failed");
      }
      for (RewriterKind kind : kKinds) {
        PrepareOptions prepare;
        prepare.auto_kind = false;
        prepare.kind = kind;
        Tracer::Scope span(&tracer, "engine.prepare_warm",
                           static_cast<long>(i));
        span.Count("hit", w.engine->Prepare(w.queries[i], prepare).cache_hit);
      }
    }
    for (int rep = 0; rep < 3; ++rep) {
      Tracer::Scope span(&tracer, "data.freeze", rep);
      DataSnapshot::FromInstance(*w.data);
    }
    SpanLog log;
    log.Add(tracer);
    AddLayerMetrics(log, &report);
    AddSelfTimes(log, epoch, start, end, static_cast<long>(script.size()),
                 &report);
    if (!args.trace_out.empty()) log.WriteJson(args.trace_out);
  }
  return report;
}

}  // namespace perfbench
}  // namespace owlqr
