// Workload "ingest": durable updates with a standing query, then restart.
//
// Engine::Open on a fresh DurableStore in the checkout's work directory,
// with fsync on every acknowledged batch and the default compaction
// threshold (no checkpoint fires while timing).  Base data: the Example 11
// generator at 50,000 individuals (~150k R rows), seeded by --seed.  One
// client applies a seeded script of 16-fact R batches, each introducing one
// new individual, and after each batch runs an incremental Execute of one
// standing prepared Tw query.  An operation is the whole update: from
// submitting the batch to holding the refreshed answers.  The script runs
// kPasses times, each pass on a fresh store with its own set-up.  After the
// last pass the engine is dropped and reopened from the store (segment +
// whole log tail).
//
// Checks: every kCheckEvery-th incremental answer equals a full evaluation
// of the snapshot it was pinned to, run after the pass (an 80 ms evaluation
// between two timed updates slowed the next two or three by 1.2-2.5x); the
// reopened engine answers exactly as before the close; the store recovers
// one record per applied batch.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "store/store.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace perfbench {
namespace {

constexpr int kIndividuals = 50000;
// ~150k R rows.  Rows keeps its dedup hash table at most half full and
// doubles it past that, and WithFacts copies the table with the rows, so an
// apply costs ~30% more once the relation crosses 2^18 = 262,144 rows.  At
// 250k rows that crossing came mid-run, at a seed-dependent batch, and
// moved the median; 150k rows leave ~110k rows (~7,000 batches) of
// headroom in the 2^19-slot table.  Smaller copies also spread less from
// run to run: in interleaved runs the p90 spread was 27% at 280k rows,
// 17-23% at 200k and 14% at 150k.
constexpr double kAverageDegree = 3.0;
constexpr double kLabelProbability = 0.004;
constexpr int kFactsPerBatch = 16;
// Untimed updates after set-up: the first few updates of a fresh engine
// took 1.5-3x as long as the rest.
constexpr int kWarmupBatches = 8;
constexpr int kCheckEvery = 100;
// Updates applied per second on a 4-core x86-64 VM with a local ext4 disk;
// the script holds seconds * rate batches.
constexpr double kNominalUpdatesPerSecond = 120;

using Answers = std::vector<std::vector<int>>;
namespace fs = std::filesystem;

DatasetConfig Config(uint64_t seed) {
  return {"i", kIndividuals,
          kAverageDegree / static_cast<double>(kIndividuals - 1),
          kLabelProbability, 20170100 + seed};
}

// The standing query q(x0) :- R(x0, x1), R(x1, x2), S(x2, x3).
ConjunctiveQuery StandingQuery(Vocabulary* vocab) {
  ConjunctiveQuery q(vocab);
  q.AddBinary("R", "x0", "x1");
  q.AddBinary("R", "x1", "x2");
  q.AddBinary("S", "x2", "x3");
  q.MarkAnswerVariable(q.FindVariable("x0"));
  return q;
}

ExecuteRequest Requery(bool incremental) {
  ExecuteRequest request;
  request.incremental = incremental;
  return request;
}

std::vector<std::string> Names(const Answers& answers,
                               const Vocabulary& vocab) {
  std::vector<std::string> names;
  for (const auto& tuple : answers) {
    std::string row;
    for (int id : tuple) row += vocab.IndividualName(id) + "\t";
    names.push_back(row);
  }
  std::sort(names.begin(), names.end());
  return names;
}

store::NamedFactBatch Named(const FactBatch& batch, const Vocabulary& vocab) {
  store::NamedFactBatch named;
  for (const auto& f : batch.roles) {
    named.roles.push_back({vocab.PredicateName(f.role_id),
                           vocab.IndividualName(f.subject),
                           vocab.IndividualName(f.object)});
  }
  return named;
}

// An incremental answer and the snapshot it was computed on.
struct Pin {
  std::shared_ptr<const DataSnapshot> snapshot;
  Answers answers;
};

// Full evaluation of `plan` on the pinned snapshot; false when its answers
// differ from the incremental ones or the run is incomplete.
bool MatchesFullEvaluation(const PreparedQuery& plan, const Pin& pin) {
  Evaluator eval(plan.program(), pin.snapshot);
  eval.set_join_order_hints(plan.join_order_hints());
  ExecuteResult full = eval.Run(Requery(false));
  if (!Complete(full)) return false;
  Answers expected = std::move(full.answers);
  Answers got = pin.answers;
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  return expected == got;
}

// One opened durable engine plus the state it was built from.
struct IngestWorld {
  Vocabulary vocab;
  std::unique_ptr<TBox> tbox;
  std::unique_ptr<DataInstance> data;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<const PreparedQuery> plan;
  Answers answers;  // The standing query's current answers.
};

EngineOptions DurableOptions(const std::string& dir, Status* status) {
  store::StoreOptions store_options;
  store_options.dir = dir;
  store_options.fsync = true;
  std::shared_ptr<store::DurableStore> durable;
  *status = store::DurableStore::Open(store_options, &durable);
  EngineOptions options;
  options.store = durable;
  return options;
}

bool SetUp(const std::string& dir, uint64_t seed, IngestWorld* w,
           Report* report) {
  fs::remove_all(dir);
  w->tbox = MakeExample11TBox(&w->vocab);
  w->data = std::make_unique<DataInstance>(
      GenerateDataset(&w->vocab, *w->tbox, Config(seed)));
  Status s;
  EngineOptions options = DurableOptions(dir, &s);
  if (s.ok()) {
    w->engine = Engine::Open(*w->tbox, *w->data, nullptr, options, &s);
  }
  if (!s.ok()) {
    report->Fail("open: " + s.ToString());
    return false;
  }
  PrepareResult prepared =
      w->engine->Prepare(StandingQuery(&w->vocab), TwOptions());
  if (!prepared.ok()) {
    report->Fail("prepare: " + prepared.status.ToString());
    return false;
  }
  w->plan = prepared.query;
  // Warm-up: the first incremental run seeds the retained state.
  ExecuteResult r = w->engine->Execute(*w->plan, Requery(true));
  if (!Complete(r)) {
    report->Fail("warm-up: " + r.status.ToString());
    return false;
  }
  w->answers = std::move(r.answers);
  return true;
}

// 16 R facts around one new individual: 8 out-edges, 8 in-edges.
FactBatch MakeBatch(std::mt19937_64* rng, int index, Vocabulary* vocab) {
  const int r = vocab->FindPredicate("R");
  const int fresh = vocab->InternIndividual("new_" + std::to_string(index));
  FactBatch batch;
  for (int i = 0; i < kFactsPerBatch; ++i) {
    const int other = vocab->FindIndividual(
        "i_v" + std::to_string((*rng)() % kIndividuals));
    if (i % 2 == 0) {
      batch.roles.push_back({r, fresh, other});
    } else {
      batch.roles.push_back({r, other, fresh});
    }
  }
  return batch;
}

}  // namespace

Report RunIngest(const Args& args, bool trace) {
  Report report;
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(trace, epoch);
  const std::string dir = args.work_dir + "/ingest-store";
  const std::string side_dir = args.work_dir + "/ingest-side";
  fs::create_directories(args.work_dir);

  // The fixed script: seconds * rate batches in all, split over kPasses
  // passes that each start from a fresh store and apply the same batches.
  const long length = std::max<long>(
      kCheckEvery, static_cast<long>(args.seconds * kNominalUpdatesPerSecond /
                                     kPasses));
  std::vector<double> setup_s, update_ms, check_ms;
  std::vector<OpSample> samples;
  long incremental = 0;
  std::unique_ptr<IngestWorld> world;
  std::shared_ptr<store::DurableStore> side_store;
  uint64_t version = 0;
  Clock::time_point start, end;
  for (int pass = 0; pass < kPasses; ++pass) {
    world.reset();
    world = std::make_unique<IngestWorld>();
    IngestWorld& w = *world;
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(dir, args.seed, &w, &report)) {
      report.attempted = 1;
      report.failed = 1;
      AddCommonMetrics({0}, PeakRssMb(), &report);
      return report;
    }
    // Generated before timing; the same batches in every pass.  The first
    // kWarmupBatches are the warm-up, applied untimed.
    std::mt19937_64 rng(args.seed);
    std::vector<FactBatch> batches;
    for (long i = 0; i < kWarmupBatches + length; ++i) {
      batches.push_back(MakeBatch(&rng, static_cast<int>(i), &w.vocab));
    }
    for (int i = 0; i < kWarmupBatches; ++i) {
      uint64_t got = 0;
      ExecuteResult r;
      if (w.engine->ApplyFactsOrError(batches[i], &got).ok()) {
        r = w.engine->Execute(*w.plan, Requery(true));
      }
      if (!Complete(r)) {
        report.Fail("warm-up update: " + r.status.ToString());
        report.attempted = 1;
        report.failed = 1;
        AddCommonMetrics({0}, PeakRssMb(), &report);
        return report;
      }
      w.answers = std::move(r.answers);
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);

    // Side chains for the traced run: a snapshot chain and a store that see
    // the same batches as the engine.
    std::shared_ptr<const DataSnapshot> side_snapshot;
    side_store.reset();
    if (trace) {
      if (pass == 0) {
        Tracer::Scope span(&tracer, "data.freeze", 0);
        side_snapshot = DataSnapshot::FromInstance(*w.data);
      } else {
        // Untraced: later passes' set-ups fall inside the window whose
        // spans make up the per-operation self times.
        side_snapshot = DataSnapshot::FromInstance(*w.data);
      }
      for (int i = 0; i < kWarmupBatches; ++i) {
        SnapshotDelta ignored;
        side_snapshot = side_snapshot->WithFacts(batches[i], &ignored);
      }
      fs::remove_all(side_dir);
      store::StoreOptions side_options;
      side_options.dir = side_dir;
      side_options.fsync = true;
      store::RecoveredState ignored;
      Vocabulary side_vocab;
      // A fresh store takes a checkpoint before its first append.
      if (!store::DurableStore::Open(side_options, &side_store).ok() ||
          !side_store->Recover(&side_vocab, w.engine->tbox_fingerprint(), 0,
                               &ignored)
               .ok() ||
          !side_store->Checkpoint(*side_snapshot, w.vocab).ok()) {
        report.Fail("side store");
        side_store.reset();
      }
    }

    std::vector<Pin> pins;
    version = w.engine->snapshot_version();
    if (pass == 0) start = Clock::now();
    for (long op = 0; op < length; ++op) {
      ++report.attempted;
      const FactBatch& batch = batches[kWarmupBatches + op];
      Status applied;
      ExecuteResult r;
      uint64_t got = 0;
      {
        Tracer::Scope root(&tracer, "bench.op", op);
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Scope span(&tracer, "engine.apply", op);
          applied = w.engine->ApplyFactsOrError(batch, &got);
        }
        {
          Tracer::Scope span(&tracer, "engine.requery", op);
          r = w.engine->Execute(*w.plan, Requery(true));
        }
        update_ms.push_back(MsBetween(t0, Clock::now()));
        samples.push_back({op, update_ms.back()});
      }
      if (!applied.ok() || got != version + 1 || !Complete(r) ||
          r.snapshot_version != got) {
        ++report.failed;
        continue;
      }
      version = got;
      if (r.incremental) ++incremental;
      w.answers = std::move(r.answers);
      if ((op + 1) % kCheckEvery == 0) {
        pins.push_back({w.engine->snapshot(), w.answers});
        if (pins.back().snapshot->version() != got) ++report.failed;
      }
      if (trace) {
        SnapshotDelta delta;
        {
          Tracer::Scope span(&tracer, "data.with_facts", op);
          side_snapshot = side_snapshot->WithFacts(batch, &delta);
          double touched = 0;
          for (const auto& [role, rows] : delta.role_rows) {
            touched +=
                static_cast<double>(side_snapshot->Role(role)->rows().size());
          }
          span.Count("touched_rows", touched);
        }
        if (side_store != nullptr) {
          const store::NamedFactBatch named = Named(batch, w.vocab);
          Tracer::Scope span(&tracer, "store.append", op);
          if (!side_store->AppendBatch(got, named).ok()) {
            report.Fail("side store append");
          }
        }
      }
    }
    end = Clock::now();
    for (const Pin& pin : pins) {
      const Clock::time_point t0 = Clock::now();
      if (!MatchesFullEvaluation(*w.plan, pin)) ++report.failed;
      check_ms.push_back(MsBetween(t0, Clock::now()));
    }
  }
  IngestWorld& w = *world;

  // Restart: drop the engine, reopen from the store, answer again.
  const std::vector<std::string> before = Names(w.answers, w.vocab);
  const uint64_t fingerprint = w.engine->tbox_fingerprint();
  const long applied_batches = static_cast<long>(version) - 1;
  w.plan.reset();
  w.engine.reset();
  if (trace) {
    // Store-side recovery on its own, on a throwaway handle.
    Vocabulary vocab;
    MakeExample11TBox(&vocab);
    Status s;
    EngineOptions options = DurableOptions(dir, &s);
    store::RecoveredState state;
    Tracer::Scope span(&tracer, "store.recover", 0);
    if (s.ok()) s = options.store->Recover(&vocab, fingerprint, 0, &state);
    span.Count("records", static_cast<double>(state.tail.size()));
    if (!s.ok()) report.Fail("store recover: " + s.ToString());
  }
  double recover_s = 0;
  {
    Vocabulary vocab;
    std::unique_ptr<TBox> tbox = MakeExample11TBox(&vocab);
    DataInstance empty(&vocab);
    const Clock::time_point t0 = Clock::now();
    Status s;
    EngineOptions options = DurableOptions(dir, &s);
    std::unique_ptr<Engine> reopened;
    {
      Tracer::Scope span(&tracer, "engine.open", 0);
      if (s.ok()) reopened = Engine::Open(*tbox, empty, nullptr, options, &s);
    }
    ExecuteResult r;
    if (s.ok()) {
      PrepareResult prepared =
          reopened->Prepare(StandingQuery(&vocab), TwOptions());
      if (prepared.ok()) r = reopened->Execute(*prepared.query);
    }
    recover_s = MsBetween(t0, Clock::now()) / 1000.0;
    if (!s.ok() || !Complete(r)) {
      report.Fail("reopen: " + s.ToString() + " / " + r.status.ToString());
    } else {
      if (Names(r.answers, vocab) != before) {
        report.Fail("reopened engine answers differ from before the close");
      }
      const store::StoreCounters counters = reopened->store()->counters();
      if (static_cast<long>(counters.recovered_records) != applied_batches) {
        report.Fail("recovered " + std::to_string(counters.recovered_records) +
                    " records for " + std::to_string(applied_batches) +
                    " batches");
      }
      if (trace) {
        Tracer::Scope span(&tracer, "store.checkpoint", 0);
        if (!reopened->Checkpoint().ok()) report.Fail("checkpoint");
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double log_bytes_per_fact =
      side_store != nullptr
          ? static_cast<double>(side_store->counters().log_bytes) /
                static_cast<double>(length * kFactsPerBatch)
          : 0;
  side_store.reset();
  fs::remove_all(dir);
  fs::remove_all(side_dir);

  AddLatencyMetrics(samples, &report);
  AddCommonMetrics(setup_s, peak_rss_mb, &report);
  report.Note("ingest: " + std::to_string(kPasses) + " passes of " +
              std::to_string(length) + " batches of " +
              std::to_string(kFactsPerBatch) + " facts; update_p50_ms " +
              std::to_string(Quantile(update_ms, 0.5)) + ", update_p90_ms " +
              std::to_string(Quantile(update_ms, 0.9)) + ", recover_s " +
              std::to_string(recover_s) + ", full query p50 " +
              std::to_string(Quantile(check_ms, 0.5)) + " ms");

  if (trace) {
    SpanLog log;
    log.Add(tracer);
    const double n =
        std::max<double>(1, static_cast<double>(length * kPasses));
    report.AddLayer("engine.apply_ms", Mean(log.Durations("engine.apply")),
                    "ms");
    report.AddLayer("engine.requery_ms",
                    Mean(log.Durations("engine.requery")), "ms");
    report.AddLayer("engine.incremental_rate", incremental / n, "share");
    report.AddLayer("data.with_facts_ms",
                    Mean(log.Durations("data.with_facts")), "ms");
    report.AddLayer("data.touched_rows",
                    log.SumCount("data.with_facts", "touched_rows") / n,
                    "count");
    report.AddLayer("data.freeze_ms", Mean(log.Durations("data.freeze")),
                    "ms");
    const std::vector<double> append = log.Durations("store.append");
    report.AddLayer("store.append_ms", Mean(append), "ms");
    report.AddLayer("store.append_p90_ms", Quantile(append, 0.9), "ms");
    report.AddLayer("store.log_bytes_per_fact",
                    log_bytes_per_fact, "bytes");
    const double recover_ms = Mean(log.Durations("store.recover"));
    const double open_ms = Mean(log.Durations("engine.open"));
    const double records = log.SumCount("store.recover", "records");
    report.AddLayer("store.recover_ms", recover_ms, "ms");
    report.AddLayer("store.replay_ms", open_ms - recover_ms, "ms");
    report.AddLayer("store.replay_ms_per_record",
                    records > 0 ? (open_ms - recover_ms) / records : 0, "ms");
    report.AddLayer("store.checkpoint_ms",
                    Mean(log.Durations("store.checkpoint")), "ms");
    AddSelfTimes(log, epoch, start, end, length * kPasses, &report);
    if (!args.trace_out.empty()) log.WriteJson(args.trace_out);
  }
  return report;
}

}  // namespace perfbench
}  // namespace owlqr
