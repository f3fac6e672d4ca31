// Evaluator threads read pinned snapshot versions while a writer appends
// the next fifty versions into the tails of the same RowStores
// (data/relation.h): every run must answer exactly as a single-threaded
// run of its version on a chain of its own.  Part of the `sanitize` ctest
// label, so TSan checks the tail appends against the readers' rows and
// ASan the views' lifetimes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rewriters.h"
#include "data/snapshot.h"
#include "ndl/evaluator.h"
#include "util/metrics.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

using Tuples = std::vector<std::vector<int>>;

// Readers evaluate a pinned version (and whatever version the writer last
// published) at 1 and 4 threads while the writer appends fifty versions
// into the same stores' tails.
TEST(SnapshotConcurrencyTest, ReadersOfPinnedVersionsRaceTailAppends) {
  constexpr int kVersions = 50;
  constexpr int kReaders = 3;
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  DataInstance base =
      GenerateDataset(&vocab, *tbox, DatasetConfig{"c", 60, 0.08, 0.12, 5});
  const int r = vocab.InternPredicate("R");
  const int s = vocab.InternPredicate("S");
  const int label = tbox->ExistsConcept(RoleOf(vocab.InternPredicate("P")));
  std::vector<FactBatch> batches;
  for (int b = 0; b < kVersions; ++b) {
    auto ind = [&](int i) {
      std::string name = "v";
      name += std::to_string(b) + "_" + std::to_string(i);
      return vocab.InternIndividual(name);
    };
    // An individual of the generated base data ("c_v<k>").
    std::string base_name = "c_v";
    base_name += std::to_string(b % 60);
    const int old = vocab.InternIndividual(base_name);
    FactBatch batch;
    batch.roles.push_back({r, old, ind(0)});
    batch.roles.push_back({s, ind(0), ind(1)});
    batch.roles.push_back({r, ind(1), old});
    batch.concepts.push_back({label, ind(1)});
    batches.push_back(batch);
  }
  RewritingContext ctx(*tbox);
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult rewritten = RewriteOmqOrError(
      &ctx, SequenceQuery(&vocab, "RSR"), RewriterKind::kTw, options);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status.ToString();
  const NdlProgram& program = rewritten.program;

  auto run = [&program](std::shared_ptr<const DataSnapshot> snapshot,
                        int threads) {
    Evaluator eval(program, std::move(snapshot));
    ExecuteRequest request;
    request.num_threads = threads;
    ExecuteResult result = eval.Run(request);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    std::sort(result.answers.begin(), result.answers.end());
    return result.answers;
  };

  // Expected answers per version, on a chain of its own stores.
  std::vector<Tuples> expected;
  {
    auto chain = DataSnapshot::FromInstance(base);
    expected.push_back(run(chain, 1));
    for (const FactBatch& batch : batches) {
      chain = chain->WithFacts(batch);
      expected.push_back(run(chain, 1));
    }
  }
  ASSERT_NE(expected.front(), expected.back());

  const auto pinned = DataSnapshot::FromInstance(base);
  // Only the writer builds snapshots from here on; its spans show whether
  // it appended in place.
  MetricsRegistry metrics;
  MetricsRegistry::SetGlobal(&metrics);
  std::mutex latest_mutex;
  std::shared_ptr<const DataSnapshot> latest = pinned;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> runs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; !done.load() || i < 2; ++i) {
        std::shared_ptr<const DataSnapshot> snapshot = pinned;
        if (i % 2 == 1) {
          std::lock_guard<std::mutex> lock(latest_mutex);
          snapshot = latest;
        }
        const size_t v = snapshot->version() - 1;
        if (run(snapshot, t % 2 == 0 ? 1 : 4) != expected[v]) ++mismatches;
        ++runs;
      }
    });
  }
  std::thread writer([&] {
    // Start once every reader is under way, and hand the CPU back after
    // each version, so appends land while readers are mid-run.
    while (runs.load() < kReaders) std::this_thread::yield();
    std::shared_ptr<const DataSnapshot> tip = pinned;
    for (const FactBatch& batch : batches) {
      tip = tip->WithFacts(batch);
      {
        std::lock_guard<std::mutex> lock(latest_mutex);
        latest = tip;
      }
      std::this_thread::yield();
    }
    done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  MetricsRegistry::SetGlobal(nullptr);
  // Most versions append in place; the few small relations that outgrow
  // their store's capacity copy once, within the amortised bound.
  int in_place = 0;
  long copied_rows = 0;
  for (const MetricsRegistry::Span& span : metrics.spans()) {
    if (span.name != "snapshot/apply-facts") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key != "copied_rows") continue;
      copied_rows += value;
      if (value == 0) ++in_place;
    }
  }
  EXPECT_GE(in_place, kVersions - 5);
  EXPECT_LE(copied_rows, latest->num_atoms() - pinned->num_atoms());

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(runs.load(), 2L * kReaders);
  EXPECT_EQ(latest->version(), static_cast<uint64_t>(kVersions) + 1);
  EXPECT_EQ(run(latest, 1), expected.back());
  EXPECT_EQ(run(pinned, 4), expected.front());
}

}  // namespace
}  // namespace owlqr
