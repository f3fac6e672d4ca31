// Durability soak (DESIGN.md §14): a store-backed engine lives through
// several process incarnations.  Within each, executor threads hammer
// Execute while a single updater applies fact batches and occasionally
// forces a checkpoint; a tiny compaction threshold makes the automatic
// inline compaction fire constantly, and a tiny residency budget makes
// every reopen start cold so executions race the lazy column faults.
// Between incarnations the engine is destroyed and reopened through
// Engine::Open — recovery must land on exactly the acknowledged version.
//
// Correctness oracle: an ordinary in-memory engine (its own vocabulary,
// never restarted) applies the same batches in the same order.  Because a
// restarted process interns ids in its own order, answers are compared as
// NAME tuples.  Expected answers for version v are recorded BEFORE v is
// installed in the durable engine, so an executor can always check the
// version it pinned.  At each quiesce the governor budget must account to
// zero.  Part of the `sanitize` and `soak` ctest labels.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "store/store.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

constexpr int kIncarnations = 4;
constexpr int kBatchesPerIncarnation = 5;
constexpr int kExecutorThreads = 4;
const char* const kWords[] = {"RS", "RSR", "RRSR"};
constexpr int kNumQueries = 3;

// One "process": its own vocabulary, the Example 11 ontology, the
// deterministic seed dataset, and an engine — durable or oracle.
struct Incarnation {
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<TBox> tbox;
  std::unique_ptr<Engine> engine;
  std::vector<ConjunctiveQuery> queries;
  Status open_status;
};

Incarnation OpenIncarnation(const std::string& store_dir) {
  Incarnation inc;
  inc.vocab = std::make_unique<Vocabulary>();
  inc.tbox = MakeExample11TBox(inc.vocab.get());
  DataInstance data = GenerateDataset(inc.vocab.get(), *inc.tbox,
                                      DatasetConfig{"c", 40, 0.1, 0.12, 13});

  EngineOptions options;
  options.plan_cache_capacity = 4;
  options.governor.max_memory_bytes = 32 << 20;
  options.answer_cache_capacity = 16;
  if (!store_dir.empty()) {
    store::StoreOptions store_options;
    store_options.dir = store_dir;
    // Throughput over durability for the soak: the fsync-on-every-append
    // policy is crash-correctness, which store_recovery_test.cc owns.
    store_options.fsync = false;
    // A few KB of log triggers the inline compaction almost every batch.
    store_options.compact_log_bytes = 4096;
    std::shared_ptr<store::DurableStore> durable;
    Status status = store::DurableStore::Open(store_options, &durable);
    if (!status.ok()) {
      inc.open_status = status;
      return inc;
    }
    options.store = std::move(durable);
    // Fits roughly one small column: every reopen starts mostly cold and
    // the executor threads race the faults.
    options.store_resident_bytes = 256;
  }
  inc.engine =
      Engine::Open(*inc.tbox, data, nullptr, options, &inc.open_status);
  if (inc.engine != nullptr) {
    for (const char* word : kWords) {
      inc.queries.push_back(SequenceQuery(inc.vocab.get(), word));
    }
  }
  return inc;
}

// The same deterministic batch in any vocabulary: an R/S chain plus one
// exists-P witness (the shape engine_soak_test.cc uses), at the NAME level.
FactBatch MakeBatch(Incarnation* inc, int b) {
  Vocabulary* vocab = inc->vocab.get();
  const int r = vocab->InternPredicate("R");
  const int s = vocab->InternPredicate("S");
  const int label =
      inc->tbox->ExistsConcept(RoleOf(vocab->InternPredicate("P")));
  const std::string prefix = "soak" + std::to_string(b) + "_";
  auto ind = [&](int i) {
    return vocab->InternIndividual(prefix + std::to_string(i));
  };
  FactBatch batch;
  batch.roles.push_back({r, ind(0), ind(1)});
  batch.roles.push_back({s, ind(1), ind(2)});
  batch.roles.push_back({r, ind(2), ind(3)});
  batch.roles.push_back({r, ind(3), ind(4)});
  batch.concepts.push_back({label, ind(4)});
  return batch;
}

// An answer set as sorted name tuples — comparable across vocabularies.
std::set<std::string> NameTuples(const std::vector<std::vector<int>>& answers,
                                 const Vocabulary& vocab) {
  std::set<std::string> out;
  for (const std::vector<int>& tuple : answers) {
    std::string key;
    for (int id : tuple) {
      key += vocab.IndividualName(id);
      key += ',';
    }
    out.insert(key);
  }
  return out;
}

struct ExpectedAnswers {
  std::mutex mu;
  // version -> per-query expected name tuples.
  std::map<uint64_t, std::vector<std::set<std::string>>> by_version;

  void Record(uint64_t version, std::vector<std::set<std::string>> answers) {
    std::lock_guard<std::mutex> lock(mu);
    by_version[version] = std::move(answers);
  }
  bool Lookup(uint64_t version, int query,
              std::set<std::string>* out) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_version.find(version);
    if (it == by_version.end()) return false;
    *out = it->second[query];
    return true;
  }
};

std::vector<std::set<std::string>> SingleShot(Incarnation* inc) {
  std::vector<std::set<std::string>> out;
  for (int q = 0; q < kNumQueries; ++q) {
    Status status;
    ExecuteResult result = inc->engine->Query(inc->queries[q], {}, &status);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.partial);
    out.push_back(NameTuples(result.answers, *inc->vocab));
  }
  return out;
}

TEST(StoreSoakTest, RestartChaosKeepsAnswersExactAcrossIncarnations) {
  std::string dir_template = ::testing::TempDir() + "store_soak.XXXXXX";
  std::vector<char> dir_buf(dir_template.begin(), dir_template.end());
  dir_buf.push_back('\0');
  ASSERT_NE(mkdtemp(dir_buf.data()), nullptr);
  const std::string store_dir(dir_buf.data());

  // The oracle lives across all incarnations and is never restarted.
  Incarnation oracle = OpenIncarnation("");
  ASSERT_NE(oracle.engine, nullptr) << oracle.open_status.ToString();

  ExpectedAnswers expected;
  expected.Record(1, SingleShot(&oracle));

  int next_batch = 0;
  uint64_t acknowledged_version = 1;

  for (int life = 0; life < kIncarnations; ++life) {
    SCOPED_TRACE("incarnation " + std::to_string(life));
    Incarnation inc = OpenIncarnation(store_dir);
    ASSERT_NE(inc.engine, nullptr) << inc.open_status.ToString();
    // Recovery must land exactly on the last acknowledged version…
    ASSERT_EQ(inc.engine->snapshot_version(), acknowledged_version);
    // …and its warm single-shot answers must match the oracle's.
    {
      std::vector<std::set<std::string>> warm = SingleShot(&inc);
      for (int q = 0; q < kNumQueries; ++q) {
        std::set<std::string> want;
        ASSERT_TRUE(expected.Lookup(acknowledged_version, q, &want));
        EXPECT_EQ(warm[q], want) << "query " << q;
      }
    }

    // Intern this incarnation's batch names before the executors start:
    // the Vocabulary is not thread-safe, and they read names from it.
    std::vector<FactBatch> batches;
    for (int b = 0; b < kBatchesPerIncarnation; ++b) {
      batches.push_back(MakeBatch(&inc, next_batch + b));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> verified{0};
    std::vector<std::thread> executors;
    for (int t = 0; t < kExecutorThreads; ++t) {
      executors.emplace_back([&, t] {
        std::mt19937 rng(1000 * life + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const int q = static_cast<int>(rng() % kNumQueries);
          ExecuteRequest request;
          request.incremental = (rng() % 2) == 0;
          Status status;
          ExecuteResult result =
              inc.engine->Query(inc.queries[q], request, &status);
          ASSERT_TRUE(status.ok()) << status.ToString();
          if (!result.status.ok() || result.partial) continue;
          std::set<std::string> want;
          // Expected answers are recorded before the version installs, so
          // any pinned version is already in the map.
          ASSERT_TRUE(expected.Lookup(result.snapshot_version, q, &want))
              << "version " << result.snapshot_version;
          EXPECT_EQ(NameTuples(result.answers, *inc.vocab), want)
              << "query " << q << " at version " << result.snapshot_version;
          verified.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::mt19937 rng(7000 + life);
    for (int b = 0; b < kBatchesPerIncarnation; ++b) {
      // Oracle first: record version v's expected answers before the
      // durable engine can serve v.
      uint64_t oracle_version = 0;
      ASSERT_TRUE(oracle.engine
                      ->ApplyFactsOrError(MakeBatch(&oracle, next_batch),
                                          &oracle_version)
                      .ok());
      expected.Record(oracle_version, SingleShot(&oracle));

      uint64_t version = 0;
      ASSERT_TRUE(inc.engine->ApplyFactsOrError(batches[b], &version).ok());
      ASSERT_EQ(version, oracle_version);
      acknowledged_version = version;
      ++next_batch;

      if (rng() % 3 == 0) {
        // An explicit checkpoint racing executions and the inline
        // compaction path.
        EXPECT_TRUE(inc.engine->Checkpoint().ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : executors) t.join();
    EXPECT_GT(verified.load(), 0);

    // Quiesce: once the retained caches release their charges, every byte
    // of the budget must be back.
    inc.engine->ClearIncrementalState();
    inc.engine->ClearAnswerCache();
    EXPECT_EQ(inc.engine->governor_counters().memory_used, 0u);
    // The tiny threshold must have compacted at least once by now.
    EXPECT_GE(inc.engine->store()->counters().segments_written, 1u);
  }

  // One last cold start: the full history survived every restart.
  Incarnation last = OpenIncarnation(store_dir);
  ASSERT_NE(last.engine, nullptr) << last.open_status.ToString();
  ASSERT_EQ(last.engine->snapshot_version(), acknowledged_version);
  std::vector<std::set<std::string>> warm = SingleShot(&last);
  for (int q = 0; q < kNumQueries; ++q) {
    std::set<std::string> want;
    ASSERT_TRUE(expected.Lookup(acknowledged_version, q, &want));
    EXPECT_EQ(warm[q], want) << "query " << q;
  }
}

}  // namespace
}  // namespace owlqr
