// Crash-recovery fault injection for the durable store (DESIGN.md §14):
//
//  - a crash-point sweep truncating the fact log at EVERY byte boundary of
//    its final record: reopening must recover exactly the longest valid
//    record prefix, never crash, and answer byte-identically to an
//    in-memory oracle engine fed the same surviving batches;
//  - single-bit flips over every byte of the log: a flipped header is a
//    clean DATA_LOSS, a flipped record truncates the log back to the last
//    intact record before it;
//  - single-bit flips over every byte of every segment file and of
//    CURRENT: all of them are checksum- or header-covered, so recovery
//    must refuse (field-naming Status) rather than serve corrupt columns;
//  - the recovery state machine's edges: a LOG with no CURRENT is data
//    loss, a fingerprint mismatch is refused, a fully-cold recovery
//    (store_resident_bytes = 1) still answers exactly, incremental
//    catch-up included, and an auto prepare chooses its rewriter as over
//    resident columns;
//  - replaying the log tail copies no relation (O(record), not O(|A|));
//  - the store's counters are live: each durable batch is one appended log
//    record, a reopen replays exactly those records, and executions never
//    touch the store.
//
// Engines are compared ACROSS vocabularies (a restarted process interns in
// a different order), so answers are compared by individual name, not id.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "store/format.h"
#include "store/fs.h"
#include "store/log.h"
#include "store/store.h"
#include "syntax/parser.h"
#include "util/metrics.h"

namespace owlqr {
namespace {

constexpr char kOntology[] = "A SUB B\nEX R SUB C\n";
constexpr char kSeedData[] = "A(seed0). R(seed0, seed1).\n";
constexpr char kQueryB[] = "q(x) :- B(x)";
constexpr char kQueryC[] = "q(x) :- C(x)";

// A batch at the name level, so it can be interned into any vocabulary.
struct NamedBatch {
  std::vector<std::pair<std::string, std::string>> concepts;  // (A, a)
  std::vector<std::array<std::string, 3>> roles;              // (R, a, b)
};

NamedBatch MakeBatch(int b) {
  const std::string p = "ind" + std::to_string(b) + "_";
  NamedBatch batch;
  batch.concepts.push_back({"A", p + "0"});
  batch.roles.push_back({"R", p + "0", p + "1"});
  batch.roles.push_back({"R", p + "1", p + "2"});
  return batch;
}

FactBatch Intern(const NamedBatch& named, Vocabulary* vocab) {
  FactBatch batch;
  for (const auto& [concept_name, ind] : named.concepts) {
    batch.concepts.push_back({vocab->InternConcept(concept_name),
                              vocab->InternIndividual(ind)});
  }
  for (const auto& [role, a, b] : named.roles) {
    batch.roles.push_back({vocab->InternPredicate(role),
                           vocab->InternIndividual(a),
                           vocab->InternIndividual(b)});
  }
  return batch;
}

std::string MakeTempDir(const char* tag) {
  std::string templ = ::testing::TempDir() + tag + ".XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

// One self-contained engine: its own vocabulary + parsed TBox + seed data,
// optionally store-backed.  Everything a "process" would rebuild at start.
struct Instance {
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<TBox> tbox;
  std::unique_ptr<Engine> engine;
  Status open_status;
};

Instance OpenInstance(const std::string& store_dir,
                      size_t resident_bytes = 0,
                      const std::string& ontology = kOntology) {
  Instance inst;
  inst.vocab = std::make_unique<Vocabulary>();
  inst.tbox = std::make_unique<TBox>(inst.vocab.get());
  std::string error;
  EXPECT_TRUE(ParseTBox(ontology, inst.tbox.get(), &error)) << error;
  DataInstance data(inst.vocab.get());
  EXPECT_TRUE(ParseData(kSeedData, &data, &error)) << error;

  EngineOptions options;
  if (!store_dir.empty()) {
    store::StoreOptions store_options;
    store_options.dir = store_dir;
    std::shared_ptr<store::DurableStore> durable;
    Status status = store::DurableStore::Open(store_options, &durable);
    if (!status.ok()) {
      inst.open_status = status;
      return inst;
    }
    options.store = std::move(durable);
    options.store_resident_bytes = resident_bytes;
  }
  inst.engine =
      Engine::Open(*inst.tbox, data, nullptr, options, &inst.open_status);
  return inst;
}

// Sorted answer names for `query_text` — the cross-vocabulary currency.
std::multiset<std::string> AnswerNames(Instance* inst,
                                       const std::string& query_text) {
  std::string error;
  auto query = ParseQuery(query_text, inst->vocab.get(), &error);
  EXPECT_TRUE(query.has_value()) << error;
  Status status;
  ExecuteResult result = inst->engine->Query(*query, {}, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  std::multiset<std::string> names;
  for (const auto& tuple : result.answers) {
    for (int id : tuple) names.insert(inst->vocab->IndividualName(id));
  }
  return names;
}

// The in-memory oracle: a fresh engine over the seed data plus the first
// `num_batches` batches, no store anywhere near it.
std::multiset<std::string> OracleNames(int num_batches,
                                       const std::string& query_text) {
  Instance oracle = OpenInstance("");
  EXPECT_NE(oracle.engine, nullptr) << oracle.open_status.ToString();
  for (int b = 0; b < num_batches; ++b) {
    EXPECT_TRUE(oracle.engine
                    ->ApplyFactsOrError(Intern(MakeBatch(b),
                                               oracle.vocab.get()))
                    .ok());
  }
  return AnswerNames(&oracle, query_text);
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadBytes(const std::string& path) {
  std::string out;
  Status status = store::ReadWholeFile(path, &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

// Copies a store directory (flat files + one level of segment dirs) so a
// fault can be injected without disturbing the pristine original.
void CopyDir(const std::string& from, const std::string& to) {
  ASSERT_TRUE(store::MakeDir(to).ok());
  std::vector<std::string> entries;
  ASSERT_TRUE(store::ListDir(from, &entries).ok());
  for (const std::string& name : entries) {
    const std::string src = from + "/" + name;
    if (store::IsDirectory(src)) {
      CopyDir(src, to + "/" + name);
    } else {
      WriteBytes(to + "/" + name, ReadBytes(src));
    }
  }
}

// Builds the store under test: seed data, `num_batches` applied batches,
// engine closed (as a crash would leave it, modulo the torn tail the
// individual tests then inject).
void BuildStore(const std::string& dir, int num_batches) {
  Instance inst = OpenInstance(dir);
  ASSERT_NE(inst.engine, nullptr) << inst.open_status.ToString();
  for (int b = 0; b < num_batches; ++b) {
    uint64_t version = 0;
    ASSERT_TRUE(inst.engine
                    ->ApplyFactsOrError(Intern(MakeBatch(b), inst.vocab.get()),
                                        &version)
                    .ok());
    ASSERT_EQ(version, static_cast<uint64_t>(b) + 2);
  }
}

// Byte offsets of each record boundary in a log image: offsets[k] is where
// record k starts; offsets.back() is the end of the last record.
std::vector<size_t> RecordBoundaries(const std::string& log_bytes) {
  std::vector<store::LogRecord> records;
  size_t valid_end = 0;
  size_t dropped = 0;
  Status status =
      store::ScanLog(reinterpret_cast<const uint8_t*>(log_bytes.data()),
                     log_bytes.size(), &records, &valid_end, &dropped);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(valid_end, log_bytes.size());
  std::vector<size_t> offsets;
  offsets.push_back(store::kFileHeaderBytes);
  for (const store::LogRecord& record : records) {
    std::string encoded;
    store::EncodeLogRecord(record, &encoded);
    offsets.push_back(offsets.back() + encoded.size());
  }
  EXPECT_EQ(offsets.back(), log_bytes.size());
  return offsets;
}

// Replaying the log tail appends each record at the tail of the stores
// the segment load just filled: no relation is copied, whatever its size.
TEST(StoreRecoveryTest, TailReplayCopiesNoRelation) {
  constexpr int kRecords = 8;
  const std::string dir = MakeTempDir("store_replay_copies");
  BuildStore(dir, kRecords);

  MetricsRegistry metrics;
  MetricsRegistry::SetGlobal(&metrics);
  Instance reopened = OpenInstance(dir);
  MetricsRegistry::SetGlobal(nullptr);
  ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
  EXPECT_EQ(reopened.engine->snapshot_version(),
            static_cast<uint64_t>(kRecords) + 1);
  long replays = 0;
  long copied_rows = 0;
  for (const MetricsRegistry::Span& span : metrics.spans()) {
    if (span.name != "snapshot/apply-facts") continue;
    ++replays;
    for (const auto& [key, value] : span.attrs) {
      if (key == "copied_rows") copied_rows += value;
    }
  }
  EXPECT_EQ(replays, kRecords);
  EXPECT_EQ(copied_rows, 0);
  EXPECT_EQ(AnswerNames(&reopened, kQueryC), OracleNames(kRecords, kQueryC));
}

void ExpectSameCounters(const store::StoreCounters& a,
                        const store::StoreCounters& b) {
  EXPECT_EQ(a.log_bytes, b.log_bytes);
  EXPECT_EQ(a.log_records, b.log_records);
  EXPECT_EQ(a.appended_batches, b.appended_batches);
  EXPECT_EQ(a.log_dropped_bytes, b.log_dropped_bytes);
  EXPECT_EQ(a.segments_written, b.segments_written);
  EXPECT_EQ(a.compactions_failed, b.compactions_failed);
  EXPECT_EQ(a.recovered_records, b.recovered_records);
}

// K durable batches are K appended log records, a reopen replays exactly
// those K, and reads never pay for durability: executions on the
// store-backed engine leave every store counter where it was.
TEST(StoreRecoveryTest, CountersTrackAppendsReplayAndIdleReads) {
  constexpr int kBatches = 5;
  const std::string dir = MakeTempDir("store_counters");
  {
    Instance inst = OpenInstance(dir);
    ASSERT_NE(inst.engine, nullptr) << inst.open_status.ToString();
    const store::StoreCounters before = inst.engine->store()->counters();
    for (int b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(inst.engine
                      ->ApplyFactsOrError(
                          Intern(MakeBatch(b), inst.vocab.get()))
                      .ok());
    }
    const store::StoreCounters after = inst.engine->store()->counters();
    EXPECT_EQ(after.appended_batches, before.appended_batches + kBatches);
    EXPECT_EQ(after.log_records, before.log_records + kBatches);
    EXPECT_GT(after.log_bytes, before.log_bytes);
  }

  Instance reopened = OpenInstance(dir);
  ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
  const store::StoreCounters recovered = reopened.engine->store()->counters();
  EXPECT_EQ(recovered.recovered_records, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(recovered.appended_batches, 0u);
  EXPECT_GT(reopened.engine->recovery_ms(), 0.0);

  std::string error;
  auto query = ParseQuery(kQueryC, reopened.vocab.get(), &error);
  ASSERT_TRUE(query.has_value()) << error;
  PrepareResult prepared = reopened.engine->Prepare(*query);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  EXPECT_TRUE(reopened.engine->Prepare(*query).cache_hit);
  ExecuteRequest incremental;
  incremental.incremental = true;
  for (int i = 0; i < 8; ++i) {
    ExecuteResult result = reopened.engine->Execute(
        *prepared.query, i % 2 == 0 ? ExecuteRequest{} : incremental);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }
  ExpectSameCounters(reopened.engine->store()->counters(), recovered);
}

TEST(StoreRecoveryTest, RoundTripPreservesVersionAndAnswers) {
  const std::string dir = MakeTempDir("store_roundtrip");
  BuildStore(dir, 3);

  Instance reopened = OpenInstance(dir);
  ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
  EXPECT_EQ(reopened.engine->snapshot_version(), 4u);
  EXPECT_EQ(AnswerNames(&reopened, kQueryB), OracleNames(3, kQueryB));
  EXPECT_EQ(AnswerNames(&reopened, kQueryC), OracleNames(3, kQueryC));
  // The reopened engine keeps serving updates durably.
  uint64_t version = 0;
  ASSERT_TRUE(reopened.engine
                  ->ApplyFactsOrError(
                      Intern(MakeBatch(3), reopened.vocab.get()), &version)
                  .ok());
  EXPECT_EQ(version, 5u);
  reopened.engine.reset();

  Instance again = OpenInstance(dir);
  ASSERT_NE(again.engine, nullptr) << again.open_status.ToString();
  EXPECT_EQ(again.engine->snapshot_version(), 5u);
  EXPECT_EQ(AnswerNames(&again, kQueryB), OracleNames(4, kQueryB));
}

TEST(StoreRecoveryTest, CrashPointSweepOverFinalRecord) {
  constexpr int kBatches = 3;
  const std::string dir = MakeTempDir("store_sweep");
  BuildStore(dir, kBatches);
  const std::string log_bytes = ReadBytes(dir + "/LOG");
  const std::vector<size_t> offsets = RecordBoundaries(log_bytes);
  ASSERT_EQ(offsets.size(), static_cast<size_t>(kBatches) + 1);

  // Oracle answers per surviving-prefix length, computed once.
  std::vector<std::multiset<std::string>> oracle_b, oracle_c;
  for (int k = 0; k <= kBatches; ++k) {
    oracle_b.push_back(OracleNames(k, kQueryB));
    oracle_c.push_back(OracleNames(k, kQueryC));
  }

  // Truncate at every byte boundary inside the FINAL record (the torn tail
  // a crash mid-append leaves), inclusive of both "record fully missing"
  // and "record fully present".
  const size_t last_start = offsets[kBatches - 1];
  for (size_t cut = last_start; cut <= log_bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string trial = MakeTempDir("store_sweep_cut");
    CopyDir(dir, trial);
    WriteBytes(trial + "/LOG", log_bytes.substr(0, cut));

    Instance reopened = OpenInstance(trial);
    ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
    const int survived = cut >= offsets[kBatches] ? kBatches : kBatches - 1;
    EXPECT_EQ(reopened.engine->snapshot_version(),
              static_cast<uint64_t>(survived) + 1);
    EXPECT_EQ(AnswerNames(&reopened, kQueryB), oracle_b[survived]);
    EXPECT_EQ(AnswerNames(&reopened, kQueryC), oracle_c[survived]);
    reopened.engine.reset();
    store::RemoveDirRecursive(trial + "/seg-1");
    store::RemoveDirRecursive(trial);
  }
}

TEST(StoreRecoveryTest, LogBitFlipsTruncateToLastIntactRecord) {
  constexpr int kBatches = 2;
  const std::string dir = MakeTempDir("store_logflip");
  BuildStore(dir, kBatches);
  const std::string log_bytes = ReadBytes(dir + "/LOG");
  const std::vector<size_t> offsets = RecordBoundaries(log_bytes);

  std::vector<std::multiset<std::string>> oracle_b;
  for (int k = 0; k <= kBatches; ++k) oracle_b.push_back(OracleNames(k, kQueryB));

  for (size_t pos = 0; pos < log_bytes.size(); ++pos) {
    SCOPED_TRACE("flip at " + std::to_string(pos));
    const std::string trial = MakeTempDir("store_logflip_trial");
    CopyDir(dir, trial);
    std::string corrupt = log_bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteBytes(trial + "/LOG", corrupt);

    Instance reopened = OpenInstance(trial);
    if (pos < store::kFileHeaderBytes) {
      // Header corruption is never survivable: a log that can't prove what
      // it is must not be replayed.
      EXPECT_EQ(reopened.engine, nullptr);
      EXPECT_EQ(reopened.open_status.code(), StatusCode::kDataLoss)
          << reopened.open_status.ToString();
    } else {
      // A flip inside record k kills k and everything after it; the prefix
      // before k must survive exactly.
      ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
      int record = 0;
      while (offsets[record + 1] <= pos) ++record;
      EXPECT_EQ(reopened.engine->snapshot_version(),
                static_cast<uint64_t>(record) + 1);
      EXPECT_EQ(AnswerNames(&reopened, kQueryB), oracle_b[record]);
    }
    reopened.engine.reset();
    store::RemoveDirRecursive(trial + "/seg-1");
    store::RemoveDirRecursive(trial);
  }
}

// Regression: FactLog::Append rolled a failed append back with ftruncate
// but never repositioned the (non-O_APPEND) fd, so the next successful
// append wrote past a zero-filled hole — acknowledged and fsynced, yet
// unrecoverable because the scan stops at the hole.  The log is now opened
// O_APPEND; this test reproduces the mechanism by shrinking the file out
// from under the open fd (exactly what the rollback ftruncate does) and
// asserts the next append lands at the real EOF, not at the stale offset.
TEST(StoreRecoveryTest, AppendAfterRollbackTruncationLeavesNoHole) {
  const std::string dir = MakeTempDir("store_log_hole");
  const std::string path = dir + "/LOG";
  std::unique_ptr<store::FactLog> log;
  std::vector<store::LogRecord> recovered;
  uint64_t dropped = 0;
  ASSERT_TRUE(
      store::FactLog::Open(path, /*fsync=*/false, &log, &recovered, &dropped)
          .ok());

  store::LogRecord r1;
  r1.version = 1;
  r1.batch.concepts.push_back({"A", "a1"});
  ASSERT_TRUE(log->Append(r1).ok());
  // The error-path rollback: the file shrinks back to the header while the
  // fd's offset (under the old bug) still sits past the end of r1.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(store::kFileHeaderBytes)),
            0);
  store::LogRecord r2;
  r2.version = 2;
  r2.batch.concepts.push_back({"A", "a2"});
  ASSERT_TRUE(log->Append(r2).ok());
  log.reset();

  const std::string bytes = ReadBytes(path);
  std::vector<store::LogRecord> records;
  size_t valid_end = 0;
  size_t drop = 0;
  ASSERT_TRUE(store::ScanLog(reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size(), &records, &valid_end, &drop)
                  .ok());
  // r2 must be fully recoverable: no hole, no dropped tail.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].version, 2u);
  ASSERT_EQ(records[0].batch.concepts.size(), 1u);
  EXPECT_EQ(records[0].batch.concepts[0].individual, "a2");
  EXPECT_EQ(valid_end, bytes.size());
  EXPECT_EQ(drop, 0u);
  store::RemoveDirRecursive(dir);
}

TEST(StoreRecoveryTest, SegmentAndCurrentBitFlipsAreAlwaysRefused) {
  const std::string dir = MakeTempDir("store_segflip");
  BuildStore(dir, 1);

  // Every byte of every non-LOG file is header- or checksum-covered, so a
  // single flipped bit anywhere must make recovery refuse with a Status —
  // serving silently-corrupt columns is the one unacceptable outcome.
  std::vector<std::string> files = {"CURRENT"};
  std::vector<std::string> seg_entries;
  ASSERT_TRUE(store::ListDir(dir + "/seg-1", &seg_entries).ok());
  for (const std::string& name : seg_entries) files.push_back("seg-1/" + name);

  for (const std::string& file : files) {
    const std::string pristine = ReadBytes(dir + "/" + file);
    for (size_t pos = 0; pos < pristine.size(); ++pos) {
      SCOPED_TRACE(file + " flip at " + std::to_string(pos));
      const std::string trial = MakeTempDir("store_segflip_trial");
      CopyDir(dir, trial);
      std::string corrupt = pristine;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
      WriteBytes(trial + "/" + file, corrupt);

      Instance reopened = OpenInstance(trial);
      EXPECT_EQ(reopened.engine, nullptr)
          << file << " byte " << pos << " flip was silently accepted";
      EXPECT_FALSE(reopened.open_status.ok());
      EXPECT_FALSE(reopened.open_status.message().empty());
      store::RemoveDirRecursive(trial + "/seg-1");
      store::RemoveDirRecursive(trial);
    }
  }
}

TEST(StoreRecoveryTest, LogWithoutCurrentIsDataLoss) {
  const std::string dir = MakeTempDir("store_orphanlog");
  BuildStore(dir, 1);
  // Simulate losing the baseline: CURRENT (and the segment) vanish but the
  // log survives.  Replaying it against nothing would silently drop the
  // seed facts, so recovery must refuse.
  ASSERT_TRUE(store::RemoveFile(dir + "/CURRENT").ok());
  ASSERT_TRUE(store::RemoveDirRecursive(dir + "/seg-1").ok());

  Instance reopened = OpenInstance(dir);
  EXPECT_EQ(reopened.engine, nullptr);
  EXPECT_EQ(reopened.open_status.code(), StatusCode::kDataLoss)
      << reopened.open_status.ToString();
}

TEST(StoreRecoveryTest, FingerprintMismatchIsRefused) {
  const std::string dir = MakeTempDir("store_fpmismatch");
  BuildStore(dir, 1);
  Instance reopened =
      OpenInstance(dir, 0, "A SUB B\nEX R SUB C\nB SUB C\n");
  EXPECT_EQ(reopened.engine, nullptr);
  EXPECT_EQ(reopened.open_status.code(), StatusCode::kDataLoss)
      << reopened.open_status.ToString();
}

TEST(StoreRecoveryTest, FullyColdRecoveryFaultsColumnsInExactly) {
  const std::string dir = MakeTempDir("store_cold");
  BuildStore(dir, 3);
  {
    // Compact so the whole state lives in the segment: a log-tail replay
    // would touch (and thereby materialise) every relation the batches
    // mention, defeating the cold-start this test is about.
    Instance compactor = OpenInstance(dir);
    ASSERT_NE(compactor.engine, nullptr) << compactor.open_status.ToString();
    ASSERT_TRUE(compactor.engine->Checkpoint().ok());
  }

  // A 1-byte residency budget fits nothing: every column starts cold and
  // must fault in through the snapshot's ColumnSource on first touch.
  Instance reopened = OpenInstance(dir, /*resident_bytes=*/1);
  ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
  const auto snap = reopened.engine->snapshot();
  EXPECT_EQ(snap->ResidentColumns(), 0u);
  EXPECT_GT(snap->ColdColumns(), 0u);
  EXPECT_EQ(AnswerNames(&reopened, kQueryB), OracleNames(3, kQueryB));
  EXPECT_EQ(AnswerNames(&reopened, kQueryC), OracleNames(3, kQueryC));
  // The touched columns are resident now and stay so for this snapshot.
  EXPECT_GT(snap->ResidentColumns(), 0u);

  // Updates on a cold-backed snapshot keep working (WithFacts must see the
  // parent rows of any relation the batch touches).
  uint64_t version = 0;
  ASSERT_TRUE(reopened.engine
                  ->ApplyFactsOrError(
                      Intern(MakeBatch(3), reopened.vocab.get()), &version)
                  .ok());
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(AnswerNames(&reopened, kQueryB), OracleNames(4, kQueryB));
}

// Incremental catch-up over a fully cold recovery: the delta run reads the
// rows appended since its retained state straight from the relations, so
// it must stay exact whether the batch lands on a column that is still
// cold (the apply faults it in) or on one the query already faulted in.
TEST(StoreRecoveryTest, IncrementalCatchUpOverColdColumns) {
  const std::string dir = MakeTempDir("store_cold_incremental");
  BuildStore(dir, 3);
  {
    Instance compactor = OpenInstance(dir);
    ASSERT_NE(compactor.engine, nullptr) << compactor.open_status.ToString();
    ASSERT_TRUE(compactor.engine->Checkpoint().ok());
  }
  Instance reopened = OpenInstance(dir, /*resident_bytes=*/1);
  ASSERT_NE(reopened.engine, nullptr) << reopened.open_status.ToString();
  Engine& engine = *reopened.engine;
  Vocabulary* vocab = reopened.vocab.get();

  std::string error;
  auto query = ParseQuery(kQueryB, vocab, &error);
  ASSERT_TRUE(query.has_value()) << error;
  PrepareResult prepared = engine.Prepare(*query);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  ExecuteRequest incremental;
  incremental.incremental = true;
  ExecuteResult seed = engine.Execute(*prepared.query, incremental);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_FALSE(seed.incremental);

  // The segment holds two columns, A and R.  B's rewriting reads only A,
  // which the seed run faulted in; R stays cold.
  const int a_id = vocab->InternConcept("A");
  const int r_id = vocab->InternPredicate("R");
  ASSERT_EQ(engine.snapshot()->ResidentColumns(), 1u);
  ASSERT_EQ(engine.snapshot()->ColdColumns(), 1u);

  auto expect_incremental_matches_full = [&](const FactBatch& batch) {
    uint64_t version = 0;
    ASSERT_TRUE(engine.ApplyFactsOrError(batch, &version).ok());
    ExecuteResult delta = engine.Execute(*prepared.query, incremental);
    ExecuteResult full = engine.Execute(*prepared.query);
    ASSERT_TRUE(delta.status.ok()) << delta.status.ToString();
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    EXPECT_TRUE(delta.incremental);
    EXPECT_EQ(delta.snapshot_version, version);
    EXPECT_EQ(full.snapshot_version, version);
    EXPECT_EQ(delta.answers, full.answers);
  };

  FactBatch cold_role;
  cold_role.roles.push_back({r_id, vocab->InternIndividual("ind0_0"),
                             vocab->InternIndividual("cold_r")});
  expect_incremental_matches_full(cold_role);

  FactBatch faulted_concept;
  faulted_concept.concepts.push_back(
      {a_id, vocab->InternIndividual("warm_a")});
  expect_incremental_matches_full(faulted_concept);
  EXPECT_NE(engine.Execute(*prepared.query).answers, seed.answers);
}

// An auto prepare estimates its candidates over the snapshot it pins, so on
// a fully cold recovery it faults in the columns those rewritings name and
// no others.  It must choose the same rewriter as over a fully resident
// copy of the store and answer the same; the A column, which no rewriting
// of R(x, y), C(y) names, stays cold.
TEST(StoreRecoveryTest, AutoPrepareOverColdColumnsChoosesAsResident) {
  const std::string dir = MakeTempDir("store_cold_auto");
  BuildStore(dir, 3);
  {
    Instance compactor = OpenInstance(dir);
    ASSERT_NE(compactor.engine, nullptr) << compactor.open_status.ToString();
    ASSERT_TRUE(compactor.engine->Checkpoint().ok());
  }
  constexpr char kQueryRC[] = "q(x) :- R(x, y), C(y)";

  std::vector<RewriterKind> kinds;
  std::vector<std::multiset<std::string>> answers;
  for (size_t resident_bytes : {size_t{1}, size_t{0}}) {
    Instance inst = OpenInstance(dir, resident_bytes);
    ASSERT_NE(inst.engine, nullptr) << inst.open_status.ToString();
    std::string error;
    auto query = ParseQuery(kQueryRC, inst.vocab.get(), &error);
    ASSERT_TRUE(query.has_value()) << error;
    PrepareResult prepared = inst.engine->Prepare(*query);
    ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
    kinds.push_back(prepared.query->kind());
    const auto snap = inst.engine->snapshot();
    if (resident_bytes == 1) {
      // The segment holds A and R: the estimate has faulted R in.
      EXPECT_EQ(snap->ResidentColumns(), 1u);
    }
    answers.push_back(AnswerNames(&inst, kQueryRC));
    if (resident_bytes == 1) {
      EXPECT_GT(snap->ColdColumns(), 0u);  // A.
    } else {
      EXPECT_EQ(snap->ColdColumns(), 0u);
    }
  }
  EXPECT_EQ(kinds[0], kinds[1]);
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], OracleNames(3, kQueryRC));
}

}  // namespace
}  // namespace owlqr
