// Snapshot versions share one append-only RowStore per relation
// (data/relation.h, DataSnapshot::WithFacts):
//
//  - branch safety: two children of one parent, a grandchild built on the
//    child that did not get the store's tail, and the parent itself each
//    see exactly their own rows;
//  - a child discarded after a failed store append leaks nothing into the
//    next version, and a row-ceiling refusal is an error, not a fact;
//  - O(delta) by counter: appends at a store's tip copy no parent rows at
//    any relation size from 10^3 to 10^6 rows, and crossing capacities
//    copies amortised O(1) rows per appended row.
//
// Readers racing tail appends are in snapshot_concurrency_test.cc.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/snapshot.h"
#include "engine/engine.h"
#include "store/store.h"
#include "util/metrics.h"

namespace owlqr {
namespace {

using Tuples = std::vector<std::vector<int>>;

// Sums the `copied_rows` attribute over the WithFacts spans a registry saw.
long CopiedRows(const MetricsRegistry& registry) {
  long copied = 0;
  for (const MetricsRegistry::Span& span : registry.spans()) {
    if (span.name != "snapshot/apply-facts") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "copied_rows") copied += value;
    }
  }
  return copied;
}

// Installs a registry for the test's lifetime.
class ScopedRegistry {
 public:
  ScopedRegistry() { MetricsRegistry::SetGlobal(&registry_); }
  ~ScopedRegistry() { MetricsRegistry::SetGlobal(nullptr); }
  const MetricsRegistry& registry() const { return registry_; }

 private:
  MetricsRegistry registry_;
};

// Everything a reader can observe of one snapshot version.
struct Observed {
  Tuples r_rows;
  Tuples a_rows;
  Tuples adom_rows;
  std::vector<int> active_domain;
  long num_atoms = 0;

  bool operator==(const Observed&) const = default;
};

Tuples Sorted(const EdbRelation* rel) {
  return rel == nullptr ? Tuples() : rel->rows().ToSortedTuples();
}

class SnapshotBranchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = vocab_.InternPredicate("R");
    a_ = vocab_.InternConcept("A");
    DataInstance data(&vocab_);
    for (int i = 0; i < 8; ++i) {
      data.AddRoleAssertion(r_, Ind(i), Ind(i + 1));
    }
    data.AddConceptAssertion(a_, Ind(0));
    base_ = DataSnapshot::FromInstance(data);
  }

  int Ind(int i) {
    std::string name = "i";
    name += std::to_string(i);
    return vocab_.InternIndividual(name);
  }

  FactBatch Batch(std::vector<std::pair<int, int>> edges,
                  std::vector<int> labels = {}) {
    FactBatch batch;
    for (auto [a, b] : edges) batch.roles.push_back({r_, Ind(a), Ind(b)});
    for (int a : labels) batch.concepts.push_back({a_, Ind(a)});
    return batch;
  }

  Observed Observe(const DataSnapshot& s) const {
    return {Sorted(s.Role(r_)), Sorted(s.Concept(a_)),
            s.adom().rows().ToSortedTuples(), s.active_domain(),
            s.num_atoms()};
  }

  bool HasEdge(const DataSnapshot& s, int a, int b) {
    int pair[2] = {Ind(a), Ind(b)};
    return s.Role(r_) != nullptr && s.Role(r_)->rows().Contains(pair);
  }

  bool InDomain(const DataSnapshot& s, int a) {
    int ind = Ind(a);
    return std::binary_search(s.active_domain().begin(),
                              s.active_domain().end(), ind) &&
           s.adom().rows().Contains(&ind);
  }

  Vocabulary vocab_;
  int r_ = 0;
  int a_ = 0;
  std::shared_ptr<const DataSnapshot> base_;
};

TEST_F(SnapshotBranchTest, SiblingsAndNonTipGrandchildSeeOnlyTheirOwnRows) {
  const Observed before = Observe(*base_);
  ScopedRegistry metrics;

  // The first child takes the store's tail in place; the second child of
  // the same parent cannot and gets a copy.
  auto left = base_->WithFacts(Batch({{0, 100}, {100, 101}}, {100}));
  EXPECT_EQ(CopiedRows(metrics.registry()), 0);
  auto right = base_->WithFacts(Batch({{0, 200}, {3, 5}}, {200}));
  EXPECT_GT(CopiedRows(metrics.registry()), 0);
  // A grandchild on the non-tip child, and one on the tip child.
  auto right_child = right->WithFacts(Batch({{200, 201}}, {201}));
  auto left_child = left->WithFacts(Batch({{101, 102}}));

  EXPECT_TRUE(HasEdge(*left, 0, 100));
  EXPECT_TRUE(HasEdge(*left, 100, 101));
  EXPECT_FALSE(HasEdge(*left, 0, 200));
  EXPECT_FALSE(HasEdge(*left, 3, 5));
  EXPECT_FALSE(InDomain(*left, 200));
  EXPECT_TRUE(InDomain(*left, 101));

  EXPECT_TRUE(HasEdge(*right, 0, 200));
  EXPECT_TRUE(HasEdge(*right, 3, 5));
  EXPECT_FALSE(HasEdge(*right, 0, 100));
  EXPECT_FALSE(InDomain(*right, 100));
  EXPECT_FALSE(InDomain(*right, 201));

  EXPECT_TRUE(HasEdge(*right_child, 200, 201));
  EXPECT_TRUE(HasEdge(*right_child, 3, 5));
  EXPECT_FALSE(HasEdge(*right_child, 100, 101));
  EXPECT_FALSE(HasEdge(*right_child, 101, 102));
  EXPECT_TRUE(InDomain(*right_child, 201));
  EXPECT_FALSE(InDomain(*right_child, 102));
  EXPECT_FALSE(HasEdge(*left_child, 200, 201));
  EXPECT_TRUE(HasEdge(*left_child, 101, 102));

  // Each version's full contents equal the same facts built from scratch.
  auto rebuild = [&](std::vector<FactBatch> batches) {
    DataInstance data(&vocab_);
    for (int i = 0; i < 8; ++i) data.AddRoleAssertion(r_, Ind(i), Ind(i + 1));
    data.AddConceptAssertion(a_, Ind(0));
    for (const FactBatch& batch : batches) {
      for (const auto& f : batch.roles) {
        data.AddRoleAssertion(f.role_id, f.subject, f.object);
      }
      for (const auto& f : batch.concepts) {
        data.AddConceptAssertion(f.concept_id, f.individual);
      }
    }
    return Observe(*DataSnapshot::FromInstance(data));
  };
  EXPECT_EQ(Observe(*left), rebuild({Batch({{0, 100}, {100, 101}}, {100})}));
  EXPECT_EQ(Observe(*right_child),
            rebuild({Batch({{0, 200}, {3, 5}}, {200}),
                     Batch({{200, 201}}, {201})}));
  EXPECT_EQ(Observe(*left_child),
            rebuild({Batch({{0, 100}, {100, 101}}, {100}),
                     Batch({{101, 102}})}));

  // The parent never moved.
  EXPECT_EQ(Observe(*base_), before);
  EXPECT_EQ(base_->version(), 1u);
  EXPECT_FALSE(HasEdge(*base_, 0, 100));
  EXPECT_FALSE(HasEdge(*base_, 0, 200));
  EXPECT_FALSE(InDomain(*base_, 100));
}

// A checkpoint of a version whose store a later version already appended
// to writes that version's rows only.
TEST_F(SnapshotBranchTest, CheckpointOfAParentWritesOnlyItsOwnRows) {
  auto child = base_->WithFacts(Batch({{0, 100}}, {100}));
  ASSERT_EQ(child->Role(r_)->rows().size(), base_->Role(r_)->rows().size() + 1);

  std::string dir = ::testing::TempDir() + "snapshot_prefix.XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  constexpr uint64_t kFingerprint = 7;
  {
    store::StoreOptions options;
    options.dir = dir;
    std::shared_ptr<store::DurableStore> durable;
    ASSERT_TRUE(store::DurableStore::Open(options, &durable).ok());
    Vocabulary scratch;
    store::RecoveredState fresh;
    ASSERT_TRUE(durable->Recover(&scratch, kFingerprint, 0, &fresh).ok());
    ASSERT_TRUE(durable->Checkpoint(*base_, vocab_).ok());
  }
  store::StoreOptions options;
  options.dir = dir;
  std::shared_ptr<store::DurableStore> durable;
  ASSERT_TRUE(store::DurableStore::Open(options, &durable).ok());
  Vocabulary recovered_vocab;
  store::RecoveredState state;
  ASSERT_TRUE(
      durable->Recover(&recovered_vocab, kFingerprint, 0, &state).ok());
  ASSERT_NE(state.base, nullptr);
  const int r = recovered_vocab.FindPredicate("R");
  EXPECT_EQ(state.base->Role(r)->rows().size(),
            base_->Role(r_)->rows().size());
  EXPECT_EQ(state.base->num_atoms(), base_->num_atoms());
  EXPECT_EQ(state.base->active_domain().size(),
            base_->active_domain().size());
  const int i100 = recovered_vocab.FindIndividual("i100");
  EXPECT_FALSE(std::binary_search(state.base->active_domain().begin(),
                                  state.base->active_domain().end(), i100));
  EXPECT_FALSE(state.base->adom().rows().Contains(&i100));
}

// A store that fails appends on demand and remembers what it logged.
class FlakyStore : public store::Store {
 public:
  Status Recover(Vocabulary*, uint64_t, size_t,
                 store::RecoveredState* out) override {
    out->fresh = true;
    return Status::Ok();
  }
  Status AppendBatch(uint64_t version,
                     const store::NamedFactBatch& batch) override {
    if (fail) return Status::DataLoss("injected append failure");
    logged.push_back({version, batch.roles.size() + batch.concepts.size()});
    return Status::Ok();
  }
  Status Checkpoint(const DataSnapshot&, const Vocabulary&) override {
    return Status::Ok();
  }
  bool ShouldCompact() const override { return false; }
  store::StoreCounters counters() const override { return {}; }

  bool fail = false;
  std::vector<std::pair<uint64_t, size_t>> logged;  // (version, facts)
};

class SnapshotEngineTest : public SnapshotBranchTest {
 protected:
  std::unique_ptr<Engine> OpenEngine() {
    TBox tbox(&vocab_);
    DataInstance data(&vocab_);
    for (int i = 0; i < 8; ++i) data.AddRoleAssertion(r_, Ind(i), Ind(i + 1));
    data.AddConceptAssertion(a_, Ind(0));
    store_ = std::make_shared<FlakyStore>();
    EngineOptions options;
    options.store = store_;
    Status status;
    auto engine = Engine::Open(tbox, data, nullptr, options, &status);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return engine;
  }

  std::shared_ptr<FlakyStore> store_;
};

TEST_F(SnapshotEngineTest, DiscardedChildLeaksNoRowsIntoTheNextVersion) {
  std::unique_ptr<Engine> engine = OpenEngine();
  ASSERT_NE(engine, nullptr);
  const Observed before = Observe(*engine->snapshot());

  // WithFacts appends this batch at the stores' tails in place; the failed
  // append then discards that child.
  store_->fail = true;
  uint64_t version = 0;
  EXPECT_FALSE(
      engine->ApplyFactsOrError(Batch({{0, 300}, {300, 301}}, {300}), &version)
          .ok());
  EXPECT_EQ(engine->snapshot_version(), 1u);
  EXPECT_EQ(Observe(*engine->snapshot()), before);

  store_->fail = false;
  ASSERT_TRUE(
      engine->ApplyFactsOrError(Batch({{1, 400}}, {400}), &version).ok());
  EXPECT_EQ(version, 2u);
  auto next = engine->snapshot();
  EXPECT_TRUE(HasEdge(*next, 1, 400));
  EXPECT_FALSE(HasEdge(*next, 0, 300));
  EXPECT_FALSE(HasEdge(*next, 300, 301));
  EXPECT_FALSE(InDomain(*next, 300));
  EXPECT_FALSE(InDomain(*next, 301));
  EXPECT_EQ(Sorted(next->Concept(a_)), (Tuples{{Ind(0)}, {Ind(400)}}));
  EXPECT_EQ(next->num_atoms(), before.num_atoms + 2);
  EXPECT_EQ(next->adom().rows().size(), before.adom_rows.size() + 1);
  EXPECT_EQ(next->Role(r_)->rows().size(), before.r_rows.size() + 1);
  ASSERT_EQ(store_->logged.size(), 1u);
  EXPECT_EQ(store_->logged[0], (std::pair<uint64_t, size_t>{2, 2}));

  // And the chain keeps appending correctly from there.
  ASSERT_TRUE(engine->ApplyFactsOrError(Batch({{400, 401}}), &version).ok());
  EXPECT_TRUE(HasEdge(*engine->snapshot(), 400, 401));
  EXPECT_FALSE(HasEdge(*engine->snapshot(), 300, 301));
}

// Restores the real row ceiling however the test exits.
struct RowCeilingGuard {
  explicit RowCeilingGuard(size_t max_rows) {
    Rows::SetMaxRowsForTest(max_rows);
  }
  ~RowCeilingGuard() { Rows::SetMaxRowsForTest(0); }
};

TEST_F(SnapshotEngineTest, RowCeilingRefusalIsAnErrorNotAFact) {
  std::unique_ptr<Engine> engine = OpenEngine();
  ASSERT_NE(engine, nullptr);
  const Observed before = Observe(*engine->snapshot());
  // R holds 8 rows; a ceiling of 8 refuses a ninth.  The label fits (A
  // holds one row) and between existing individuals adds no adom row, so
  // only R refuses — and the whole batch goes with it.
  RowCeilingGuard guard(8);

  uint64_t version = 0;
  Status status = engine->ApplyFactsOrError(Batch({{0, 2}}, {1}), &version);
  EXPECT_EQ(status.code(), StatusCode::kMemoryExceeded) << status.ToString();
  EXPECT_EQ(engine->snapshot_version(), 1u);
  EXPECT_EQ(Observe(*engine->snapshot()), before);
  EXPECT_FALSE(HasEdge(*engine->snapshot(), 0, 2));
  EXPECT_TRUE(store_->logged.empty());

  // The same refusal straight from WithFacts: the parent comes back.
  SnapshotDelta delta;
  Status refused;
  auto parent = engine->snapshot();
  EXPECT_EQ(parent->WithFacts(Batch({{0, 2}}), &delta, &refused), parent);
  EXPECT_EQ(refused.code(), StatusCode::kMemoryExceeded);
  EXPECT_TRUE(delta.empty());

  // A batch that stays within the ceiling still applies.
  ASSERT_TRUE(engine->ApplyFactsOrError(Batch({}, {1}), &version).ok());
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(engine->snapshot()->num_atoms(), before.num_atoms + 1);
  ASSERT_EQ(store_->logged.size(), 1u);
}

// A snapshot whose R relation holds `rows` distinct edges, built in one
// batch from an empty snapshot.  Labels put the same 1100 individuals in
// the active domain at every size, so the TOP relation's store has the
// same headroom throughout a sweep.
constexpr int kDomain = 1100;
std::shared_ptr<const DataSnapshot> SnapshotWithRows(int r, size_t rows) {
  DataInstance empty(nullptr);
  FactBatch batch;
  for (int i = 0; i < kDomain; ++i) batch.concepts.push_back({0, i});
  for (size_t i = 0; i < rows; ++i) {
    batch.roles.push_back({r, static_cast<int>(i / kDomain),
                           static_cast<int>(i % kDomain)});
  }
  return DataSnapshot::FromInstance(empty)->WithFacts(batch);
}

// `size` new R rows around one new individual (16 is the ingest
// workload's batch).
FactBatch SweepBatch(int r, int fresh, int size) {
  FactBatch batch;
  for (int i = 0; i < size; ++i) {
    const int other = (fresh * 7 + i * 31) % kDomain;
    if (i % 2 == 0) {
      batch.roles.push_back({r, fresh, other});
    } else {
      batch.roles.push_back({r, other, fresh});
    }
  }
  return batch;
}

TEST(SnapshotSweepTest, TipAppendsCopyNoRowsAtAnyRelationSize) {
  constexpr int kR = 0;
  // Single-fact batches: a store built for 1000 rows has room for 1024.
  constexpr int kBatches = 20;
  for (size_t rows : {size_t{1000}, size_t{10000}, size_t{100000},
                      size_t{1000000}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    auto snapshot = SnapshotWithRows(kR, rows);
    ASSERT_EQ(snapshot->Role(kR)->rows().size(), rows);
    ScopedRegistry metrics;
    for (int b = 0; b < kBatches; ++b) {
      snapshot = snapshot->WithFacts(SweepBatch(kR, 5000000 + b, 1));
    }
    EXPECT_EQ(CopiedRows(metrics.registry()), 0);
    EXPECT_EQ(snapshot->Role(kR)->rows().size(), rows + kBatches);
    EXPECT_EQ(snapshot->version(), kBatches + 2u);
  }
}

TEST(SnapshotSweepTest, CapacityCrossingsCopyAmortisedConstantRowsPerRow) {
  constexpr int kR = 0;
  constexpr size_t kStart = 1000;
  constexpr int kBatches = 600;  // ~10x the starting rows.
  auto snapshot = SnapshotWithRows(kR, kStart);
  ScopedRegistry metrics;
  long copying_batches = 0;
  long copied = 0;
  for (int b = 0; b < kBatches; ++b) {
    snapshot = snapshot->WithFacts(SweepBatch(kR, 5000000 + b, 16));
    const long now = CopiedRows(metrics.registry());
    if (now > copied) ++copying_batches;
    copied = now;
  }
  const size_t final_rows = snapshot->Role(kR)->rows().size();
  ASSERT_EQ(final_rows, kStart + kBatches * 16);
  // Each copy of m rows leaves room for m more, so the copies form a
  // geometric series: a handful of copying batches, and fewer rows copied
  // than the relation ends with.
  EXPECT_GT(copying_batches, 0);
  EXPECT_LE(copying_batches, 5);
  EXPECT_LE(static_cast<size_t>(copied), final_rows);
}

}  // namespace
}  // namespace owlqr
