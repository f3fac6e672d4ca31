#ifndef OWLQR_DATA_SNAPSHOT_H_
#define OWLQR_DATA_SNAPSHOT_H_

// Immutable, shareable EDB state for the prepared-OMQ engine.
//
// A DataSnapshot freezes one version of the data instance into the exact
// form the evaluator's hot path consumes: flat Rows arenas per concept /
// role / source table, the sorted active domain, and a shared per-relation
// hash-index cache.  Snapshots are handed out as shared_ptr<const
// DataSnapshot>; an execution pins the version it started on and is
// unaffected by later updates.  Updates never mutate a snapshot — ApplyFacts
// goes through WithFacts, which builds a *new* snapshot: untouched
// relations are shared with the parent (a shared_ptr copy per entry), and
// each relation an update grows — the TOP/adom relation included — becomes
// a new view of the same append-only RowStore, its fresh rows appended at
// the store's tail.  So an update costs O(delta), not O(|A|); a relation's
// rows are copied only when its store is full or another version already
// appended past the parent (see Rows::Extend).
//
// Thread-safety: everything here is either immutable after construction or
// (the index cache) guarded by a per-relation state machine, so any number
// of concurrent evaluations may share one snapshot.  Index builds honour
// the requesting execution's abort poll (deadline / cancel token) — a cold
// index over a huge EDB must not block cancellation — but an aborted build
// is DISCARDED, never published: the slot resets to empty and the next
// request rebuilds from scratch, so shared state only ever holds complete
// indexes and a deadline-aborted partial index can never poison later
// queries.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/data_instance.h"
#include "data/relation.h"
#include "data/table_store.h"
#include "util/status.h"

namespace owlqr {

// One frozen EDB relation version plus its lazily built, shared index
// cache.
class EdbRelation {
 public:
  // The empty relation of `arity`, the parent of a relation's first rows.
  explicit EdbRelation(int arity) {
    rows_.arity = arity;
    rows_.materialized = true;
  }
  // The version holding every row `store` holds now (its build is over).
  explicit EdbRelation(std::shared_ptr<RowStore> store);
  EdbRelation(const EdbRelation&) = delete;
  EdbRelation& operator=(const EdbRelation&) = delete;

  const Rows& rows() const { return rows_; }

  // The next version: this relation plus `n` row-major tuples, already
  // deduplicated against it and each other (see Rows::Extend, which counts
  // any rows it had to copy into `*copied_rows`).  Its index cache starts
  // empty.  Null iff the row ceiling refused a row.
  std::shared_ptr<const EdbRelation> Extend(const int* tuples, size_t n,
                                            size_t* copied_rows) const;

  // The hash index on the key positions in `mask`, built on first use and
  // shared by every execution thereafter.  `built_now` (nullable) reports
  // whether this call performed the build, so per-request stats can count
  // only the builds a request actually paid for.
  //
  // `poll_abort` (nullable) is the requesting execution's cooperative abort
  // signal (deadline expired, cancel token fired); it is polled both during
  // a build this call performs and while waiting for another thread's
  // build.  Returns null iff the poll fired — the partial build (if any)
  // is discarded and the slot reset, so a later request rebuilds a
  // complete index; the shared cache never holds partial state.
  const HashIndex* Index(unsigned mask, AbortPoll poll_abort, void* poll_arg,
                         bool* built_now = nullptr) const;
  // Non-abortable convenience (engine-lifetime callers with no request
  // context); never returns null.
  const HashIndex& Index(unsigned mask, bool* built_now = nullptr) const {
    return *Index(mask, nullptr, nullptr, built_now);
  }

 private:
  // One (relation, mask) cache entry: empty until someone builds, building
  // while exactly one thread owns the (unlocked) build, ready once a
  // complete index is published.  An aborted build resets to empty.
  struct SharedIndexSlot {
    enum class State { kEmpty, kBuilding, kReady };
    State state = State::kEmpty;
    HashIndex index;
  };

  Rows rows_;
  // Guards the shape of `slots_` and every slot's `state`; builds run with
  // the mutex released.  Waiters block on `slot_cv_` (shared across masks —
  // contention is build-rare) and re-poll their abort signal periodically.
  mutable std::mutex slot_mutex_;
  mutable std::condition_variable slot_cv_;
  mutable std::unordered_map<unsigned, std::unique_ptr<SharedIndexSlot>>
      slots_;
};

// The per-relation description of exactly which rows a WithFacts call
// appended relative to its parent snapshot, keyed by external id — what a
// durable store logs for the update.  Row data is flat (concepts stride 1,
// roles stride 2) and already deduplicated against both the batch and the
// parent, so a delta row is guaranteed new at the version it describes.
// (Readers of the snapshot itself need no delta: a relation's rows new
// since version v are its rows past v's count; see Rows::Extend.)
struct SnapshotDelta {
  std::unordered_map<int, std::vector<int>> concept_rows;
  std::unordered_map<int, std::vector<int>> role_rows;

  bool empty() const { return concept_rows.empty() && role_rows.empty(); }
};

// A batch of ABox additions for Engine::ApplyFacts, by vocabulary ids.
// (Name-based convenience lives with the callers that own a Vocabulary.)
struct FactBatch {
  struct ConceptFact {
    int concept_id = 0;
    int individual = 0;
  };
  struct RoleFact {
    int role_id = 0;
    int subject = 0;
    int object = 0;
  };
  std::vector<ConceptFact> concepts;
  std::vector<RoleFact> roles;

  bool empty() const { return concepts.empty() && roles.empty(); }
};

// Where a store-backed snapshot's cold columns come from: the durable
// store's newest segment (store/segment.h implements this over the mmap'd
// column files).  LoadColumn must return the complete frozen extension of
// concept (role == false) / role (role == true) `id` — a live vocabulary
// id the source advertised at recovery — and must be safe to call from any
// number of threads.  It is never called for ids the source did not
// advertise.
class ColumnSource {
 public:
  virtual ~ColumnSource() = default;
  virtual std::shared_ptr<const EdbRelation> LoadColumn(bool role,
                                                        int id) const = 0;
};

class DataSnapshot : public std::enable_shared_from_this<DataSnapshot> {
 public:
  // Freezes `data` (and, if given, the mapping-layer source tables) into
  // version 1 of a snapshot chain.
  static std::shared_ptr<const DataSnapshot> FromInstance(
      const DataInstance& data, const TableStore* tables = nullptr);

  // Rebuilds a snapshot from a durable store's columnar segment:
  // `concepts` / `roles` hold the eagerly loaded (resident) relations,
  // `cold_concepts` / `cold_roles` (sorted live ids) the columns left on
  // disk, and `source` serves a cold column the first time an evaluation
  // touches it.  A faulted-in column stays resident for this snapshot's
  // lifetime — executions pin snapshots, so dropping one mid-flight would
  // dangle the raw pointers Concept()/Role() hand out; residency is
  // re-decided per snapshot, not per query.  `num_atoms` counts ALL
  // columns, cold included (the segment's META knows every row count).
  static std::shared_ptr<const DataSnapshot> FromColumns(
      uint64_t version, long num_atoms, std::vector<int> active_domain,
      std::unordered_map<int, std::shared_ptr<const EdbRelation>> concepts,
      std::unordered_map<int, std::shared_ptr<const EdbRelation>> roles,
      std::vector<int> cold_concepts, std::vector<int> cold_roles,
      std::shared_ptr<const ColumnSource> source);

  // The update: a new snapshot whose touched concept / role relations are
  // grown by `batch` (each a new version of its parent's RowStore; see
  // Rows::Extend), with every other relation shared with `this`.
  // Individuals mentioned by the batch join the active domain and the TOP
  // relation.  `this` is unchanged; executions holding it run on.
  //
  // The batch is deduplicated against both itself and the parent before
  // anything is appended: a fact already present contributes nothing, and
  // a batch with no genuinely new facts returns `this` unchanged — same
  // version(), so re-asserting known facts is free and can never inflate
  // num_atoms() or fabricate phantom delta rows.
  //
  // `delta` (nullable) receives the exact appended rows (see SnapshotDelta);
  // it is cleared first and left empty on the no-op path.  If a relation at
  // the row ceiling refuses a row, the batch is refused whole: `this` is
  // returned with an empty delta, and `status` (nullable) is set to
  // kMemoryExceeded; otherwise it is set to Ok.
  std::shared_ptr<const DataSnapshot> WithFacts(
      const FactBatch& batch, SnapshotDelta* delta = nullptr,
      Status* status = nullptr) const;

  // Monotonically increasing along a WithFacts chain (starts at 1).
  uint64_t version() const { return version_; }

  // Sorted union of the instance's individuals and the source tables'
  // cells — the evaluator's ind(A) for equality and TOP atoms.
  const std::vector<int>& active_domain() const { return active_domain_; }
  // active_domain() as an arity-1 relation (the TOP predicate's extension).
  const EdbRelation& adom() const { return *adom_; }

  // Relation lookups by external (vocabulary / table-store) id; null when
  // the snapshot holds no facts for that id (callers substitute an empty
  // relation of the right arity).  On a store-backed snapshot a cold column
  // is faulted in from the ColumnSource on first touch and stays resident
  // for the snapshot's lifetime; the returned pointer is stable either way.
  const EdbRelation* Concept(int concept_id) const;
  const EdbRelation* Role(int role_id) const;
  const EdbRelation* Table(int table_id) const;

  // Residency diagnostics for store-backed snapshots: columns held in
  // memory (eager + faulted-in) vs columns still cold on disk.  A snapshot
  // with no ColumnSource reports everything resident.
  size_t ResidentColumns() const;
  size_t ColdColumns() const;

  // Whole-map views of the RESIDENT relations, for cost statistics and
  // diagnostics; cold columns are not listed (see cold_concepts()).
  const std::unordered_map<int, std::shared_ptr<const EdbRelation>>&
  concepts() const {
    return concepts_;
  }
  const std::unordered_map<int, std::shared_ptr<const EdbRelation>>& roles()
      const {
    return roles_;
  }
  // Sorted live ids of the columns this snapshot still serves from its
  // ColumnSource (minus any already faulted in), plus the source itself —
  // the store's checkpoint writer streams cold columns straight from here
  // without making them resident.
  const std::vector<int>& cold_concepts() const { return cold_concepts_; }
  const std::vector<int>& cold_roles() const { return cold_roles_; }
  const std::shared_ptr<const ColumnSource>& column_source() const {
    return source_;
  }

  // Total concept + role facts (the |A| of the paper's data complexity).
  long num_atoms() const { return num_atoms_; }

 private:
  DataSnapshot() = default;

  // Serves `id` from the resident map, else faults it in from source_
  // under lazy_mutex_ (mirroring the index cache's publish-once pattern).
  const EdbRelation* LookupOrFault(
      const std::unordered_map<int, std::shared_ptr<const EdbRelation>>&
          resident,
      const std::vector<int>& cold,
      std::unordered_map<int, std::shared_ptr<const EdbRelation>>* lazy,
      bool role, int id) const;

  std::unordered_map<int, std::shared_ptr<const EdbRelation>> concepts_;
  std::unordered_map<int, std::shared_ptr<const EdbRelation>> roles_;
  std::unordered_map<int, std::shared_ptr<const EdbRelation>> tables_;
  std::shared_ptr<const EdbRelation> adom_;
  std::vector<int> active_domain_;
  long num_atoms_ = 0;
  uint64_t version_ = 1;

  // Store-backed snapshots only: the cold-column source, the sorted ids it
  // still serves, and the faulted-in overlay.  The overlay is additive for
  // the snapshot's lifetime (entries are inserted, never removed, and the
  // shared_ptr'd relations never move), so a pointer handed out under the
  // mutex stays valid without it.
  std::shared_ptr<const ColumnSource> source_;
  std::vector<int> cold_concepts_;
  std::vector<int> cold_roles_;
  mutable std::mutex lazy_mutex_;
  mutable std::unordered_map<int, std::shared_ptr<const EdbRelation>>
      lazy_concepts_;
  mutable std::unordered_map<int, std::shared_ptr<const EdbRelation>>
      lazy_roles_;
};

}  // namespace owlqr

#endif  // OWLQR_DATA_SNAPSHOT_H_
