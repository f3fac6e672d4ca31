#ifndef OWLQR_DATA_RELATION_H_
#define OWLQR_DATA_RELATION_H_

// Relation storage shared by the NDL evaluator and the engine's data
// snapshots: a flat-arena tuple set with open-addressing deduplication
// (Rows), the append-only store that snapshot versions of a relation share
// (RowStore), and the CSR hash index probed by the join inner loop
// (HashIndex).  An owning Rows and a HashIndex are plain data with no
// locking of their own; concurrent *reads* of a fully built one are safe,
// and writers must be externally single-threaded (the evaluator's
// single-writer-per-relation invariant).  A snapshot version is a read-only
// Rows *view* of a RowStore's prefix; the store's mutex orders appends at
// its tail against each other and against dedup probes.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/buffer_pool.h"

namespace owlqr {

class RowStore;

namespace relation_internal {

constexpr size_t kHashSeed = 0x9e3779b97f4a7c15ULL;
constexpr size_t kFnvBasis = 1469598103934665603ULL;

inline size_t Mix(size_t h, size_t v) {
  h ^= v + kHashSeed + (h << 6) + (h >> 2);
  return h;
}

// murmur3 finaliser: the open-addressing dedup table masks the *low* bits
// of the hash, so they must avalanche (Mix alone clusters badly on the
// dense sequential ids a vocabulary produces).
inline size_t FinalMix(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace relation_internal

// The tuple hash, with the loop dispatched on arity so the ubiquitous small
// cases (concepts are unary; roles, equality keys and most IDB predicates
// binary) inline fully at the call sites in the insert and probe hot paths.
// All arms compute the identical value.
inline size_t HashTuple(const int* tuple, int arity) {
  using relation_internal::FinalMix;
  using relation_internal::kFnvBasis;
  using relation_internal::Mix;
  switch (arity) {
    case 1:
      return FinalMix(Mix(kFnvBasis, static_cast<size_t>(tuple[0]) + 1));
    case 2:
      return FinalMix(Mix(Mix(kFnvBasis, static_cast<size_t>(tuple[0]) + 1),
                          static_cast<size_t>(tuple[1]) + 1));
    default: {
      size_t h = kFnvBasis;
      for (int i = 0; i < arity; ++i) {
        h = Mix(h, static_cast<size_t>(tuple[i]) + 1);
      }
      return FinalMix(h);
    }
  }
}

// Batched tuple hashing for the vector-at-a-time join executor: hashes `n`
// row-major keys of `arity` ints each into `out`.  Each arm is one tight
// loop with no per-element branching, so the compiler can vectorise it;
// every value is identical to HashTuple on the same key.
inline void HashTupleBatch(const int* keys, int arity, size_t n,
                           size_t* out) {
  using relation_internal::FinalMix;
  using relation_internal::kFnvBasis;
  using relation_internal::Mix;
  switch (arity) {
    case 1:
      for (size_t i = 0; i < n; ++i) {
        out[i] = FinalMix(Mix(kFnvBasis, static_cast<size_t>(keys[i]) + 1));
      }
      break;
    case 2:
      for (size_t i = 0; i < n; ++i) {
        out[i] = FinalMix(
            Mix(Mix(kFnvBasis, static_cast<size_t>(keys[2 * i]) + 1),
                static_cast<size_t>(keys[2 * i + 1]) + 1));
      }
      break;
    default:
      for (size_t i = 0; i < n; ++i) {
        out[i] = HashTuple(keys + static_cast<size_t>(arity) * i, arity);
      }
      break;
  }
}

// One predicate's extension: a flat row-major arena of `arity`-strided
// cells plus an open-addressing dedup table (slot = row index + 1).
//
// A Rows either owns its arena (the evaluator's IDB relations, a fact
// batch being deduplicated) or is a read-only *view* of the first size()
// rows of a shared RowStore (one snapshot version of an EDB relation; see
// View and Extend).  Either way row(r) is base + r * arity over one
// contiguous array, so readers cannot tell the two apart.
struct Rows {
  int arity = 0;
  bool materialized = false;

  Rows() = default;
  Rows(const Rows&) = delete;
  Rows& operator=(const Rows&) = delete;
  Rows(Rows&& o) noexcept { *this = std::move(o); }
  Rows& operator=(Rows&& o) noexcept;

  size_t size() const { return num_rows_; }
  const int* row(size_t r) const {
    return base_ + r * static_cast<size_t>(arity);
  }
  // Heap bytes owned by this relation: the cells arena plus whichever dedup
  // table is live.  The number a MemoryAccount is charged for the relation
  // (capacities, not sizes — what the allocator actually handed out).  A
  // view owns nothing; its store's bytes are shared by every version.
  size_t MemoryBytes() const {
    return cells_.capacity() * sizeof(int) +
           slots_.capacity() * sizeof(uint32_t) +
           small_.size * sizeof(SmallSlot);
  }
  // Inserts `tuple` (arity ints) if new; returns whether it was new.
  // A relation at the row ceiling (2^32-2 rows, the last id the 32-bit
  // dedup slots can hold; see SetMaxRowsForTest) refuses the insert and
  // sets AtRowCeiling() instead of corrupting deduplication — callers that
  // can abort must treat such an output relation like any other truncation
  // (the evaluator aborts at its next limit flush).
  bool Insert(const int* tuple);
  // Batched Insert for the vector-at-a-time emit path: inserts `n`
  // row-major tuples given their precomputed HashTuple values (one
  // HashTupleBatch call hashes the whole run in a vectorisable loop),
  // records the batch-local indices of the genuinely new tuples in
  // `new_idx` (caller-allocated, at least n long) and returns their count.
  // The dedup slot of an upcoming tuple is prefetched while the current one
  // probes.  Outcome — row order, duplicate handling, table growth points,
  // ceiling refusals — is identical to n sequential Insert calls.
  size_t InsertBatch(const int* tuples, size_t n, const size_t* hashes,
                     uint32_t* new_idx);
  // True iff `tuple` is already present.  The const dedup probe of Insert
  // (no growth, no mutation): DataSnapshot::WithFacts uses it to filter a
  // fact batch against the parent relation.  On a view it probes the
  // store's table under the store's mutex and ignores rows past size().
  bool Contains(const int* tuple) const;
  // True iff the relation has hit the row ceiling and dropped an insert.
  bool AtRowCeiling() const { return at_row_ceiling_; }
  // Test hook: lowers the row ceiling process-wide so ceiling behaviour is
  // testable without 2^32 rows.  0 restores the real ceiling.  Not for
  // production use; set only while no evaluation is running.
  static void SetMaxRowsForTest(size_t max_rows);
  // Hint that the relation will reach about `expected_rows` rows: sizes
  // the dedup table once instead of growing through the doubling cascade
  // (bounded, so a wildly selective join cannot over-allocate; a relation
  // that outgrows the hint just resumes doubling).
  void Reserve(size_t expected_rows);
  // Sizes the relation for exactly `rows` rows, unbounded: the dedup table
  // at the power of two those rows need and the cells arena at rows *
  // arity, so a relation whose final size is known (an earlier run's, from
  // the plan) is built without one rehash or arena regrowth.  A relation
  // that outgrows it resumes doubling.
  void ReserveRows(size_t rows);

  // Bulk load for the durable store's columnar segments: adopts `num_rows`
  // row-major tuples that are KNOWN distinct (a segment column is the
  // verbatim arena of an already deduplicated relation) into an empty
  // relation.  One memcpy plus one presized dedup-table placement pass —
  // no per-row probe/growth cascade, which is what lets a snapshot load
  // without a row-by-row rebuild.  The result is indistinguishable from
  // num_rows sequential Insert calls of the same tuples.
  void AdoptColumn(int arity_in, const int* column, size_t num_rows);

  // The read-only view of the first `num_rows` rows of `store` (at most
  // what the store holds).  Rows the store gains later stay invisible to
  // it, and the view keeps the store alive.
  static Rows View(std::shared_ptr<RowStore> store, size_t num_rows);

  // The next snapshot version: sets `*out` to a view of this relation's
  // rows followed by the `n` row-major `tuples`, which the caller has
  // deduplicated against this relation and against each other.  When this
  // view is its store's tip (no other version has appended past it) and
  // the store has room, the tuples are appended in place and nothing is
  // copied.  Otherwise — a second child of one parent, a child built after
  // a discarded one, a full store, or an owning Rows — this version's rows
  // are copied into a new store with room for as many rows again, and
  // their count is added to `*copied_rows`.  Returns false, leaving `*out`
  // alone, iff the row ceiling refuses a row.  Safe to call concurrently on
  // views of one store.
  bool Extend(const int* tuples, size_t n, Rows* out,
              size_t* copied_rows) const;

  std::vector<std::vector<int>> ToTuples() const;
  // ToTuples() in lexicographic order, sorting row indices over the flat
  // arena and materialising the per-tuple vectors once (the sorted output
  // is byte-identical to sorting ToTuples(), without the intermediate
  // copy-then-shuffle of arity-sized heap vectors).
  std::vector<std::vector<int>> ToSortedTuples() const;

 private:
  // Dedup entry for arity <= 2 (every concept, role and rewriting-
  // produced predicate): the tuple packed beside the row id, so the
  // duplicate check reads one slot instead of chasing from the slot
  // table into the cells arena, and rehashing touches neither the arena
  // nor the hash function (the low hash bits ride in what would be
  // padding; they cover any table below 2^32 slots, and a larger one
  // merely clusters, it does not break the probe sequence).
  struct SmallSlot {
    uint64_t key = 0;
    uint32_t id = 0;      // Row index + 1; 0 = empty.
    uint32_t hash32 = 0;  // Low 32 bits of the tuple hash.
  };

  // Zero-initialised slot array from BufferPool (util/buffer_pool.h).  A
  // large table is a recycled block, already faulted in and cleared over
  // just its own bytes, or a fresh calloc block, whose pages stay lazily
  // zeroed when calloc takes them from a fresh mapping: sizing a big table
  // does not pay an eager memset over slots that may never be touched (a
  // std::vector fill would).  Small tables come from calloc directly.
  struct SlotBuffer {
    SlotBuffer() = default;
    explicit SlotBuffer(size_t n);
    SlotBuffer(const SlotBuffer& o);
    SlotBuffer& operator=(const SlotBuffer& o);
    SlotBuffer(SlotBuffer&& o) noexcept : data(o.data), size(o.size) {
      o.data = nullptr;
      o.size = 0;
    }
    SlotBuffer& operator=(SlotBuffer&& o) noexcept;
    ~SlotBuffer();

    SmallSlot& operator[](size_t i) { return data[i]; }
    const SmallSlot& operator[](size_t i) const { return data[i]; }

    SmallSlot* data = nullptr;
    size_t size = 0;
  };

  friend class RowStore;

  bool InsertSmall(const int* tuple);
  bool InsertWide(const int* tuple);
  // Contains over the rows with id < `limit` of this owning arena.
  bool ContainsBelow(const int* tuple, size_t limit) const;
  void AppendCells(const int* tuple);
  void RehashSmall(size_t capacity);
  void GrowSmall();
  void RehashWide(size_t capacity);
  void GrowWide();

  PooledVector<int> cells_;         // The arena of an owning Rows.
  const int* base_ = nullptr;       // cells_.data(), or the store's arena.
  size_t num_rows_ = 0;
  bool at_row_ceiling_ = false;     // A ceiling refusal happened; see Insert.
  PooledVector<uint32_t> slots_;    // Arity >= 3; power of two; 0 = empty.
  SlotBuffer small_;                // Arity 1-2; power-of-two sized.
  std::shared_ptr<RowStore> store_;  // Set iff this is a view.
};

// The append-only backing of one snapshot relation's versions.  It owns a
// Rows whose cells arena is allocated once at the store's capacity and
// never reallocated, and whose dedup table is sized for that capacity, so
// a view's base pointer stays valid while later versions append at the
// tail.
// A store is created either by a snapshot build (fill it through
// mutable_rows() before making any view) or by Rows::Extend.
class RowStore {
 public:
  // An empty store of `arity`-ary rows with room for more than `min_rows`
  // rows: the capacity is half the smallest power-of-two dedup table (at
  // least 64 slots) with more than 2 * min_rows slots, so the table is at
  // most half full.
  RowStore(int arity, size_t min_rows);

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  // Build phase only: no view of the store may exist yet.
  Rows* mutable_rows() { return &rows_; }

 private:
  friend struct Rows;

  const size_t capacity_;  // Rows.
  // Guards rows_ (its row count, tail and dedup table) once views exist.
  // Rows below any view's size() never change, so views read them
  // without it.
  mutable std::mutex mu_;
  Rows rows_;
};

// Hash index on the positions set in `mask` (bit i = position i bound):
// key hash -> rows whose key matches (collisions compared by the caller).
// Flat open-addressing table over power-of-two slots with the row ids of
// each key contiguous in `ids` (CSR layout): a probe is one scan of the
// flat `hashes` array plus a contiguous candidate range, with none of the
// per-bucket pointer chasing of a node-based map.
// Keys are matched by the low 32 hash bits only (0 remapped to 1 as the
// empty marker) — sound because index consumers already treat a hash
// match as a candidate and verify the key positions against the row.
// The arrays live in BufferPool blocks, like the relations they index.
struct HashIndex {
  size_t mask = 0;                  // slots - 1.
  PooledVector<uint32_t> hashes;    // 0 = empty slot.
  PooledVector<uint32_t> starts;    // Slot -> first candidate in `ids`.
  PooledVector<uint32_t> ends;      // Slot -> one past the last candidate.
  PooledVector<uint32_t> ids;       // Row ids, grouped by key, row order.

  // Heap bytes held by the index's four flat arrays (capacities, matching
  // Rows::MemoryBytes), for probe-index memory accounting.
  size_t MemoryBytes() const {
    return (hashes.capacity() + starts.capacity() + ends.capacity() +
            ids.capacity()) *
           sizeof(uint32_t);
  }

  // Bulk probe for the batch executor: resolves `n` hashes to candidate
  // ranges as [begin[i], end[i]) offsets into `ids` (begin == end when the
  // key is absent).  Offsets rather than pointers so the caller's per-batch
  // range arrays stay 32-bit; the slot of the next probe is prefetched
  // while the current one resolves.  Equivalent to n Find calls.
  void FindBatch(const size_t* h, size_t n, uint32_t* out_begin,
                 uint32_t* out_end) const {
    if (hashes.empty()) {
      for (size_t i = 0; i < n; ++i) {
        out_begin[i] = 0;
        out_end[i] = 0;
      }
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (i + 1 < n) {
        uint32_t ahead = static_cast<uint32_t>(h[i + 1]);
        if (ahead == 0) ahead = 1;
        __builtin_prefetch(hashes.data() + (ahead & mask));
      }
      uint32_t want = static_cast<uint32_t>(h[i]);
      if (want == 0) want = 1;
      size_t pos = want & mask;
      uint32_t begin = 0;
      uint32_t end = 0;
      while (true) {
        uint32_t stored = hashes[pos];
        if (stored == want) {
          begin = starts[pos];
          end = ends[pos];
          break;
        }
        if (stored == 0) break;
        pos = (pos + 1) & mask;
      }
      out_begin[i] = begin;
      out_end[i] = end;
    }
  }

  // Candidates for `h` as a [first, last) range (nullptrs when absent).
  std::pair<const uint32_t*, const uint32_t*> Find(size_t h) const {
    if (hashes.empty()) return {nullptr, nullptr};
    uint32_t want = static_cast<uint32_t>(h);
    if (want == 0) want = 1;
    size_t pos = want & mask;
    while (true) {
      uint32_t stored = hashes[pos];
      if (stored == want) {
        return {ids.data() + starts[pos], ids.data() + ends[pos]};
      }
      if (stored == 0) return {nullptr, nullptr};
      pos = (pos + 1) & mask;
    }
  }
};

// A lazily built HashIndex: the once_flag makes concurrent consumers agree
// on a single build.
struct IndexSlot {
  std::once_flag built;
  HashIndex index;
};

// Builds the index of `rows` on the key positions in `mask`.  `poll_abort`
// (nullable) is consulted every kRelationAbortInterval rows; returning true
// stops the build, leaving a *partial* index — callers that can abort must
// not let anyone probe a partial index (the evaluator's aborted_ flag does
// this).  Returns false iff the build was aborted.
using AbortPoll = bool (*)(void*);
bool BuildHashIndex(const Rows& rows, unsigned mask, HashIndex* index,
                    AbortPoll poll_abort = nullptr, void* poll_arg = nullptr);

// How often (in rows) BuildHashIndex polls `poll_abort`; power of two,
// matching the evaluator's deadline-poll cadence.
constexpr long kRelationAbortInterval = 1024;

}  // namespace owlqr

#endif  // OWLQR_DATA_RELATION_H_
