#include "data/relation.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/logging.h"
#include "util/metrics.h"

namespace owlqr {

namespace {

// Slot values are row id + 1 stored in 32 bits, so the last representable
// row id is 2^32 - 2; inserting beyond that would silently truncate and
// corrupt deduplication.  Insert saturates at the ceiling (refuse + mark
// AtRowCeiling) instead of aborting the process: the serving engine must
// survive a query that tries, and the evaluator turns the flag into a
// cooperative abort at its next limit flush, on the sequential path and
// under the DAG scheduler alike.
constexpr size_t kMaxRowsPerRelation = 0xFFFFFFFEull;
// Crossing half the ceiling bumps evaluator/rows_near_overflow so capacity
// headroom shows up in traces long before saturation.
constexpr size_t kRowsNearOverflow = 1ull << 31;

// Test-only ceiling override (0 = the real ceiling).  Plain variable: tests
// set it before threads start and restore it after they join.
size_t g_max_rows_for_test = 0;

inline size_t RowCeiling() {
  return g_max_rows_for_test != 0 ? g_max_rows_for_test : kMaxRowsPerRelation;
}

inline size_t NearOverflowMark(size_t ceiling) {
  return ceiling == kMaxRowsPerRelation ? kRowsNearOverflow : ceiling / 2;
}

// Packs an arity-1 or arity-2 tuple into the inline dedup key.  Bit-casts
// through uint32_t so negative ints round-trip.
inline uint64_t PackSmall(const int* tuple, int arity) {
  uint64_t key = static_cast<uint32_t>(tuple[0]);
  if (arity == 2) {
    key = (key << 32) | static_cast<uint32_t>(tuple[1]);
  }
  return key;
}

}  // namespace

Rows::SlotBuffer::SlotBuffer(size_t n)
    : data(static_cast<SmallSlot*>(std::calloc(n, sizeof(SmallSlot)))),
      size(n) {
  OWLQR_CHECK_MSG(n == 0 || data != nullptr, "dedup table allocation failed");
}

Rows::SlotBuffer::SlotBuffer(const SlotBuffer& o) : SlotBuffer(o.size) {
  if (o.size != 0) std::memcpy(data, o.data, o.size * sizeof(SmallSlot));
}

Rows::SlotBuffer& Rows::SlotBuffer::operator=(const SlotBuffer& o) {
  if (this != &o) *this = SlotBuffer(o);
  return *this;
}

Rows::SlotBuffer& Rows::SlotBuffer::operator=(SlotBuffer&& o) noexcept {
  if (this != &o) {
    std::free(data);
    data = o.data;
    size = o.size;
    o.data = nullptr;
    o.size = 0;
  }
  return *this;
}

Rows::SlotBuffer::~SlotBuffer() { std::free(data); }

bool Rows::Insert(const int* tuple) {
  if (arity == 0) {
    // The zero-ary relation holds at most the empty tuple.
    if (num_rows_ > 0) return false;
    num_rows_ = 1;
    return true;
  }
  return arity <= 2 ? InsertSmall(tuple) : InsertWide(tuple);
}

bool Rows::Contains(const int* tuple) const {
  if (arity == 0) return num_rows_ > 0;
  if (arity <= 2) {
    if (small_.size == 0) return false;
    size_t mask = small_.size - 1;
    uint64_t key = PackSmall(tuple, arity);
    size_t pos = HashTuple(tuple, arity) & mask;
    while (small_[pos].id != 0) {
      if (small_[pos].key == key) return true;
      pos = (pos + 1) & mask;
    }
    return false;
  }
  if (slots_.empty()) return false;
  size_t mask = slots_.size() - 1;
  size_t pos = HashTuple(tuple, arity) & mask;
  while (slots_[pos] != 0) {
    if (std::equal(tuple, tuple + arity, row(slots_[pos] - 1))) return true;
    pos = (pos + 1) & mask;
  }
  return false;
}

bool Rows::InsertSmall(const int* tuple) {
  if ((num_rows_ + 1) * 2 > small_.size) GrowSmall();
  size_t mask = small_.size - 1;
  uint64_t key = PackSmall(tuple, arity);
  size_t hash = HashTuple(tuple, arity);
  size_t pos = hash & mask;
  while (small_[pos].id != 0) {
    if (small_[pos].key == key) return false;
    pos = (pos + 1) & mask;
  }
  const size_t ceiling = RowCeiling();
  if (num_rows_ >= ceiling) {
    at_row_ceiling_ = true;
    return false;
  }
  small_[pos].key = key;
  small_[pos].id = static_cast<uint32_t>(num_rows_ + 1);
  small_[pos].hash32 = static_cast<uint32_t>(hash);
  cells.insert(cells.end(), tuple, tuple + arity);
  if (++num_rows_ == NearOverflowMark(ceiling)) {
    OWLQR_COUNT("evaluator/rows_near_overflow", 1);
  }
  return true;
}

bool Rows::InsertWide(const int* tuple) {
  if ((num_rows_ + 1) * 2 > slots_.size()) GrowWide();
  size_t mask = slots_.size() - 1;
  size_t pos = HashTuple(tuple, arity) & mask;
  while (slots_[pos] != 0) {
    const int* existing = row(slots_[pos] - 1);
    if (std::equal(tuple, tuple + arity, existing)) return false;
    pos = (pos + 1) & mask;
  }
  const size_t ceiling = RowCeiling();
  if (num_rows_ >= ceiling) {
    at_row_ceiling_ = true;
    return false;
  }
  slots_[pos] = static_cast<uint32_t>(num_rows_ + 1);
  cells.insert(cells.end(), tuple, tuple + arity);
  if (++num_rows_ == NearOverflowMark(ceiling)) {
    OWLQR_COUNT("evaluator/rows_near_overflow", 1);
  }
  return true;
}

size_t Rows::InsertBatch(const int* tuples, size_t n, const size_t* hashes,
                         uint32_t* new_idx) {
  // The wide and zero-ary cases are rare enough that per-tuple Insert is
  // fine; the batch machinery pays off on the small-arity fast path below.
  if (arity == 0 || arity > 2) {
    size_t added = 0;
    for (size_t i = 0; i < n; ++i) {
      if (Insert(tuples + static_cast<size_t>(arity) * i)) {
        new_idx[added++] = static_cast<uint32_t>(i);
      }
    }
    return added;
  }
  if (small_.size == 0) GrowSmall();
  const size_t ceiling = RowCeiling();
  const size_t near_mark = NearOverflowMark(ceiling);

  // Pass 1 — read-only duplicate filter against the table as it stands.
  // Saturated joins emit mostly duplicates, and this loop retires them with
  // pipelined independent probes (no growth checks, no stores).  It is
  // conservative: a tuple equal to an earlier tuple of the *same* batch is
  // not in the table yet, survives, and is caught by pass 2's re-probe.
  // Survivor indexes go on the stack; oversized batches (the EmitBatch
  // caller chunks at the limit-flush countdown, far below this) fall back
  // to probing inline in pass 2.
  constexpr size_t kFilterCap = 4096;
  uint32_t survivors[kFilterCap];
  size_t num_survivors = 0;
  const bool filtered = n <= kFilterCap;
  if (filtered) {
    const size_t mask = small_.size - 1;
    // Wave-style group prefetch: fetch a group's dedup slots, then probe
    // the group — keeps several independent misses in flight where a
    // lookahead distance would serialise behind chain extensions.
    constexpr size_t kWave = 32;
    for (size_t base = 0; base < n; base += kWave) {
      const size_t lim = base + kWave < n ? base + kWave : n;
      for (size_t i = base; i < lim; ++i) {
        __builtin_prefetch(&small_[hashes[i] & mask]);
      }
      for (size_t i = base; i < lim; ++i) {
        const int* tuple = tuples + static_cast<size_t>(arity) * i;
        const uint64_t key = PackSmall(tuple, arity);
        size_t pos = hashes[i] & mask;
        bool duplicate = false;
        while (small_[pos].id != 0) {
          if (small_[pos].key == key) {
            duplicate = true;
            break;
          }
          pos = (pos + 1) & mask;
        }
        if (!duplicate) survivors[num_survivors++] = static_cast<uint32_t>(i);
      }
    }
  }

  // Pass 2 — insert the survivors in order, with the exact growth schedule
  // and duplicate semantics of n sequential InsertSmall calls.
  const size_t rounds = filtered ? num_survivors : n;
  size_t mask = small_.size - 1;
  size_t added = 0;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t i = filtered ? survivors[r] : r;
    if ((num_rows_ + 1) * 2 > small_.size) {
      GrowSmall();
      mask = small_.size - 1;
    }
    const int* tuple = tuples + static_cast<size_t>(arity) * i;
    const uint64_t key = PackSmall(tuple, arity);
    const size_t hash = hashes[i];
    size_t pos = hash & mask;
    bool duplicate = false;
    while (small_[pos].id != 0) {
      if (small_[pos].key == key) {
        duplicate = true;
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (duplicate) continue;
    if (num_rows_ >= ceiling) {
      at_row_ceiling_ = true;
      continue;
    }
    small_[pos].key = key;
    small_[pos].id = static_cast<uint32_t>(num_rows_ + 1);
    small_[pos].hash32 = static_cast<uint32_t>(hash);
    cells.push_back(tuple[0]);
    if (arity == 2) cells.push_back(tuple[1]);
    new_idx[added++] = static_cast<uint32_t>(i);
    if (++num_rows_ == near_mark) {
      OWLQR_COUNT("evaluator/rows_near_overflow", 1);
    }
  }
  return added;
}

void Rows::SetMaxRowsForTest(size_t max_rows) {
  g_max_rows_for_test = max_rows;
}

void Rows::RehashSmall(size_t capacity) {
  SlotBuffer old = std::move(small_);
  small_ = SlotBuffer(capacity);
  size_t mask = capacity - 1;
  for (size_t i = 0; i < old.size; ++i) {
    const SmallSlot& slot = old[i];
    if (slot.id == 0) continue;
    size_t pos = slot.hash32 & mask;
    while (small_[pos].id != 0) pos = (pos + 1) & mask;
    small_[pos] = slot;
  }
}

void Rows::GrowSmall() {
  RehashSmall(small_.size == 0 ? 64 : small_.size * 2);
}

void Rows::Reserve(size_t expected_rows) {
  if (arity < 1 || arity > 2) return;  // Wide relations are rare; skip.
  // Bound the hint so a selective join over a huge driver cannot turn the
  // estimate into an allocation: at most 2^16 slots (1 MiB of SmallSlots);
  // a relation that truly outgrows that resumes doubling from there.
  constexpr size_t kMaxReserveSlots = 1ull << 16;
  size_t needed = expected_rows * 2;  // Keep load factor <= 1/2.
  if (needed > kMaxReserveSlots) needed = kMaxReserveSlots;
  size_t capacity = 64;
  while (capacity < needed) capacity <<= 1;
  if (capacity > small_.size) RehashSmall(capacity);
}

void Rows::AdoptColumn(int arity_in, const int* column, size_t num_rows) {
  OWLQR_CHECK_MSG(num_rows_ == 0 && cells.empty(),
                  "AdoptColumn requires an empty relation");
  arity = arity_in;
  materialized = true;
  if (arity == 0) {
    num_rows_ = num_rows > 0 ? 1 : 0;
    return;
  }
  cells.assign(column, column + num_rows * static_cast<size_t>(arity));
  num_rows_ = num_rows;
  if (num_rows == 0) return;
  // Presize the dedup table for the final row count and place every row in
  // one pass.  Distinctness is the caller's contract, so placement skips
  // the duplicate compare and only walks to the first empty slot.
  size_t capacity = 64;
  while (capacity < num_rows * 2) capacity <<= 1;
  if (arity <= 2) {
    small_ = SlotBuffer(capacity);
    const size_t mask = capacity - 1;
    for (size_t r = 0; r < num_rows; ++r) {
      const int* tuple = row(r);
      const size_t hash = HashTuple(tuple, arity);
      size_t pos = hash & mask;
      while (small_[pos].id != 0) pos = (pos + 1) & mask;
      small_[pos].key = PackSmall(tuple, arity);
      small_[pos].id = static_cast<uint32_t>(r + 1);
      small_[pos].hash32 = static_cast<uint32_t>(hash);
    }
  } else {
    slots_.assign(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t r = 0; r < num_rows; ++r) {
      size_t pos = HashTuple(row(r), arity) & mask;
      while (slots_[pos] != 0) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<uint32_t>(r + 1);
    }
  }
}

void Rows::GrowWide() {
  size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
  slots_.assign(capacity, 0);
  size_t mask = capacity - 1;
  for (size_t r = 0; r < num_rows_; ++r) {
    size_t pos = HashTuple(row(r), arity) & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = static_cast<uint32_t>(r + 1);
  }
}

std::vector<std::vector<int>> Rows::ToTuples() const {
  std::vector<std::vector<int>> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    out.emplace_back(row(r), row(r) + arity);
  }
  return out;
}

std::vector<std::vector<int>> Rows::ToSortedTuples() const {
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const int* ra = row(a);
    const int* rb = row(b);
    return std::lexicographical_compare(ra, ra + arity, rb, rb + arity);
  });
  std::vector<std::vector<int>> out;
  out.reserve(num_rows_);
  for (uint32_t r : order) {
    out.emplace_back(row(r), row(r) + arity);
  }
  return out;
}

bool BuildHashIndex(const Rows& rows, unsigned mask, HashIndex* index,
                    AbortPoll poll_abort, void* poll_arg) {
  size_t capacity = 64;
  while (capacity < rows.size() * 2) capacity <<= 1;
  index->mask = capacity - 1;
  index->hashes.assign(capacity, 0);
  index->starts.assign(capacity, 0);
  index->ends.assign(capacity, 0);
  bool complete = true;
  // Pass 1: claim a slot per distinct key hash and count its rows.
  std::vector<uint32_t> row_hash;
  row_hash.reserve(rows.size());
  std::vector<int> key_values;
  for (size_t r = 0; r < rows.size(); ++r) {
    // A single huge index build must honour the caller's abort signal (the
    // evaluator's deadline); an aborted build leaves a partial index, which
    // is only sound if the caller stops every consumer before it trusts the
    // results.
    if (poll_abort != nullptr &&
        (r & (kRelationAbortInterval - 1)) == kRelationAbortInterval - 1 &&
        poll_abort(poll_arg)) {
      complete = false;
      break;
    }
    key_values.clear();
    const int* tuple = rows.row(r);
    for (int i = 0; i < rows.arity; ++i) {
      if (mask & (1u << i)) key_values.push_back(tuple[i]);
    }
    uint32_t h = static_cast<uint32_t>(
        HashTuple(key_values.data(), static_cast<int>(key_values.size())));
    if (h == 0) h = 1;
    row_hash.push_back(h);
    size_t pos = h & index->mask;
    while (index->hashes[pos] != 0 && index->hashes[pos] != h) {
      pos = (pos + 1) & index->mask;
    }
    index->hashes[pos] = h;
    ++index->ends[pos];
  }
  // Pass 2: prefix-sum the counts into per-key ranges, then scatter the
  // row ids; `ends` advances back to one-past-last as rows land.
  uint32_t cursor = 0;
  for (size_t pos = 0; pos < capacity; ++pos) {
    if (index->hashes[pos] == 0) continue;
    index->starts[pos] = cursor;
    cursor += index->ends[pos];
    index->ends[pos] = index->starts[pos];
  }
  index->ids.resize(cursor);
  for (size_t r = 0; r < row_hash.size(); ++r) {
    uint32_t h = row_hash[r];
    size_t pos = h & index->mask;
    while (index->hashes[pos] != h) pos = (pos + 1) & index->mask;
    index->ids[index->ends[pos]++] = static_cast<uint32_t>(r);
  }
  return complete;
}

}  // namespace owlqr
