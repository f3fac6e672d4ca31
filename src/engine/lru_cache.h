#ifndef OWLQR_ENGINE_LRU_CACHE_H_
#define OWLQR_ENGINE_LRU_CACHE_H_

// The engine's one cache container: a bounded, thread-safe LRU map from
// string keys to values, each resident value charged to an optional shared
// MemoryBudget (its MemoryBytes(), or nothing for a value without one).
// The plan cache (engine/plan_cache.h), the answer cache
// (engine/answer_cache.h) and the engine's retained incremental IDB states
// (engine/engine.h) are its three instances; DESIGN.md §8 compares them.
//
// Put installs the fresh entry as most recently used, then evicts from the
// back: past `capacity` entries; past `max_bytes` (0 = no cap) while more
// than the fresh entry resides, so one oversized value still stays; and
// while the budget is over its limit, the fresh entry included —
// executions' live arenas matter more than cached copies.  Take removes an
// entry and hands its charge to the caller, who settles it with a later
// Put or releases it on the budget.

#include <cstddef>
#include <iterator>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/budget.h"

namespace owlqr {

template <typename Value>
class LruCache {
 public:
  struct Stats {
    long hits = 0;
    long misses = 0;
    long insertions = 0;
    long evictions = 0;    // Capacity / byte-cap / budget sheds and Clear.
    long invalidated = 0;  // Entries dropped by EraseIf.
  };

  // A value checked out by Take; the caller owes `charged_bytes`.
  struct Checkout {
    Value value{};  // Default-constructed on a miss.
    size_t charged_bytes = 0;
  };

  // `budget` is nullable (untracked).
  explicit LruCache(size_t capacity, size_t max_bytes = 0,
                    MemoryBudget* budget = nullptr)
      : capacity_(capacity), max_bytes_(max_bytes), budget_(budget) {}
  ~LruCache() { Clear(); }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns a copy of the value and refreshes its recency, or a
  // default-constructed Value on a miss.  `count_miss` is false for a
  // double-checked lookup, so one logical miss never counts twice.
  Value Get(const std::string& key, bool count_miss = true) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      if (count_miss) ++stats_.misses;
      return Value();
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  // Removes the entry for `key` and hands it, with its charge, to the
  // caller, so one value is never held by two users at once.
  Checkout Take(const std::string& key) {
    Checkout out;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return out;
    }
    ++stats_.hits;
    out.value = std::move(it->second->value);
    out.charged_bytes = it->second->bytes;
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    return out;
  }

  // Installs `value` under `key`, settling the caller's outstanding
  // `charged_bytes` (from Take; 0 for a fresh value) up or down to the
  // value's size, then evicts.  Replacing a resident key releases the old
  // entry's charge.
  void Put(const std::string& key, Value value, size_t charged_bytes = 0) {
    const size_t bytes = SizeOf(value);
    std::lock_guard<std::mutex> lock(mutex_);
    if (budget_ != nullptr) {
      if (bytes > charged_bytes) {
        budget_->Charge(bytes - charged_bytes);
      } else if (charged_bytes > bytes) {
        budget_->Release(charged_bytes - bytes);
      }
    }
    auto it = index_.find(key);
    if (it != index_.end()) Unlink(it->second);  // Racing publishers.
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    ++stats_.insertions;
    while (lru_.size() > capacity_) EvictBack();
    if (max_bytes_ > 0) {
      while (bytes_ > max_bytes_ && lru_.size() > 1) EvictBack();
    }
    if (budget_ != nullptr && budget_->limit() > 0) {
      while (budget_->used() > budget_->limit() && !lru_.empty()) {
        EvictBack();
      }
    }
  }

  // Drops every entry whose value satisfies `pred`, releasing its charge.
  template <typename Pred>
  void EraseIf(Pred pred) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (pred(it->value)) {
        it = Unlink(it);
        ++stats_.invalidated;
      } else {
        ++it;
      }
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!lru_.empty()) EvictBack();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }
  size_t bytes() const {  // Sum of resident entries' charges.
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  size_t capacity() const { return capacity_; }
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    std::string key;
    Value value;
    size_t bytes = 0;
  };
  using Iterator = typename std::list<Entry>::iterator;

  static size_t SizeOf(const Value& value) {
    if constexpr (requires { value.MemoryBytes(); }) {
      return value.MemoryBytes();
    } else {
      return 0;
    }
  }
  // Removes one entry and releases its charge.  Requires mutex_ held.
  Iterator Unlink(Iterator it) {
    if (budget_ != nullptr) budget_->Release(it->bytes);
    bytes_ -= it->bytes;
    index_.erase(it->key);
    return lru_.erase(it);
  }
  void EvictBack() {  // Requires mutex_ held.
    Unlink(std::prev(lru_.end()));
    ++stats_.evictions;
  }

  const size_t capacity_;
  const size_t max_bytes_;
  MemoryBudget* const budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<std::string, Iterator> index_;
  size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace owlqr

#endif  // OWLQR_ENGINE_LRU_CACHE_H_
