// The engine's one cache container (engine/lru_cache.h), tested directly:
// the Take/Put checkout that hands a resident entry's budget charge to the
// caller and settles it on return, charge release on replacement and
// Clear, and LRU-first shedding under budget pressure.  PlanCache and
// AnswerCache are exercised through their own tests (engine_test.cc,
// engine_answer_cache_test.cc).  Part of the `sanitize` ctest label.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/lru_cache.h"
#include "util/budget.h"

namespace owlqr {
namespace {

// A value whose charge is whatever it says it is.
struct Sized {
  size_t bytes = 0;
  size_t MemoryBytes() const { return bytes; }
};

using SizedCache = LruCache<Sized>;

TEST(LruCacheTest, TakeRemovesEntryAndHandsOverItsCharge) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/4, /*max_bytes=*/0, &budget);
  cache.Put("a", Sized{100});
  EXPECT_EQ(budget.used(), 100u);

  SizedCache::Checkout out = cache.Take("a");
  EXPECT_EQ(out.value.bytes, 100u);
  EXPECT_EQ(out.charged_bytes, 100u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // The charge moved to the caller; it did not leave the budget.
  EXPECT_EQ(budget.used(), 100u);

  // Checked out means gone: a second Take misses and owes nothing.
  SizedCache::Checkout again = cache.Take("a");
  EXPECT_EQ(again.value.bytes, 0u);
  EXPECT_EQ(again.charged_bytes, 0u);

  budget.Release(out.charged_bytes);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(LruCacheTest, PutSettlesAnOutstandingChargeInBothDirections) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/4, /*max_bytes=*/0, &budget);
  cache.Put("a", Sized{100});

  // The value grew while checked out: Put charges the difference.
  SizedCache::Checkout out = cache.Take("a");
  cache.Put("a", Sized{250}, out.charged_bytes);
  EXPECT_EQ(budget.used(), 250u);
  EXPECT_EQ(cache.bytes(), 250u);

  // The value shrank: Put releases the difference.
  out = cache.Take("a");
  EXPECT_EQ(out.charged_bytes, 250u);
  cache.Put("a", Sized{40}, out.charged_bytes);
  EXPECT_EQ(budget.used(), 40u);
  EXPECT_EQ(cache.bytes(), 40u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, ReplacingAKeyReleasesTheOldCharge) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/4, /*max_bytes=*/0, &budget);
  cache.Put("a", Sized{100});
  cache.Put("a", Sized{30});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a").bytes, 30u);
  EXPECT_EQ(budget.used(), 30u);
  EXPECT_EQ(cache.stats().insertions, 2);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(LruCacheTest, BudgetPressureShedsLeastRecentlyUsedFirst) {
  MemoryBudget budget(/*limit_bytes=*/320);
  SizedCache cache(/*capacity=*/8, /*max_bytes=*/0, &budget);
  cache.Put("a", Sized{100});
  cache.Put("b", Sized{100});
  EXPECT_EQ(cache.Get("a").bytes, 100u);  // "b" is now the LRU entry.
  budget.Charge(100);                     // A live execution's arenas.
  cache.Put("c", Sized{100});             // 400 > 320: shed one entry.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get("b").bytes, 0u);
  EXPECT_EQ(cache.Get("a").bytes, 100u);
  EXPECT_EQ(cache.Get("c").bytes, 100u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(budget.used(), 300u);

  // Under enough outside pressure the fresh entry goes too.
  budget.Charge(1000);
  cache.Put("d", Sized{10});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(budget.used(), 1100u);
  budget.Release(1100);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(LruCacheTest, ClearReleasesEveryCharge) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/8, /*max_bytes=*/0, &budget);
  cache.Put("a", Sized{10});
  cache.Put("b", Sized{20});
  cache.Put("c", Sized{30});
  EXPECT_EQ(budget.used(), 60u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(cache.stats().evictions, 3);
}

TEST(LruCacheTest, ZeroCapacityKeepsNothingAndOwesNothing) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/0, /*max_bytes=*/0, &budget);
  budget.Charge(50);  // A charge the caller owes, as after a Take.
  cache.Put("a", Sized{50}, /*charged_bytes=*/50);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(cache.Get("a").bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(LruCacheTest, ConcurrentCheckoutsBalanceTheBudget) {
  MemoryBudget budget;
  SizedCache cache(/*capacity=*/3, /*max_bytes=*/0, &budget);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = std::to_string((t + i) % 5);
        SizedCache::Checkout out = cache.Take(key);
        cache.Put(key, Sized{static_cast<size_t>(1 + (i * 7 + t) % 64)},
                  out.charged_bytes);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 3u);
  EXPECT_EQ(budget.used(), cache.bytes());
  cache.Clear();
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace owlqr
