#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "util/buffer_pool.h"
#include "util/interner.h"
#include "util/strings.h"

namespace owlqr {
namespace {

TEST(InternerTest, AssignsDenseIdsInOrder) {
  Interner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.Intern("beta"), 1);
  EXPECT_EQ(interner.Intern("alpha"), 0);  // Idempotent.
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.Name(1), "beta");
  EXPECT_EQ(interner.Find("gamma"), -1);
  EXPECT_FALSE(interner.Contains("gamma"));
  EXPECT_TRUE(interner.Contains("alpha"));
}

TEST(InternerTest, EmptyAndOddNames) {
  Interner interner;
  EXPECT_EQ(interner.Intern(""), 0);
  EXPECT_EQ(interner.Intern("A[P-]"), 1);
  EXPECT_EQ(interner.Intern("name with spaces"), 2);
  EXPECT_EQ(interner.Find("A[P-]"), 1);
}

TEST(InternerTest, NamesStableAcrossGrowth) {
  Interner interner;
  interner.Intern("first");
  const std::string& ref = interner.Name(0);
  for (int i = 0; i < 1000; ++i) {
    interner.Intern("n" + std::to_string(i));
  }
  EXPECT_EQ(ref, "first");  // References survive rehashing.
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, JoinAndStartsWith) {
  std::vector<int> xs = {1, 2, 3};
  EXPECT_EQ(Join(xs, ", "), "1, 2, 3");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
  EXPECT_TRUE(StartsWith("goal: G", "goal:"));
  EXPECT_FALSE(StartsWith("go", "goal:"));
}

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * 1024;

TEST(BufferPoolTest, ReleasedBlockIsHandedOutAgainForItsSizeClass) {
  BufferPool pool;
  // 100 KiB and 110 KiB share the 112 KiB class; 200 KiB does not.
  void* block = pool.Allocate(100 * kKiB, /*zeroed=*/false);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % 4096, 0u);
  pool.Release(block, 100 * kKiB);
  EXPECT_EQ(pool.retained_bytes(), 112 * kKiB);

  void* other = pool.Allocate(200 * kKiB, /*zeroed=*/false);
  EXPECT_NE(other, block);
  EXPECT_EQ(pool.retained_bytes(), 112 * kKiB);
  void* again = pool.Allocate(110 * kKiB, /*zeroed=*/false);
  EXPECT_EQ(again, block);
  EXPECT_EQ(pool.retained_bytes(), 0u);
  pool.Release(again, 110 * kKiB);
  pool.Release(other, 200 * kKiB);
}

TEST(BufferPoolTest, DirtyRecycledSlotBlockComesBackZeroed) {
  BufferPool pool;
  const size_t bytes = 256 * kKiB;
  unsigned char* block =
      static_cast<unsigned char*>(pool.Allocate(bytes, /*zeroed=*/true));
  for (size_t i = 0; i < bytes; ++i) ASSERT_EQ(block[i], 0) << i;
  std::memset(block, 0xAB, bytes);
  pool.Release(block, bytes);

  const size_t smaller = bytes - 3000;  // Same class.
  unsigned char* again =
      static_cast<unsigned char*>(pool.Allocate(smaller, /*zeroed=*/true));
  ASSERT_EQ(again, block);
  for (size_t i = 0; i < smaller; ++i) ASSERT_EQ(again[i], 0) << i;
  pool.Release(again, smaller);
}

TEST(BufferPoolTest, RetainedBytesNeverExceedTheCap) {
  BufferPool pool;
  std::vector<void*> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(pool.Allocate(kMiB, false));
  for (void* block : blocks) {
    pool.Release(block, kMiB);
    EXPECT_LE(pool.retained_bytes(), BufferPool::kMaxRetainedBytes);
  }
  EXPECT_EQ(pool.retained_bytes(), BufferPool::kMaxRetainedBytes);

  // Blocks above the cap and below the pooled minimum are never kept.
  BufferPool other;
  void* huge = other.Allocate(2 * BufferPool::kMaxRetainedBytes, false);
  other.Release(huge, 2 * BufferPool::kMaxRetainedBytes);
  void* small = other.Allocate(BufferPool::kMinPooledBytes - 1, true);
  other.Release(small, BufferPool::kMinPooledBytes - 1);
  EXPECT_EQ(other.retained_bytes(), 0u);
}

TEST(BufferPoolTest, ConcurrentAcquireAndRelease) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      std::mt19937 rng(t);
      for (int r = 0; r < kRounds; ++r) {
        const size_t bytes = 64 * kKiB + rng() % (448 * kKiB);
        const bool zeroed = r % 2 == 0;
        unsigned char* block =
            static_cast<unsigned char*>(pool.Allocate(bytes, zeroed));
        if (zeroed) {
          ASSERT_EQ(block[0], 0);
          ASSERT_EQ(block[bytes - 1], 0);
        }
        // Every block is this thread's alone until released.
        const unsigned char mark = static_cast<unsigned char>(t + 1);
        block[0] = mark;
        block[bytes / 2] = mark;
        block[bytes - 1] = mark;
        std::this_thread::yield();
        ASSERT_EQ(block[0], mark);
        ASSERT_EQ(block[bytes / 2], mark);
        ASSERT_EQ(block[bytes - 1], mark);
        pool.Release(block, bytes);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(pool.retained_bytes(), BufferPool::kMaxRetainedBytes);
  EXPECT_GT(pool.retained_bytes(), 0u);
}

}  // namespace
}  // namespace owlqr
