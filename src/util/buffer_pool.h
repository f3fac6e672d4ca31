#ifndef OWLQR_UTIL_BUFFER_POOL_H_
#define OWLQR_UTIL_BUFFER_POOL_H_

// A process-wide recycler for the evaluator's large table buffers: the
// dedup slot tables and cells arenas of data/relation.h's Rows and the
// arrays of its HashIndex.
//
// Every execution builds its IDB relations from scratch and frees them when
// it ends.  Served straight from the system allocator, each large table
// lands on fresh pages, and the first touch of every page is a minor fault
// that costs more than the inserts that fill it.  The pool keeps a bounded
// set of freed blocks, grouped into fine size classes, and hands them back
// to the next request of the same class: their pages are already faulted
// in.
//
// Blocks of kMinPooledBytes or more are pooled and page-aligned.  A fresh
// one comes from malloc, or from calloc when it must be zeroed: calloc
// hands back a fresh mapping's lazily zeroed pages untouched, so sizing a
// big table pays no eager memset over slots that may never be written.  A
// recycled block requested `zeroed` is cleared with memset over only the
// bytes asked for.  At most kMaxRetainedBytes of free blocks are kept; a
// release that would exceed that frees the block.  Smaller requests go to
// malloc/calloc and are never retained.
//
// Retained free bytes belong to no execution: the MemoryBudget accounting
// of util/budget.h charges only what a live table holds, so a quiesced
// engine still accounts to zero while the pool keeps its blocks.
//
// Thread-safe: one mutex guards the free lists, and the system calls run
// outside it.

#include <cstddef>
#include <mutex>
#include <vector>

namespace owlqr {

class BufferPool {
 public:
  // Requests below this go to malloc/calloc.
  static constexpr size_t kMinPooledBytes = size_t{64} << 10;
  // The most free-block bytes the pool ever retains.
  static constexpr size_t kMaxRetainedBytes = size_t{8} << 20;

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // The pool the relation buffers use.  Never destroyed, so buffers freed
  // during static destruction still have a pool to return to.
  static BufferPool& Global();

  // A block of at least `bytes` bytes, page-aligned when pooled; its first
  // `bytes` bytes are zero when `zeroed`.  Aborts when memory is exhausted.
  void* Allocate(size_t bytes, bool zeroed);
  // Returns a block obtained from Allocate with the same `bytes`.
  void Release(void* block, size_t bytes);

  // Bytes of free blocks the pool holds now (never above
  // kMaxRetainedBytes).
  size_t retained_bytes() const;

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  // Pooled sizes rounded up to four classes per power of two from
  // kMinPooledBytes up to kMaxRetainedBytes: class 0 is kMinPooledBytes,
  // then 1.25, 1.5, 1.75 and 2 times each power.
  static constexpr int kNumClasses = 1 + 4 * 7;
  // The class of a pooled request (-1 above the largest class), and the
  // block size of a class.
  static int SizeClass(size_t bytes);
  static size_t ClassBytes(int size_class);

  mutable std::mutex mu_;
  FreeBlock* free_[kNumClasses] = {};
  size_t retained_ = 0;
};

// std::allocator stand-in that routes a container's buffer through
// BufferPool::Global() (unzeroed: a vector value-initialises what it uses).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(BufferPool::Global().Allocate(n * sizeof(T),
                                                         /*zeroed=*/false));
  }
  void deallocate(T* p, size_t n) {
    BufferPool::Global().Release(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

template <typename T>
using PooledVector = std::vector<T, PoolAllocator<T>>;

}  // namespace owlqr

#endif  // OWLQR_UTIL_BUFFER_POOL_H_
