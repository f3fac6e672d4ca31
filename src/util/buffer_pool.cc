#include "util/buffer_pool.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace owlqr {

namespace {

constexpr int kMinPooledShift = 16;  // log2(kMinPooledBytes).
constexpr size_t kPageBytes = 4096;

// A fresh page-aligned block of `bytes` from malloc, or from calloc when
// `zeroed` (which hands back the lazily zeroed pages of a fresh mapping
// without touching them).  The allocation has a page of slack in front;
// the pointer to free sits in the 8 bytes before the block.
void* AllocateFresh(size_t bytes, bool zeroed) {
  const size_t total = bytes + kPageBytes;
  char* raw = static_cast<char*>(zeroed ? std::calloc(1, total)
                                        : std::malloc(total));
  OWLQR_CHECK_MSG(raw != nullptr, "buffer allocation failed");
  // malloc aligns to 16, so the gap is at least 16 bytes.
  char* block = raw + kPageBytes -
                reinterpret_cast<uintptr_t>(raw) % kPageBytes;
  reinterpret_cast<char**>(block)[-1] = raw;
  return block;
}

void FreeFresh(void* block) {
  std::free(reinterpret_cast<char**>(block)[-1]);
}

}  // namespace

static_assert(BufferPool::kMinPooledBytes == size_t{1} << kMinPooledShift);

BufferPool::~BufferPool() {
  for (int c = 0; c < kNumClasses; ++c) {
    while (FreeBlock* block = free_[c]) {
      free_[c] = block->next;
      FreeFresh(block);
    }
  }
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

int BufferPool::SizeClass(size_t bytes) {
  if (bytes <= kMinPooledBytes) return 0;
  // 2^k < bytes <= 2^(k+1); the four classes of that octave are 5, 6, 7
  // and 8 steps of 2^(k-2).
  const int k = 63 - __builtin_clzll(static_cast<unsigned long long>(bytes - 1));
  const size_t step = size_t{1} << (k - 2);
  const int steps = static_cast<int>((bytes + step - 1) / step);
  const int size_class = 1 + (k - kMinPooledShift) * 4 + (steps - 5);
  return size_class < kNumClasses ? size_class : -1;
}

size_t BufferPool::ClassBytes(int size_class) {
  if (size_class == 0) return kMinPooledBytes;
  const int k = kMinPooledShift + (size_class - 1) / 4;
  const size_t steps = 5 + static_cast<size_t>((size_class - 1) % 4);
  return steps << (k - 2);
}

void* BufferPool::Allocate(size_t bytes, bool zeroed) {
  if (bytes < kMinPooledBytes) {
    const size_t n = bytes == 0 ? 1 : bytes;
    void* block = zeroed ? std::calloc(1, n) : std::malloc(n);
    OWLQR_CHECK_MSG(block != nullptr, "buffer allocation failed");
    return block;
  }
  const int size_class = SizeClass(bytes);
  if (size_class >= 0) {
    FreeBlock* block = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      block = free_[size_class];
      if (block != nullptr) {
        free_[size_class] = block->next;
        retained_ -= ClassBytes(size_class);
      }
    }
    if (block != nullptr) {
      if (zeroed) std::memset(block, 0, bytes);
      return block;
    }
  }
  return AllocateFresh(size_class >= 0 ? ClassBytes(size_class) : bytes,
                       zeroed);
}

void BufferPool::Release(void* block, size_t bytes) {
  if (block == nullptr) return;
  if (bytes < kMinPooledBytes) {
    std::free(block);
    return;
  }
  const int size_class = SizeClass(bytes);
  if (size_class >= 0) {
    const size_t block_bytes = ClassBytes(size_class);
    std::lock_guard<std::mutex> lock(mu_);
    if (retained_ + block_bytes <= kMaxRetainedBytes) {
      FreeBlock* free_block = static_cast<FreeBlock*>(block);
      free_block->next = free_[size_class];
      free_[size_class] = free_block;
      retained_ += block_bytes;
      return;
    }
  }
  FreeFresh(block);
}

size_t BufferPool::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

}  // namespace owlqr
