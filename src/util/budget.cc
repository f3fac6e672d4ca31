#include "util/budget.h"

namespace owlqr {

namespace {

// Lock-free high-water maintenance shared by budget and account.
inline void RaiseHighWater(std::atomic<size_t>* high_water, size_t now) {
  size_t seen = high_water->load(std::memory_order_relaxed);
  while (now > seen &&
         !high_water->compare_exchange_weak(seen, now,
                                            std::memory_order_relaxed)) {
  }
}

}  // namespace

bool DeadlineAfter(long ms, std::chrono::steady_clock::time_point* deadline) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (ms >= headroom.count()) return false;
  *deadline = now + std::chrono::milliseconds(ms);
  return true;
}

bool MemoryBudget::Charge(size_t bytes) {
  size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  RaiseHighWater(&high_water_, now);
  return limit_ == 0 || now <= limit_;
}

void MemoryBudget::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

MemoryAccount::~MemoryAccount() {
  if (budget_ != nullptr) {
    budget_->Release(used_.load(std::memory_order_relaxed));
  }
}

bool MemoryAccount::Charge(size_t bytes) {
  size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  RaiseHighWater(&high_water_, now);
  bool ok = limit_ == 0 || now <= limit_;
  if (budget_ != nullptr && !budget_->Charge(bytes)) ok = false;
  return ok;
}

void MemoryAccount::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (budget_ != nullptr) budget_->Release(bytes);
}

}  // namespace owlqr
