#include "engine/governor.h"

#include <algorithm>
#include <chrono>

#include "util/metrics.h"

namespace owlqr {

QueryGovernor::QueryGovernor(const GovernorOptions& options)
    : options_(options), budget_(options.max_memory_bytes) {}

QueryGovernor::Admission QueryGovernor::Admit(long request_timeout_ms) {
  if (options_.max_concurrent <= 0) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    OWLQR_COUNT("governor/admitted", 1);
    return Admission(this, Status::Ok());
  }
  const long timeout_ms = request_timeout_ms >= 0 ? request_timeout_ms
                                                  : options_.queue_timeout_ms;
  std::unique_lock<std::mutex> lock(mu_);
  // Free slot and nobody ahead of us: run now.  The queue-empty check keeps
  // admission FIFO — a fresh arrival must not overtake a waiter that a
  // concurrent Release is about to wake.
  if (in_use_ < options_.max_concurrent && queue_.empty()) {
    ++in_use_;
    lock.unlock();
    admitted_.fetch_add(1, std::memory_order_relaxed);
    OWLQR_COUNT("governor/admitted", 1);
    return Admission(this, Status::Ok());
  }
  if (timeout_ms <= 0 || queue_.size() >= options_.max_queue) {
    lock.unlock();
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    OWLQR_COUNT("governor/rejected", 1);
    return Admission(nullptr,
                     Status::Rejected(timeout_ms <= 0
                                          ? "engine saturated (no queueing)"
                                          : "admission queue full"));
  }

  Waiter waiter;
  queue_.push_back(&waiter);
  queued_.fetch_add(1, std::memory_order_relaxed);
  OWLQR_COUNT("governor/queued", 1);
  const auto wait_start = std::chrono::steady_clock::now();
  // A timeout too far out to represent waits without one.
  std::chrono::steady_clock::time_point deadline;
  const bool bounded = DeadlineAfter(timeout_ms, &deadline);
  while (!waiter.granted) {
    if (!bounded) {
      waiter.cv.wait(lock);
    } else if (waiter.cv.wait_until(lock, deadline) ==
                   std::cv_status::timeout &&
               !waiter.granted) {
      // Shed: remove ourselves so the line does not stall behind a corpse.
      queue_.erase(std::find(queue_.begin(), queue_.end(), &waiter));
      lock.unlock();
      rejected_timeout_.fetch_add(1, std::memory_order_relaxed);
      OWLQR_COUNT("governor/rejected", 1);
      return Admission(nullptr, Status::Rejected("admission queue timeout"));
    }
  }
  // Granted: the releaser already popped us and left its slot to us
  // (in_use_ unchanged across the handoff).
  lock.unlock();
  if (OWLQR_METRICS_ENABLED()) {
    double wait_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wait_start)
                         .count();
    OWLQR_RECORD("governor/queue_wait_ms", wait_ms);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  OWLQR_COUNT("governor/admitted", 1);
  return Admission(this, Status::Ok());
}

void QueryGovernor::Release() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!queue_.empty()) {
    // Hand the slot straight to the front waiter: in_use_ stays put, the
    // grant flag marks the transfer, and FIFO order is preserved because
    // only the releaser ever pops.
    Waiter* next = queue_.front();
    queue_.pop_front();
    next->granted = true;
    // Notify under the lock: the waiter owns the Waiter on its stack and
    // may destroy it the moment it observes `granted` after we unlock.
    next->cv.notify_one();
    return;
  }
  --in_use_;
}

QueryGovernor::Admission::~Admission() {
  if (governor_ != nullptr && governor_->options_.max_concurrent > 0) {
    governor_->Release();
  }
}

void QueryGovernor::RecordOutcome(StatusCode code, bool degraded) {
  switch (code) {
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      OWLQR_COUNT("governor/cancelled", 1);
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      OWLQR_COUNT("governor/deadline_exceeded", 1);
      break;
    case StatusCode::kMemoryExceeded:
      memory_exceeded_.fetch_add(1, std::memory_order_relaxed);
      OWLQR_COUNT("governor/memory_exceeded", 1);
      break;
    default:
      break;
  }
  if (degraded) {
    degraded_retries_.fetch_add(1, std::memory_order_relaxed);
    OWLQR_COUNT("governor/degraded_retries", 1);
  }
}

void QueryGovernor::RecordAnswerCacheHit() {
  answer_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  OWLQR_COUNT("governor/answer_cache_hits", 1);
}

void QueryGovernor::RecordCoalesced() {
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  OWLQR_COUNT("governor/coalesced", 1);
}

QueryGovernor::Counters QueryGovernor::counters() const {
  Counters c;
  c.admitted = admitted_.load(std::memory_order_relaxed);
  c.queued = queued_.load(std::memory_order_relaxed);
  c.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  c.rejected_timeout = rejected_timeout_.load(std::memory_order_relaxed);
  c.cancelled = cancelled_.load(std::memory_order_relaxed);
  c.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  c.memory_exceeded = memory_exceeded_.load(std::memory_order_relaxed);
  c.degraded_retries = degraded_retries_.load(std::memory_order_relaxed);
  c.answer_cache_hits = answer_cache_hits_.load(std::memory_order_relaxed);
  c.coalesced = coalesced_.load(std::memory_order_relaxed);
  c.memory_used = budget_.used();
  c.memory_high_water = budget_.high_water();
  return c;
}

}  // namespace owlqr
