#ifndef OWLQR_UTIL_BUDGET_H_
#define OWLQR_UTIL_BUDGET_H_

// Resource-governance primitives shared by the evaluator and the engine's
// QueryGovernor (src/engine/governor.h): a cooperative cancellation token,
// a process/engine-wide memory budget, a per-execution memory account
// that charges against it, and saturating deadline arithmetic.
//
// These live in util/ (below ndl/ and engine/) because the evaluator's
// ExecuteRequest carries a CancelToken and its arena-growth paths charge a
// MemoryAccount, while the governor that owns the budget sits above the
// evaluator.
//
// Accounting model: memory is charged *after* an allocation grows (the
// bytes are real either way), so totals always reflect live arenas and a
// release-all on account destruction returns the global budget exactly to
// its prior level.  Charge() therefore never refuses to record — it returns
// false when a limit is now exceeded, and the caller aborts cooperatively.
// Callers batch charges (the evaluator charges arena deltas at its
// limit-flush cadence, never per emission), so the atomics here are cold.

#include <atomic>
#include <chrono>
#include <cstddef>

namespace owlqr {

// Sets *deadline to now + `ms` on the steady clock and returns true, or
// returns false (leaving *deadline alone) when that instant lies beyond the
// clock's range — about 292 years out at nanosecond resolution.  A bound
// that far away is no bound: callers treat false as "unlimited" instead of
// letting the sum overflow into the past.
bool DeadlineAfter(long ms, std::chrono::steady_clock::time_point* deadline);

// One-way cancellation signal, shared between a caller and the executions
// it wants to be able to abort.  Thread-safe; Cancel() is idempotent.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// A shared memory budget (engine-global when owned by a QueryGovernor).
// Tracks current usage and the high-water mark; limit_bytes == 0 means
// track-only (never exceeded).
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  // Records `bytes` as used and returns false iff usage now exceeds the
  // limit (the bytes stay recorded either way; see the header comment).
  bool Charge(size_t bytes);
  void Release(size_t bytes);

  size_t limit() const { return limit_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> high_water_{0};
};

// Per-execution memory account: its own usage/high-water/limit, forwarding
// every charge to the shared budget (when one is attached).  Destruction
// releases everything still charged back to the budget, so an execution can
// never leak global accounting no matter how it aborted.  Thread-safe: the
// parallel evaluator's workers charge one account concurrently.
class MemoryAccount {
 public:
  // Both arguments optional: null budget = execution-local tracking only,
  // limit_bytes == 0 = no per-execution cap.
  explicit MemoryAccount(MemoryBudget* budget = nullptr,
                         size_t limit_bytes = 0)
      : budget_(budget), limit_(limit_bytes) {}
  ~MemoryAccount();

  MemoryAccount(const MemoryAccount&) = delete;
  MemoryAccount& operator=(const MemoryAccount&) = delete;

  // Returns false iff the per-execution cap or the shared budget is now
  // exceeded (the bytes stay recorded; the caller aborts cooperatively).
  bool Charge(size_t bytes);
  void Release(size_t bytes);

  size_t limit() const { return limit_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  MemoryBudget* budget() const { return budget_; }

 private:
  MemoryBudget* const budget_;  // Not owned; may be null.
  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> high_water_{0};
};

}  // namespace owlqr

#endif  // OWLQR_UTIL_BUDGET_H_
