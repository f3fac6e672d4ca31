#ifndef OWLQR_ENGINE_GOVERNOR_H_
#define OWLQR_ENGINE_GOVERNOR_H_

// Resource governance for the serving engine: one QueryGovernor per Engine
// owns the shared memory budget and the admission gate every Execute passes
// through.
//
// Admission is a bounded slot pool with a fair FIFO wait queue: a request
// that finds a free slot (and an empty queue — arrivals never overtake
// waiters) runs immediately; otherwise it waits its turn up to a queue
// timeout and is shed with StatusCode::kRejected when the queue is full or
// the wait times out.  A releasing execution hands its slot directly to the
// front waiter, so a waiter that times out can never strand a slot and the
// queue never reorders.
//
// Memory governance is cooperative: each admitted execution gets a
// MemoryAccount charging the governor's MemoryBudget (util/budget.h); the
// evaluator charges arena growth at its limit-flush cadence and aborts with
// kMemoryExceeded when a charge fails.  Account destruction releases every
// charged byte, so the budget returns to exactly its prior level no matter
// how the execution ended — a quiesced engine accounts to zero.
//
// Everything here is thread-safe; the governor outlives every Admission it
// hands out (both live inside the Engine).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "util/budget.h"
#include "util/status.h"

namespace owlqr {

struct GovernorOptions {
  // Engine-wide memory budget in bytes for execution-owned allocations
  // (IDB arenas, dedup tables, locally built probe indexes, join
  // scratch).  0 = track usage but never reject.
  size_t max_memory_bytes = 0;
  // Per-execution cap within the shared budget (0 = no per-execution cap).
  size_t max_execution_memory_bytes = 0;
  // Execution slots; <= 0 = unlimited (admission always succeeds).
  int max_concurrent = 0;
  // Requests allowed to wait for a slot; arrivals beyond this are shed
  // immediately with kRejected.  0 = never queue (reject when saturated).
  size_t max_queue = 64;
  // Default time a request may wait in the queue before being shed;
  // ExecuteRequest::queue_timeout_ms >= 0 overrides per request.
  long queue_timeout_ms = 100;
  // Graceful degradation: when an execution aborts with kMemoryExceeded
  // and asked for more (or unlimited) tuples, retry it once with
  // max_generated_tuples tightened to this value; a successful retry is
  // surfaced with partial=true and degraded=true.  0 = disabled.
  long degraded_max_generated_tuples = 0;
};

class QueryGovernor {
 public:
  // Monotonic counters (served from atomics; a snapshot, not a
  // transaction).  memory_* report the budget's current state.
  struct Counters {
    long admitted = 0;          // Requests that got a slot (queued or not).
    long queued = 0;            // Admitted requests that had to wait.
    long rejected_queue_full = 0;
    long rejected_timeout = 0;
    long cancelled = 0;         // Executions finished with kCancelled.
    long deadline_exceeded = 0;
    long memory_exceeded = 0;   // Final kMemoryExceeded outcomes.
    long degraded_retries = 0;  // Degraded re-runs attempted.
    // Requests resolved without evaluating (and without taking a slot):
    // served out of the engine's answer cache, or coalesced onto an
    // identical in-flight execution as followers of its leader.
    long answer_cache_hits = 0;
    long coalesced = 0;
    size_t memory_used = 0;
    size_t memory_high_water = 0;

    long rejected() const { return rejected_queue_full + rejected_timeout; }
  };

  // One admitted (or shed) request; releasing the slot is the destructor's
  // job, so every exit path of Engine::Execute gives it back.
  class Admission {
   public:
    Admission(Admission&& o) noexcept
        : governor_(o.governor_), status_(std::move(o.status_)) {
      o.governor_ = nullptr;
    }
    Admission& operator=(Admission&&) = delete;
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission();

    bool admitted() const { return governor_ != nullptr; }
    // kOk when admitted, else the kRejected to return to the caller.
    const Status& status() const { return status_; }

   private:
    friend class QueryGovernor;
    Admission(QueryGovernor* governor, Status status)
        : governor_(governor), status_(std::move(status)) {}

    QueryGovernor* governor_;  // Null = shed (nothing to release).
    Status status_;
  };

  explicit QueryGovernor(const GovernorOptions& options);
  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  // Blocks up to the queue timeout (`request_timeout_ms` >= 0 overrides the
  // configured default) waiting for an execution slot.  The returned
  // Admission reports kRejected when the request was shed.
  Admission Admit(long request_timeout_ms = -1);

  // Records how an admitted execution ended (status codes and the degraded
  // flag), for the counters and the metrics registry.
  void RecordOutcome(StatusCode code, bool degraded);

  // Records a request served from the answer cache / coalesced onto an
  // in-flight leader — resolved without admission or evaluation; the two
  // cheap outcomes of Engine::Execute.
  void RecordAnswerCacheHit();
  void RecordCoalesced();

  const GovernorOptions& options() const { return options_; }
  MemoryBudget* budget() { return &budget_; }
  Counters counters() const;

 private:
  // A queued request parked on its own condition_variable; `granted` is the
  // handshake that transfers a slot (set by the releaser, consumed by the
  // waiter — or rolled back by a timed-out waiter that won the race).
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;
  };

  void Release();

  const GovernorOptions options_;
  MemoryBudget budget_;

  std::mutex mu_;
  int in_use_ = 0;               // Slots held (admitted, not yet released).
  std::deque<Waiter*> queue_;    // FIFO; front is next to be granted.

  std::atomic<long> admitted_{0};
  std::atomic<long> queued_{0};
  std::atomic<long> rejected_queue_full_{0};
  std::atomic<long> rejected_timeout_{0};
  std::atomic<long> cancelled_{0};
  std::atomic<long> deadline_exceeded_{0};
  std::atomic<long> memory_exceeded_{0};
  std::atomic<long> degraded_retries_{0};
  std::atomic<long> answer_cache_hits_{0};
  std::atomic<long> coalesced_{0};
};

}  // namespace owlqr

#endif  // OWLQR_ENGINE_GOVERNOR_H_
