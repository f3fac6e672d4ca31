#ifndef OWLQR_UTIL_METRICS_H_
#define OWLQR_UTIL_METRICS_H_

// Observability for the rewrite -> transform -> evaluate pipeline: named
// counters, min/max/sum timers, and scoped RAII spans collected into a
// structured trace that serialises to JSON (see DESIGN.md section 7 for the
// schema).
//
// Collection is opt-in twice over:
//   * compile time: define OWLQR_NO_METRICS and every OWLQR_* macro below
//     compiles to nothing;
//   * run time: with metrics compiled in but no registry installed
//     (MetricsRegistry::Global() == nullptr, the default), each macro costs
//     one relaxed atomic load plus a predictable branch.
//
// Hot loops must not call the registry per iteration: accumulate into a
// local and record once per clause / per index build (the evaluator's join
// inner loop counts emissions in plain ints and flushes after each clause).
// Registry methods themselves are thread-safe and may be called concurrently
// from the parallel evaluator's workers.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace owlqr {

class MetricsRegistry {
 public:
  using Clock = std::chrono::steady_clock;

  // Aggregate of all Record() samples under one name.
  struct TimerStats {
    long count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  // One completed (or still open, if duration_ms < 0) scoped span.
  struct Span {
    std::string name;
    double start_ms = 0;     // Offset from the registry's construction.
    double duration_ms = -1;
    int depth = 0;           // Nesting depth within the opening thread.
    unsigned long thread = 0;
    // Small labelled values attached by the span's owner (clause ids, row
    // counts, ...), serialised as a JSON object.
    std::vector<std::pair<std::string, long>> attrs;
  };

  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Adds `delta` to the named counter.
  void Count(const std::string& name, long delta = 1);

  // Records one sample into the named min/max/sum timer.  Values are
  // typically milliseconds but any distribution (per-clause emission counts,
  // index sizes) can be recorded.
  void Record(const std::string& name, double value);

  // Opens a span; the returned token must be passed to EndSpan on the same
  // thread.  Prefer ScopedSpan / OWLQR_SPAN.
  size_t BeginSpan(const std::string& name);
  void EndSpan(size_t token);
  // Attaches a labelled value to a still-open span; re-recording the same
  // key overwrites the earlier value (attrs serialise as a JSON object).
  void SpanAttr(size_t token, const std::string& key, long value);

  // Snapshot accessors (take the registry lock; not for hot paths).
  long counter(const std::string& name) const;
  TimerStats timer(const std::string& name) const;
  std::map<std::string, long> counters() const;
  std::vector<Span> spans() const;

  // Milliseconds elapsed since the registry was constructed.
  double ElapsedMs() const;

  // Serialises {"counters": {...}, "timers": {...}, "spans": [...]} as JSON.
  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

  // The process-wide registry the OWLQR_* macros report to; null (the
  // default) disables collection.  The caller keeps ownership and must
  // SetGlobal(nullptr) before destroying the registry.
  static MetricsRegistry* Global();
  static void SetGlobal(MetricsRegistry* registry);

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::map<std::string, long> counters_;
  std::map<std::string, TimerStats> timers_;
  std::vector<Span> spans_;
  std::vector<Clock::time_point> span_starts_;
};

// RAII span against the global registry (or an explicit one); a no-op when
// the registry is null, so it is safe to place on paths that usually run
// untraced.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : ScopedSpan(MetricsRegistry::Global(), name) {}
  ScopedSpan(MetricsRegistry* registry, const char* name)
      : registry_(registry) {
    if (registry_ != nullptr) token_ = registry_->BeginSpan(name);
  }
  ~ScopedSpan() {
    if (registry_ != nullptr) registry_->EndSpan(token_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const char* key, long value) {
    if (registry_ != nullptr) registry_->SpanAttr(token_, key, value);
  }

 private:
  MetricsRegistry* registry_;
  size_t token_ = 0;
};

}  // namespace owlqr

#define OWLQR_METRICS_CONCAT_INNER(a, b) a##b
#define OWLQR_METRICS_CONCAT(a, b) OWLQR_METRICS_CONCAT_INNER(a, b)

#ifndef OWLQR_NO_METRICS

// Opens a span covering the rest of the enclosing scope.
#define OWLQR_SPAN(name) \
  ::owlqr::ScopedSpan OWLQR_METRICS_CONCAT(owlqr_span_, __LINE__)(name)
// Like OWLQR_SPAN but names the ScopedSpan variable so attributes can be
// attached: OWLQR_NAMED_SPAN(span, "evaluate"); span.Attr("rows", n);
#define OWLQR_NAMED_SPAN(var, name) ::owlqr::ScopedSpan var(name)
#define OWLQR_COUNT(name, delta)                                        \
  do {                                                                  \
    ::owlqr::MetricsRegistry* owlqr_metrics_registry =                  \
        ::owlqr::MetricsRegistry::Global();                             \
    if (owlqr_metrics_registry != nullptr) {                            \
      owlqr_metrics_registry->Count((name), (delta));                   \
    }                                                                   \
  } while (0)
#define OWLQR_RECORD(name, value)                                       \
  do {                                                                  \
    ::owlqr::MetricsRegistry* owlqr_metrics_registry =                  \
        ::owlqr::MetricsRegistry::Global();                             \
    if (owlqr_metrics_registry != nullptr) {                            \
      owlqr_metrics_registry->Record((name), (value));                  \
    }                                                                   \
  } while (0)
// True iff a global registry is installed; guards metric-only work (e.g.
// reading a clock) that would otherwise be wasted.
#define OWLQR_METRICS_ENABLED() (::owlqr::MetricsRegistry::Global() != nullptr)

#else  // OWLQR_NO_METRICS

#define OWLQR_SPAN(name) ((void)0)
#define OWLQR_NAMED_SPAN(var, name) \
  ::owlqr::ScopedSpan var(static_cast<::owlqr::MetricsRegistry*>(nullptr), name)
#define OWLQR_COUNT(name, delta) ((void)0)
#define OWLQR_RECORD(name, value) ((void)0)
#define OWLQR_METRICS_ENABLED() (false)

#endif  // OWLQR_NO_METRICS

#endif  // OWLQR_UTIL_METRICS_H_
