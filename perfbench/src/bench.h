#ifndef OWLQR_PERFBENCH_BENCH_H_
#define OWLQR_PERFBENCH_BENCH_H_

// Shared harness of the end-to-end benchmark: command-line arguments,
// latency statistics, the span tracer of the traced run, and the one JSON
// result line every workload prints last.
//
// The tracer records spans only around calls the benchmark itself makes
// into the library's public functions; nothing inside the library is
// instrumented.  A span's name is "<layer>.<what>", and the layer is the
// part before the dot (server, api, engine, core, ndl, data, store, or
// bench for the benchmark's own per-operation root spans).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace owlqr {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans (JSON); empty = not written.
  std::string trace_out;
  // Scratch directory for durable state (the ingest workload's store).
  std::string work_dir = ".bench_build/work";
};

// Linear-interpolated quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb();

// One span of the traced run.  `parent` is the index of the enclosing span
// opened on the same Tracer, or -1 for a root.  Counts recorded at the
// span's boundary travel with it.
struct SpanRecord {
  const char* name = "";
  double start_ms = 0;
  double end_ms = -1;
  int parent = -1;
  long request = 0;
  std::vector<std::pair<const char*, double>> counts;
};

// Span collector for one client thread.  Disabled tracers record nothing
// and cost one branch per call.  Spans stay in memory until the run ends.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested in the innermost open one; returns its index
  // (-1 when disabled).
  int Begin(const char* name, long request);
  void End(int span);
  // Attaches a count to an open or closed span.
  void Count(int span, const char* name, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, long request)
        : tracer_(tracer), span_(tracer->Begin(name, request)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Count(const char* name, double value) {
      tracer_->Count(span_, name, value);
    }

   private:
    Tracer* tracer_;
    int span_;
  };

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // Stack of open span indexes.
};

// Read-only queries over the spans of one or more tracers.
class SpanLog {
 public:
  void Add(const Tracer& tracer);

  // Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  // Sum of count `count` over spans called `name`.
  double SumCount(const std::string& name, const std::string& count) const;
  // Per-count values over spans called `name`, one per span that has it.
  std::vector<double> Counts(const std::string& name,
                             const std::string& count) const;
  // Self time per layer: each span's duration minus the time its direct
  // children cover, summed by the layer prefix of the span's name, over
  // the spans that start within [begin_ms, end_ms) (the timed phase).
  std::map<std::string, double> SelfMsByLayer(double begin_ms,
                                              double end_ms) const;
  size_t size() const;

  // Writes {"spans": [...]} with name, start, end, parent, request, counts.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<const std::vector<SpanRecord>*> groups_;
};

// The result a workload hands back to main: correctness tallies, the
// end-to-end metrics (always measured) and the per-layer metrics (traced
// run only).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  // Verdict of the checks that are not per-operation (the chase oracle,
  // governor reconciliation, recovery equality).
  bool checks_ok = true;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  // Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  void AddE2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  // Records a failed non-operation check with its reason.
  void Fail(const std::string& why);
  bool correct() const { return checks_ok && failed == 0 && attempted > 0; }
  double E2e(const std::string& name) const;
};

// Every per-layer metric the traced run prints, with its unit; a workload
// that does not exercise a layer reports 0 for that layer's metrics.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Prints the notes, then the single result line
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} holding the
// end-to-end metrics, or with `trace` the per-layer ones.
void PrintReport(const Report& report, bool trace);

// The traced-minus-untraced difference of the shared end-to-end metrics,
// added to `traced` as trace.overhead_* per-layer metrics.
void AddTraceOverhead(const Report& untraced, Report* traced);

// Shared end-to-end metric names (every workload reports each).
inline constexpr char kSetupS[] = "setup_s";
inline constexpr char kOpP50[] = "op_p50_ms";
inline constexpr char kOpP90[] = "op_p90_ms";
inline constexpr char kOpsPerS[] = "ops_per_s";
inline constexpr char kOkShare[] = "ok_share";
inline constexpr char kPeakRss[] = "peak_rss_mb";

// One timed operation: which operation of the script it was (`key`; the
// same key in every repetition of the script) and how long it took.
struct OpSample {
  long key = 0;
  double ms = 0;
};

// Every operation of a workload's script is timed several times, in
// repetitions spread over the run: kPasses passes of the whole script, each
// from a fresh set-up (serve, ingest), or kPasses or more cycles over the
// same plans (paper).  An operation's latency is the median of its
// repetitions, so that interference from other tenants of the host, which
// comes and goes over seconds, must slow most of an operation's
// repetitions to move it.  The operation's own cost, which is the same in
// every repetition, is kept: a heavy operation stays heavy.  Every
// workload also sets up kPasses times; setup_s is the median.
inline constexpr int kPasses = 5;

// Adds op_p50_ms and op_p90_ms (quantiles over operations of each
// operation's median latency) and ops_per_s (the one-client closed-loop
// rate those latencies give: operations over the sum of their latencies).
void AddLatencyMetrics(const std::vector<OpSample>& samples, Report* report);
// Adds setup_s (median of the set-ups of the run), ok_share and
// peak_rss_mb (sampled by the caller before any oracle check runs).
void AddCommonMetrics(const std::vector<double>& setup_s, double peak_rss_mb,
                      Report* report);
// Adds <layer>.self_ms (self time per timed operation) for every layer,
// over the spans of the timed phase [begin, end).
void AddSelfTimes(const SpanLog& log, Clock::time_point epoch,
                  Clock::time_point begin, Clock::time_point end, long ops,
                  Report* report);

// A result that counts as a correct operation's: OK, complete, not degraded.
inline bool Complete(const ExecuteResult& r) {
  return r.status.ok() && !r.partial && !r.degraded;
}

// Prepare options forcing the Tw rewriter.
inline PrepareOptions TwOptions() {
  PrepareOptions options;
  options.auto_kind = false;
  options.kind = RewriterKind::kTw;
  return options;
}

// The workloads.  Each builds its own state, runs its fixed script and
// returns its report; `trace` turns the span tracer on.
Report RunPaper(const Args& args, bool trace);
Report RunServe(const Args& args, bool trace);
Report RunIngest(const Args& args, bool trace);

}  // namespace perfbench
}  // namespace owlqr

#endif  // OWLQR_PERFBENCH_BENCH_H_
