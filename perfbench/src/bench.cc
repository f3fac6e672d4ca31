#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

namespace owlqr {
namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

int Tracer::Begin(const char* name, long request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.start_ms = MsBetween(epoch_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end_ms = MsBetween(epoch_, Clock::now());
  // Scopes close innermost-first, so `span` is the top of the stack.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Count(int span, const char* name, double value) {
  if (span < 0) return;
  spans_[span].counts.emplace_back(name, value);
}

void SpanLog::Add(const Tracer& tracer) { groups_.push_back(&tracer.spans()); }

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto* spans : groups_) {
    for (const SpanRecord& s : *spans) {
      if (name == s.name) out.push_back(s.end_ms - s.start_ms);
    }
  }
  return out;
}

std::vector<double> SpanLog::Counts(const std::string& name,
                                    const std::string& count) const {
  std::vector<double> out;
  for (const auto* spans : groups_) {
    for (const SpanRecord& s : *spans) {
      if (name != s.name) continue;
      for (const auto& [key, value] : s.counts) {
        if (count == key) out.push_back(value);
      }
    }
  }
  return out;
}

double SpanLog::SumCount(const std::string& name,
                         const std::string& count) const {
  std::vector<double> values = Counts(name, count);
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::map<std::string, double> SpanLog::SelfMsByLayer(double begin_ms,
                                                     double end_ms) const {
  std::map<std::string, double> self;
  for (const auto* spans : groups_) {
    std::vector<double> covered(spans->size(), 0.0);
    for (const SpanRecord& s : *spans) {
      if (s.parent >= 0) covered[s.parent] += s.end_ms - s.start_ms;
    }
    for (size_t i = 0; i < spans->size(); ++i) {
      const SpanRecord& s = (*spans)[i];
      if (s.start_ms < begin_ms || s.start_ms >= end_ms) continue;
      std::string layer(s.name);
      layer = layer.substr(0, layer.find('.'));
      self[layer] += std::max(0.0, (s.end_ms - s.start_ms) - covered[i]);
    }
  }
  return self;
}

size_t SpanLog::size() const {
  size_t n = 0;
  for (const auto* spans : groups_) n += spans->size();
  return n;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (const SpanRecord& s : *groups_[g]) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"thread\": %zu, \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f, \"parent\": %d, \"request\": %ld, "
                   "\"counts\": {",
                   first ? "" : ",\n", s.name, g, s.start_ms, s.end_ms,
                   s.parent, s.request);
      for (size_t i = 0; i < s.counts.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                     s.counts[i].first, s.counts[i].second);
      }
      std::fprintf(f, "}}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Report::Fail(const std::string& why) {
  // The first few reasons are enough to debug; the rest only count.
  if (checks_ok || notes.size() < 8) notes.push_back("CHECK FAILED: " + why);
  checks_ok = false;
}

double Report::E2e(const std::string& name) const {
  for (const Metric& m : e2e) {
    if (m.name == name) return m.value;
  }
  return 0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"server.wire_ms", "ms"},
          {"server.wire_share", "share"},
          {"server.body_bytes", "bytes"},
          {"server.connects_per_1k", "count"},
          {"api.handle_ms", "ms"},
          {"api.decode_ms", "ms"},
          {"api.encode_ms", "ms"},
          {"api.encode_ns_per_answer", "ns"},
          {"api.apply_decode_ms", "ms"},
          {"engine.prepare_cold_ms", "ms"},
          {"engine.prepare_warm_us", "us"},
          {"engine.plan_hit_rate", "share"},
          {"engine.execute_ms", "ms"},
          {"engine.overhead_ms", "ms"},
          {"engine.hit_ms", "ms"},
          {"engine.answer_hit_rate", "share"},
          {"engine.coalesce_rate", "share"},
          {"engine.reject_rate", "share"},
          {"engine.degraded_rate", "share"},
          {"engine.apply_ms", "ms"},
          {"engine.requery_ms", "ms"},
          {"engine.incremental_rate", "share"},
          {"core.rewrite_ms", "ms"},
          {"core.clauses", "count"},
          {"ndl.run_ms", "ms"},
          {"ndl.run_p90_ms", "ms"},
          {"ndl.run_t4_ms", "ms"},
          {"ndl.generated_tuples", "count"},
          {"ndl.join_emissions", "count"},
          {"ndl.dedup_yield", "share"},
          {"ndl.index_builds", "count"},
          {"ndl.batch_probes", "count"},
          {"ndl.tasks", "count"},
          {"ndl.morsel_batches", "count"},
          {"ndl.steals", "count"},
          {"ndl.critical_path_share", "share"},
          {"ndl.mem_high_water_mb", "MB"},
          {"data.with_facts_ms", "ms"},
          {"data.touched_rows", "count"},
          {"data.freeze_ms", "ms"},
          {"store.append_ms", "ms"},
          {"store.append_p90_ms", "ms"},
          {"store.log_bytes_per_fact", "bytes"},
          {"store.recover_ms", "ms"},
          {"store.replay_ms", "ms"},
          {"store.replay_ms_per_record", "ms"},
          {"store.checkpoint_ms", "ms"},
          {"bench.self_ms", "ms"},
          {"server.self_ms", "ms"},
          {"api.self_ms", "ms"},
          {"engine.self_ms", "ms"},
          {"core.self_ms", "ms"},
          {"ndl.self_ms", "ms"},
          {"data.self_ms", "ms"},
          {"store.self_ms", "ms"},
          {"trace.spans", "count"},
          {"trace.overhead_p50_ms", "ms"},
          {"trace.overhead_p90_ms", "ms"},
          {"trace.overhead_share", "share"},
      };
  return *metrics;
}

void PrintReport(const Report& report, bool trace) {
  for (const std::string& line : report.notes) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : report.e2e) {
    std::printf("# e2e %-24s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string metrics;
  auto append = [&metrics](const std::string& name, double value,
                           const std::string& unit) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit.c_str());
    metrics += buf;
  };
  if (trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      double value = 0;
      for (const Metric& m : report.layers) {
        if (m.name == name) value = m.value;
      }
      std::printf("# layer %-28s %16.6f %s\n", name.c_str(), value,
                  unit.c_str());
      append(name, value, unit);
    }
  } else {
    for (const Metric& m : report.e2e) append(m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  std::fflush(stdout);
}

void AddTraceOverhead(const Report& untraced, Report* traced) {
  const double p50 = traced->E2e(kOpP50) - untraced.E2e(kOpP50);
  traced->AddLayer("trace.overhead_p50_ms", p50, "ms");
  traced->AddLayer("trace.overhead_p90_ms",
                   traced->E2e(kOpP90) - untraced.E2e(kOpP90), "ms");
  const double base = untraced.E2e(kOpP50);
  traced->AddLayer("trace.overhead_share", base > 0 ? p50 / base : 0,
                   "share");
}

void AddLatencyMetrics(const std::vector<OpSample>& samples, Report* report) {
  std::map<long, std::vector<double>> by_key;
  std::vector<double> all;
  for (const OpSample& s : samples) {
    by_key[s.key].push_back(s.ms);
    all.push_back(s.ms);
  }
  std::vector<double> op_ms;
  size_t fewest = by_key.empty() ? 0 : samples.size();
  for (auto& [key, ms] : by_key) {
    fewest = std::min(fewest, ms.size());
    op_ms.push_back(Median(std::move(ms)));
  }
  const double total = std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu operations, each timed at least %zu times; every sample "
                "on its own: p50 %.4f ms, p90 %.4f ms",
                op_ms.size(), fewest, Quantile(all, 0.5), Quantile(all, 0.9));
  report->Note(buf);
  report->AddE2e(kOpP50, Quantile(op_ms, 0.5), "ms");
  report->AddE2e(kOpP90, Quantile(op_ms, 0.9), "ms");
  report->AddE2e(kOpsPerS,
                 total > 0 ? 1000.0 * static_cast<double>(op_ms.size()) / total
                           : 0,
                 "1/s");
}

void AddCommonMetrics(const std::vector<double>& setup_s, double peak_rss_mb,
                      Report* report) {
  report->AddE2e(kSetupS, Median(setup_s), "s");
  const double ok = report->attempted - report->failed;
  report->AddE2e(kOkShare,
                 report->attempted > 0 && report->checks_ok
                     ? ok / static_cast<double>(report->attempted)
                     : 0,
                 "share");
  report->AddE2e(kPeakRss, peak_rss_mb, "MB");
}

void AddSelfTimes(const SpanLog& log, Clock::time_point epoch,
                  Clock::time_point begin, Clock::time_point end, long ops,
                  Report* report) {
  if (ops <= 0) return;
  for (const auto& [layer, ms] :
       log.SelfMsByLayer(MsBetween(epoch, begin), MsBetween(epoch, end))) {
    report->AddLayer(layer + ".self_ms", ms / static_cast<double>(ops), "ms");
  }
  report->AddLayer("trace.spans", static_cast<double>(log.size()), "count");
}

}  // namespace perfbench
}  // namespace owlqr
