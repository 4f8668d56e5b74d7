// Span tracing for the benchmark's traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a library layer (api.*, core.*, persist.*, graph.*), plus client
// spans (client.*) that group one request's calls. A span carries its
// name, start, end, the span that caused it (parent, an index into the same
// thread's log) and the request id shared by every span of one request.
// Each client thread owns one SpanLog, so recording takes no lock; the
// Tracer keeps every log in memory until the run ends, then writes them out
// as JSON lines and reduces them to self time per layer (a span's duration
// minus the part its children cover).

#ifndef SPCBENCH_TRACE_H_
#define SPCBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spcbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct SpanRecord {
  const char* name = "";  ///< static string, "<layer>.<what>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;  ///< index in the same SpanLog
  uint32_t thread = 0;
  uint64_t request = 0;
};

/// One thread's spans. Not thread-safe: every client thread owns its own.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  uint32_t Begin(const char* name, uint64_t request,
                 uint32_t parent = kNoParent) {
    records_.push_back({name, NowNs(), 0, parent, thread_, request});
    return static_cast<uint32_t>(records_.size() - 1);
  }
  void End(uint32_t id) { records_[id].end_ns = NowNs(); }

  /// Records a span whose bounds the caller already measured.
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t request, uint32_t parent = kNoParent) {
    records_.push_back({name, start_ns, end_ns, parent, thread_, request});
    return static_cast<uint32_t>(records_.size() - 1);
  }

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  uint32_t thread_;
  std::vector<SpanRecord> records_;
};

/// RAII span on an optional log: a null log (untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint32_t parent = kNoParent)
      : log_(log), id_(log ? log->Begin(name, request, parent) : kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

/// Per-span-name aggregate of a trace.
struct SpanSummary {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;  ///< every span's duration, in order
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A new log for the calling thread; null when tracing is off. The log
  /// stays owned by the tracer and valid until it is destroyed.
  SpanLog* NewLog();

  size_t SpanCount() const;

  /// Every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

  /// Aggregates by span name (self time = duration minus direct children).
  std::map<std::string, SpanSummary> SummarizeByName() const;

  /// Self time summed per layer (the span name up to its first '.').
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Mean cost of recording one span (Begin + End), measured on a scratch
  /// log, in nanoseconds.
  static double MeasureSpanCostNs();

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;  ///< guarded by mu_
};

}  // namespace spcbench

#endif  // SPCBENCH_TRACE_H_
