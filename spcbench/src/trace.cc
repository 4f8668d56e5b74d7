#include "trace.h"

#include <cstdio>
#include <string_view>

namespace spcbench {

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size())));
  return logs_.back().get();
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->records().size();
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const SpanRecord& r : log->records()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"thread\":%u,\"request\":%llu}\n",
                   r.name, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   r.parent == kNoParent ? -1LL
                                         : static_cast<long long>(r.parent),
                   r.thread, static_cast<unsigned long long>(r.request));
    }
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanSummary> Tracer::SummarizeByName() const {
  std::map<std::string, SpanSummary> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    const auto& recs = log->records();
    // Children of one span run on the same thread one after another, so
    // the part of the parent they cover is the sum of their durations.
    std::vector<int64_t> child_ns(recs.size(), 0);
    for (const SpanRecord& r : recs) {
      if (r.parent != kNoParent) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      SpanSummary& s = out[r.name];
      ++s.count;
      s.total_s += dur;
      s.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
      s.durations_s.push_back(dur);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::map<std::string, double> out;
  for (const auto& [name, summary] : SummarizeByName()) {
    const std::string_view n(name);
    out[std::string(n.substr(0, n.find('.')))] += summary.self_s;
  }
  return out;
}

double Tracer::MeasureSpanCostNs() {
  constexpr int kSpans = 200000;
  SpanLog log(0);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    const uint32_t id = log.Begin("calibrate", static_cast<uint64_t>(i));
    log.End(id);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace spcbench
