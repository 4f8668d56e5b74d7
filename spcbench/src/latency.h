// LatencyHistogram: fixed-memory latency recorder with ~0.1% resolution.
//
// Values below 2048 ns land in exact 1 ns buckets; above that every octave
// is split into 1024 linear sub-buckets. Quantiles interpolate linearly
// inside the winning bucket by rank, so a percentile is as precise as the
// bucket (0.1%) and does not snap to bucket edges. Memory is fixed
// (~270 KB) however many samples are recorded, so the benchmark's own
// bookkeeping does not inflate the process's peak RSS.

#ifndef SPCBENCH_LATENCY_H_
#define SPCBENCH_LATENCY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace spcbench {

class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Record(int64_t ns) {
    const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    ++buckets_[IndexOf(v)];
    ++count_;
    sum_ += static_cast<double>(v);
  }

  uint64_t count() const { return count_; }
  double MeanNs() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Quantile q in [0, 1], in nanoseconds; 0 when empty.
  double QuantileNs(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(below + c)) {
        // Place the bucket's c samples evenly across [lo, hi).
        const double frac = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(c);
        const double lo = static_cast<double>(LowerBound(i));
        const double hi = static_cast<double>(LowerBound(i + 1));
        return lo + frac * (hi - lo);
      }
      below += c;
    }
    return static_cast<double>(LowerBound(kBuckets - 1));
  }

  /// Samples strictly above quantile q — the percentile needs >= 10.
  uint64_t BeyondQuantile(double q) const {
    return count_ - static_cast<uint64_t>(q * static_cast<double>(count_));
  }

 private:
  static constexpr int kSubBits = 10;                 // 1024 per octave
  static constexpr uint64_t kExact = 2u << kSubBits;  // 2048 exact buckets
  static constexpr int kMaxOctave = 44;               // ~4.9 hours
  static constexpr size_t kBuckets =
      kExact + static_cast<size_t>(kMaxOctave - kSubBits) * (1u << kSubBits);

  static size_t IndexOf(uint64_t v) {
    if (v < kExact) return static_cast<size_t>(v);
    int octave = std::bit_width(v) - 1;  // >= kSubBits + 1
    if (octave >= kMaxOctave) return kBuckets - 1;
    const uint64_t sub = (v >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
    return kExact +
           static_cast<size_t>(octave - kSubBits - 1) * (1u << kSubBits) + sub;
  }

  static uint64_t LowerBound(size_t index) {
    if (index < kExact) return index;
    const size_t rel = index - kExact;
    const int octave = static_cast<int>(rel >> kSubBits) + kSubBits + 1;
    const uint64_t sub = rel & ((1u << kSubBits) - 1);
    return (uint64_t{1} << octave) + (sub << (octave - kSubBits));
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Median of a sample vector (copied); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace spcbench

#endif  // SPCBENCH_LATENCY_H_
