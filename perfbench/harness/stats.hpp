// Percentiles and sample counts for perfbench metrics.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// smallest sample with at least p% of the samples at or below it. A tail
// percentile is reported only when at least ten samples lie beyond it, so
// p99 needs n >= 1000; below that the benchmark fails rather than print a
// number quantized by too few samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs: ten beyond it.
inline size_t min_samples_for(double pct) {
  return static_cast<size_t>(std::ceil(10.0 * 100.0 / (100.0 - pct) - 1e-9));
}

/// Nearest-rank percentile of `v` (any order). Throws on an empty input.
inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

/// percentile() that refuses a tail percentile with fewer than ten samples
/// beyond it. `what` names the metric in the error.
inline double tail_percentile(const std::vector<double>& v, double pct,
                              const std::string& what) {
  if (v.size() < min_samples_for(pct)) {
    throw std::runtime_error(what + ": p" + std::to_string(static_cast<int>(pct)) +
                             " needs " + std::to_string(min_samples_for(pct)) +
                             " samples, have " + std::to_string(v.size()));
  }
  return percentile(v, pct);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// FNV-1a over 64-bit words: the digest of a run's virtual-clock
/// observations, compared across same-seed runs.
class Digest {
 public:
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
