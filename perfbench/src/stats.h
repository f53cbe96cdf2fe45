// Latency summaries for the gate benchmark. A timing is reported as its
// median and its 99th percentile, and a percentile is only reported when at
// least kMinTailSamples samples lie beyond it; otherwise it reads n/a.

#ifndef POSEIDON_PERFBENCH_STATS_H_
#define POSEIDON_PERFBENCH_STATS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kMinTailSamples = 10;

/// 1-based nearest-rank index of quantile `q` in `n` sorted samples.
inline uint64_t NearestRank(uint64_t n, double q) {
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  auto k = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return k < 1 ? 1 : (k > n ? n : k);
}

/// True when `n` samples leave at least kMinTailSamples beyond quantile `q`.
inline bool TailSupported(uint64_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= kMinTailSamples;
}

/// Nearest-rank quantile of ascending `sorted`; NaN when the sample is empty
/// or, for q > 0.5, too small to leave kMinTailSamples beyond it.
inline double Quantile(const std::vector<double>& sorted, double q) {
  const uint64_t n = sorted.size();
  if (n == 0 || (q > 0.5 && !TailSupported(n, q))) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sorted[NearestRank(n, q) - 1];
}

struct Summary {
  uint64_t n = 0;
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
};

/// Sorts `samples` in place and summarizes them.
Summary Summarize(std::vector<double>* samples);

/// Nearest-rank median (the lower middle for even counts); NaN when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // POSEIDON_PERFBENCH_STATS_H_
