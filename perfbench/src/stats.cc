#include "stats.h"

#include <algorithm>

namespace perfbench {

Summary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.n = samples->size();
  s.p50 = Quantile(*samples, 0.50);
  s.p99 = Quantile(*samples, 0.99);
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

}  // namespace perfbench
