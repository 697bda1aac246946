// Order statistics over a run's samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1], interpolating linearly between order statistics;
/// 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
