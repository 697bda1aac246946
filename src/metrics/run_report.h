// The generic result surface of one simulation run: an ordered map from
// metric table names to scalars, per-category vectors, and time
// series. Replaces the closed per-layer result structs (RunTotals, the
// fixed arrays of the old scenario::Outcome, the hand-enumerated sweep
// columns): every consumer - sweep CSV/JSON, replicate moments, tables,
// tools - walks the report and lets the descriptors drive layout.

#ifndef P2P_METRICS_RUN_REPORT_H_
#define P2P_METRICS_RUN_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/accounting.h"
#include "metrics/categories.h"
#include "metrics/registry.h"

namespace p2p {
namespace metrics {

/// One scalar or per-category entry of a report.
struct MetricValue {
  const MetricDescriptor* descriptor = nullptr;
  /// Scalar metrics (descriptor->per_category == false). Counts are stored
  /// as doubles; exact up to 2^53, far past any simulation counter.
  double scalar = 0.0;
  /// Per-category metrics, indexed by AgeCategory.
  std::array<double, kCategoryCount> per_category{};
};

/// One named time series of a report (e.g. per-interval repair bandwidth).
struct MetricSeries {
  const MetricDescriptor* descriptor = nullptr;
  TimeSeries series;
};

/// \brief Ordered name -> scalar/series map; built by Collector::BuildReport
/// with one entry per metric table row, in table order.
class RunReport {
 public:
  /// \name Construction (Collector and tests).
  /// @{
  void Add(const MetricDescriptor* descriptor, double scalar);
  void Add(const MetricDescriptor* descriptor,
           const std::array<double, kCategoryCount>& per_category);
  void AddSeries(const MetricDescriptor* descriptor, TimeSeries series);
  /// @}

  /// Entries in table order.
  const std::vector<MetricValue>& values() const { return values_; }
  /// Series entries in table order.
  const std::vector<MetricSeries>& series() const { return series_; }

  /// Entry by metric name; null when the report has no such entry.
  const MetricValue* Find(const std::string& name) const;
  /// Series by metric name; null when absent.
  const TimeSeries* FindSeries(const std::string& name) const;

  /// \name Checked lookups (abort on a name the report does not carry -
  /// consumer bugs, not user input; selections are validated upstream).
  /// @{
  double Scalar(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  const std::array<double, kCategoryCount>& PerCategory(
      const std::string& name) const;
  /// @}

 private:
  std::vector<MetricValue> values_;
  std::vector<MetricSeries> series_;
};

}  // namespace metrics
}  // namespace p2p

#endif  // P2P_METRICS_RUN_REPORT_H_
