// The metric table: the named probes a run can report, each described
// declaratively (unit, shape, rendering kind, aggregation) in the style of
// the strategy tables (core/strategy_registry.h).
//
// Every report column of the results pipeline - scenario::Outcome's
// RunReport, sweep CSV/JSON columns, replicate moments, util::Table
// rendering - is derived from these descriptors rather than enumerated by
// hand, so a new measurement is one table row (naming the ProbeValues field
// that carries it) plus the collector hook that feeds that field, not a
// four-layer struct edit. The table is constant; `scenario_tool metrics`
// lists it.

#ifndef P2P_METRICS_REGISTRY_H_
#define P2P_METRICS_REGISTRY_H_

#include <array>
#include <string>
#include <vector>

#include "metrics/categories.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace metrics {

/// How a metric's values are rendered: counts print as integers, reals with
/// six fixed decimals (the historical CSV/JSON discipline - report bytes
/// stay a pure function of the results).
enum class MetricKind {
  kCount,
  kReal,
};

/// How a metric participates in replicate aggregation.
enum class MetricAggregation {
  /// Never aggregated (per-cell reporting only).
  kNone,
  /// Mean / sample-stddev over a group's replicates.
  kMoments,
};

/// Every value Collector::BuildReport distills (collector.h); each metric
/// row names the field that carries it.
struct ProbeValues;

/// One row of the metric table.
struct MetricDescriptor {
  /// Stable token; the CSV/JSON column name (per-category metrics expand to
  /// one column per category, suffixed `_<category token>`).
  std::string name;
  /// Unit label for listings ("ops", "blocks/day", "rounds", ...).
  std::string unit;
  /// One-line description (`scenario_tool metrics`).
  std::string help;
  /// The ProbeValues field carrying the value; exactly one is set. A set
  /// `per_category` makes the metric one scalar per age category (4
  /// columns), so `if (d->per_category)` tests the shape.
  double ProbeValues::*scalar = nullptr;
  std::array<double, kCategoryCount> ProbeValues::*per_category = nullptr;
  MetricKind kind = MetricKind::kCount;
  MetricAggregation aggregation = MetricAggregation::kNone;
  /// Member of the default selection - the exact column set (and order) of
  /// the pre-registry emitters, locked byte-for-byte by the sweep goldens.
  bool default_selected = false;
};

/// The table's rows in table order. The pointers stay valid for the
/// process lifetime.
std::vector<const MetricDescriptor*> ListMetrics();

/// Looks a metric up by exact name; null when unknown.
const MetricDescriptor* FindMetric(const std::string& name);

/// Names of the default selection, in table order.
std::vector<std::string> DefaultMetricNames();

/// Resolves a selection to descriptors: empty means the default set; errors
/// name unknown or duplicate tokens.
util::Result<std::vector<const MetricDescriptor*>> ResolveMetricSelection(
    const std::vector<std::string>& names);

}  // namespace metrics
}  // namespace p2p

#endif  // P2P_METRICS_REGISTRY_H_
