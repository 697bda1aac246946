// Per-layer numbers of a traced run.
//
// Exclusive time: the trace session keeps wall-time aggregates per span
// name (and per nesting depth). A span's self time is its total minus the
// totals of its direct children. Once every phase sits under its parent and
// no self time is negative, the self times telescope to the root's total,
// so every nanosecond of traced step time lands in one named layer metric
// or in sim.unattributed_s.
//
// Replays: outside-in timings of the core and monitor calls the repair
// path makes, on candidate pools captured from a world stepped to the
// middle of its run.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backup/network.h"
#include "trace/trace.h"

namespace perfbench {

/// \brief Self time per layer metric, from one session's phase aggregates.
struct ExclusiveTable {
  /// Traced step time: the total of the root span.
  uint64_t step_ns = 0;
  /// Layer metric name ("backup.pool_s", ...) -> summed self time.
  std::map<std::string, uint64_t> layer_ns;
  /// Span name -> (count, total) for every phase in the session.
  std::map<std::string, p2p::trace::PhaseStat> phases;
  /// Empty when the table is consistent; otherwise what is wrong (a phase
  /// without its parent, a phase at two depths, a child not one level below
  /// its parent, or a negative self time). A consistent table's layer times
  /// sum to step_ns by construction.
  std::string error;

  /// Count of spans named `name` (0 when absent).
  int64_t Count(const std::string& name) const;
  /// Total seconds of spans named `name` (0 when absent).
  double TotalSeconds(const std::string& name) const;
};

/// Layer metric names the table fills, in output order.
const std::vector<std::string>& ExclusiveLayerNames();

/// Builds the table for a session whose step time is the span `root` (the
/// benchmark's own step span, or scenario/rounds inside a sweep cell).
ExclusiveTable ComputeExclusive(const p2p::trace::TraceSession& session,
                                const std::string& root);

/// \brief Outside-in timings of the selection, scoring and monitor calls.
struct ReplayResult {
  double choose_ns_per_candidate = 0.0;
  double score_ns = 0.0;
  double observe_ns = 0.0;
};

/// Captures candidate pools from `network` through backup::HotPathProbe
/// and times SelectionStrategy::Choose (made from the registry),
/// LifetimeEstimator::StabilityScore and AvailabilityMonitor::Observe on
/// them at round `now` (the world's current round). Consumes the world's
/// placement stream and monitor memo, so call it only on a world whose
/// results are not checked.
ReplayResult RunReplays(p2p::backup::BackupNetwork* network,
                        p2p::sim::Round now, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
