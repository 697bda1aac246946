#include "metrics/registry.h"

#include <set>

#include "metrics/collector.h"

namespace p2p {
namespace metrics {
namespace {

constexpr auto kCount = MetricKind::kCount;
constexpr auto kReal = MetricKind::kReal;
constexpr auto kNone = MetricAggregation::kNone;
constexpr auto kMoments = MetricAggregation::kMoments;

// The default set, in this exact order, IS the historical emitter layout:
// the sweep goldens lock its CSV/JSON bytes. blocks_uploaded / departures /
// timeouts carry kNone because the historical aggregate tables never
// included them; that is a recorded fact about the layout, not a law - a new
// row is free to choose kMoments.
const std::vector<MetricDescriptor>& Table() {
  using P = ProbeValues;
  static const std::vector<MetricDescriptor> table{
      {"repairs", "ops",
       "repair operations triggered (initial placements included)",
       &P::repairs, nullptr, kCount, kMoments, true},
      {"losses", "archives", "archives lost (alive blocks fell below k)",
       &P::losses, nullptr, kCount, kMoments, true},
      {"blocks_uploaded", "blocks", "blocks re-placed by repairs",
       &P::blocks_uploaded, nullptr, kCount, kNone, true},
      {"departures", "peers", "definitive departures", &P::departures,
       nullptr, kCount, kNone, true},
      {"timeouts", "partnerships", "partnerships severed by the timeout rule",
       &P::timeouts, nullptr, kCount, kNone, true},
      {"repairs_1k_day", "ops/1000 peers/day",
       "repair rate by age category (figure 1)", nullptr, &P::repairs_1k,
       kReal, kMoments, true},
      {"losses_1k_day", "archives/1000 peers/day",
       "loss rate by age category (figure 2)", nullptr, &P::losses_1k, kReal,
       kMoments, true},

      // --- probes the closed pre-registry structs could not express ---
      {"repair_bandwidth", "blocks/day",
       "mean maintenance bandwidth: blocks uploaded per day over the run",
       &P::repair_bandwidth, nullptr, kReal, kMoments, false},
      {"time_to_repair_mean", "rounds",
       "mean rounds from repair flag to episode completion",
       &P::time_to_repair_mean, nullptr, kReal, kMoments, false},
      {"time_to_repair_p99", "rounds",
       "99th percentile of rounds from repair flag to episode completion",
       &P::time_to_repair_p99, nullptr, kReal, kMoments, false},
      {"partnership_lifetime_mean", "rounds",
       "mean lifetime of severed partnerships",
       &P::partnership_lifetime_mean, nullptr, kReal, kMoments, false},
      {"vulnerability_rounds", "peer-rounds",
       "total rounds peers spent flagged below the repair trigger (open "
       "episodes truncated at the end of the run)",
       &P::vulnerability_rounds, nullptr, kCount, kMoments, false},
      {"cum_repairs", "ops", "cumulative repairs by age category", nullptr,
       &P::cum_repairs, kCount, kMoments, false},
      {"cum_losses", "archives", "cumulative losses by age category", nullptr,
       &P::cum_losses, kCount, kMoments, false},
      {"mean_population", "peers", "mean category population over the run",
       nullptr, &P::mean_population, kReal, kMoments, false},
      {"final_population", "peers", "live peers when the run ended",
       &P::final_population, nullptr, kCount, kMoments, false},

      // --- transfer-scheduling probes (bandwidth-constrained repairs) ---
      {"time_to_backup_mean", "rounds",
       "mean rounds from repair flag to completed initial placement "
       "(transfer time included when the scheduler is enabled)",
       &P::time_to_backup_mean, nullptr, kReal, kMoments, false},
      {"time_to_backup_p99", "rounds",
       "99th percentile of rounds from repair flag to completed initial "
       "placement",
       &P::time_to_backup_p99, nullptr, kReal, kMoments, false},
      {"time_to_restore_mean", "rounds",
       "mean rounds a maintenance repair spent downloading the k blocks "
       "needed to decode (the restore path)",
       &P::time_to_restore_mean, nullptr, kReal, kMoments, false},
      {"time_to_restore_p99", "rounds",
       "99th percentile of the restore-path download rounds",
       &P::time_to_restore_p99, nullptr, kReal, kMoments, false},
      {"data_loss_window", "rounds",
       "longest single vulnerability episode: max rounds any peer spent "
       "flagged below the repair trigger (open episodes truncated at the end "
       "of the run)",
       &P::data_loss_window, nullptr, kCount, kMoments, false},
      {"uplink_utilization", "fraction",
       "uplink bytes moved over uplink bytes available, summed over rounds "
       "with transfer demand",
       &P::uplink_utilization, nullptr, kReal, kMoments, false},
  };
  return table;
}

}  // namespace

std::vector<const MetricDescriptor*> ListMetrics() {
  const std::vector<MetricDescriptor>& table = Table();
  std::vector<const MetricDescriptor*> out;
  out.reserve(table.size());
  for (const MetricDescriptor& d : table) out.push_back(&d);
  return out;
}

const MetricDescriptor* FindMetric(const std::string& name) {
  for (const MetricDescriptor& d : Table()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> DefaultMetricNames() {
  std::vector<std::string> names;
  for (const MetricDescriptor* d : ListMetrics()) {
    if (d->default_selected) names.push_back(d->name);
  }
  return names;
}

util::Result<std::vector<const MetricDescriptor*>> ResolveMetricSelection(
    const std::vector<std::string>& names) {
  std::vector<const MetricDescriptor*> out;
  if (names.empty()) {
    for (const MetricDescriptor* d : ListMetrics()) {
      if (d->default_selected) out.push_back(d);
    }
    return out;
  }
  std::set<std::string> seen;
  out.reserve(names.size());
  for (const std::string& name : names) {
    const MetricDescriptor* d = FindMetric(name);
    if (d == nullptr) {
      return util::Status::InvalidArgument("unknown metric '" + name + "'");
    }
    if (!seen.insert(name).second) {
      return util::Status::InvalidArgument("duplicate metric '" + name + "'");
    }
    out.push_back(d);
  }
  return out;
}

}  // namespace metrics
}  // namespace p2p
