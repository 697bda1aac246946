// One simulation scenario, fully described as data.
//
// Moved out of src/sweep/: the sweep layer now only expands grids and runs
// cells; *what* a cell simulates lives here. A Scenario is scale (peers,
// rounds, seed), a declarative population (population.h), a workload
// schedule (workload.h), the system options, and the observer list. It
// round-trips through the text format (text.h) and is addressable by name
// through the registry (registry.h).

#ifndef P2P_SCENARIO_SCENARIO_H_
#define P2P_SCENARIO_SCENARIO_H_

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "backup/network.h"
#include "backup/options.h"
#include "metrics/collector.h"
#include "metrics/registry.h"
#include "metrics/run_report.h"
#include "scenario/population.h"
#include "scenario/workload.h"
#include "sim/clock.h"
#include "util/status.h"

namespace p2p {
namespace scenario {

/// \brief One simulation scenario: a fully resolved run configuration.
struct Scenario {
  /// Registry or file-derived name; carried into sweep axis coordinates.
  std::string name = "paper";
  uint32_t peers = 1500;
  sim::Round rounds = 18'000;  // 750 days
  uint64_t seed = 42;
  PopulationSpec population = PopulationSpec::Paper();
  WorkloadSchedule workload;
  backup::SystemOptions options;
  /// Observer frozen ages (rounds); empty = no observers.
  std::vector<std::pair<std::string, sim::Round>> observers;
  /// Metric selection: names of registered probes (metrics/registry.h) the
  /// scenario's reports should carry, in this order; empty = the default
  /// set (the historical emitter layout). Selection is a reporting concern:
  /// it can never perturb the simulation itself.
  std::vector<std::string> metrics;

  /// Checks scale, population, workload feasibility, metric selection, the
  /// observer count, and system options (with `peers` substituted for
  /// options.num_peers, as RunScenario does).
  util::Status Validate() const;
};

bool operator==(const Scenario& a, const Scenario& b);
inline bool operator!=(const Scenario& a, const Scenario& b) {
  return !(a == b);
}

/// Everything the figures need from one run. The scalar surface is the
/// registry-backed RunReport (one entry per registered metric - totals,
/// per-category rates, bandwidth, time-to-repair, ...); the structured
/// trajectories (category series, observer series) stay typed.
struct Outcome {
  metrics::RunReport report;
  std::vector<metrics::CategorySample> series;
  std::vector<metrics::ObserverResult> observers;
  backup::BackupNetwork::PopulationStats population;
  int64_t final_population = 0;  ///< live peers when the run ended
  double wall_seconds = 0.0;     ///< excluded from deterministic reports
};

/// Execution knobs orthogonal to the scenario itself.
struct RunOptions {
  /// Verify the full partnership/quota invariant set periodically and at
  /// the end of the run (aborts on violation); the CI smoke runs use this.
  bool check_invariants = false;
};

/// Runs one scenario to completion on a private Engine + BackupNetwork.
/// Thread-safe: concurrent calls share no mutable state. Aborts if the
/// scenario does not Validate() - sweeps and tools validate up front.
Outcome RunScenario(const Scenario& scenario, const RunOptions& run = {});

}  // namespace scenario
}  // namespace p2p

#endif  // P2P_SCENARIO_SCENARIO_H_
