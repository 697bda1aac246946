// Declarative scenario sweeps (the paper's evaluation grid as data).
//
// The paper's results are grids: repair thresholds 132-180 by age category,
// churn worlds, observer ages, policy/selection ablations. A `SweepSpec`
// describes such a grid as a base `scenario::Scenario` plus axes; `Expand()`
// turns it into a flat, deterministically ordered list of `Cell`s that the
// parallel runner (runner.h) can execute in any order without changing any
// result. What one cell simulates - population, workload events, options -
// is entirely the scenario subsystem's business (src/scenario/); this layer
// only expands grids.
//
// Determinism contract: a cell's full configuration - including its RNG seed
// - is a pure function of (spec, cell coordinates), fixed at expansion time.
// Replicate 0 keeps the base seed unchanged, so a one-cell sweep reproduces
// a plain `RunScenario` call bit for bit; further replicates derive their
// seeds with the same SplitMix64 discipline the Engine uses for its streams.
// All non-replicate axes share the seed (common random numbers), which is
// what the paper's threshold sweeps do: cells differ only by the knob under
// study, not by luck.

#ifndef P2P_SWEEP_SPEC_H_
#define P2P_SWEEP_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "backup/options.h"
#include "core/strategy_spec.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace sweep {

/// The sweep layer runs scenario cells; the types live in src/scenario/.
using Scenario = scenario::Scenario;
using Outcome = scenario::Outcome;
using scenario::RunScenario;

/// Seed of replicate `replicate` under master seed `base_seed`. Replicate 0
/// is `base_seed` itself; the rest are SplitMix64-derived, mirroring
/// `util::DeriveStream`, so adding replicates never perturbs replicate 0.
uint64_t ReplicateSeed(uint64_t base_seed, uint64_t replicate);

/// One fully resolved point of the grid.
struct Cell {
  size_t index = 0;      ///< position in row-major expansion order
  size_t group = 0;      ///< index ignoring the replicate axis (aggregation key)
  size_t replicate = 0;  ///< position on the replicate axis
  Scenario scenario;     ///< resolved configuration, seed already derived
  /// (axis token, value string) for every *active* axis, in axis order.
  std::vector<std::pair<std::string, std::string>> coords;

  /// "threshold=148 quota=384 rep=1" - coords joined for banners and logs.
  std::string Label() const;
};

/// \brief A base scenario plus axes; the cross-product is the grid.
///
/// An empty axis vector means "keep the base value" and contributes one
/// implicit point (and no coordinate column). Expansion order is row-major
/// with the axes in declaration order below and replicates innermost;
/// spec.cc lists the axes once, in that order, for every walk over them.
struct SweepSpec {
  Scenario base;

  std::vector<int> repair_thresholds;
  std::vector<int> quotas;
  /// Policy axis: each value is a strategy-spec string parsed against the
  /// policy table ("fixed-threshold{threshold=140}", "adaptive-redundancy",
  /// ...). Unknown names, bad parameters, or an explicit threshold outside
  /// the base [k, k + m] fail Validate()/Expand() with an error naming the
  /// token; coordinates carry the canonical spec form.
  std::vector<std::string> policies;
  /// Selection axis; spec strings like "weighted-random{age_exponent=2}".
  std::vector<std::string> selections;
  /// Lifetime-estimator axis; spec strings like "age-rank",
  /// "availability-weighted{exponent=2}". Coordinates carry the canonical
  /// spec form; cells share the seed (common random numbers), so the axis
  /// isolates the estimator's effect on placement.
  std::vector<std::string> estimators;
  /// Named-scenario axis: each value is a registry name or scenario file;
  /// a cell takes that scenario's *world* (population + workload) while
  /// keeping the base scale and options (common random numbers across the
  /// axis). The generalization of the old three-value ProfileMix axis.
  std::vector<std::string> scenarios;
  std::vector<backup::VisibilityModel> visibilities;
  /// Link-profile axis: each value is a registered link name (transfer/
  /// link.h: "dsl-2009", "dsl-modern", "ftth"). A cell on this axis sets
  /// `transfer_link`, so it runs with the transfer scheduler on that link;
  /// cells share the seed (common random numbers), so the axis isolates the
  /// link's effect.
  std::vector<std::string> links;
  /// Seed replicates per grid point (>= 1); replicate 0 keeps the base seed.
  int replicates = 1;
  /// Metric selection for every report built from this sweep: registered
  /// probe names (metrics/registry.h), in column order. Not an axis - it
  /// selects report columns, never perturbs a cell. Empty falls back to the
  /// base scenario's `metrics.select`, then to the default set (the
  /// historical emitter layout, locked byte-for-byte by the sweep goldens).
  std::vector<std::string> metrics;

  /// Rejects empty grids (replicates < 1), unresolvable scenario names,
  /// unknown or duplicate metric names, and any cell whose resolved
  /// SystemOptions fail SystemOptions::Validate().
  util::Status Validate() const;

  /// Number of grid points ignoring the replicate axis.
  size_t GroupCount() const;

  /// Total number of cells (GroupCount() * replicates).
  size_t CellCount() const;

  /// Tokens of the active axes in expansion order ("threshold", ...,
  /// "rep"); the coordinate columns of every emitted report.
  std::vector<std::string> ActiveAxes() const;

  /// Expands the cross-product. Validates first; cells come back in
  /// row-major order with index == position.
  util::Result<std::vector<Cell>> Expand() const;
};

}  // namespace sweep
}  // namespace p2p

#endif  // P2P_SWEEP_SPEC_H_
