// The strategy tables: the maintenance policies, selection strategies, and
// lifetime estimators a run can name, each described declaratively
// (parameters with types, defaults, valid ranges) and instantiated through a
// factory.
//
// Each family is one constant table in strategy_registry.cc, in listing
// order; adding a strategy is one table row plus its class. `scenario_tool
// policies` / `selections` / `estimators` list the tables, and
// scripts/check.sh smoke-runs every row, so an unrunnable strategy fails CI
// rather than lurking.

#ifndef P2P_CORE_STRATEGY_REGISTRY_H_
#define P2P_CORE_STRATEGY_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_spec.h"
#include "sim/clock.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace core {

/// The SystemOptions knob a parameter's default follows, resolved from
/// StrategyEnv at instantiation.
enum class ContextDefault {
  kNone,              ///< the default is ParamInfo::def
  kRepairThreshold,   ///< SystemOptions::repair_threshold
  kAcceptanceHorizon, ///< SystemOptions::acceptance_horizon
};

/// The knob's SystemOptions field name ("repair_threshold", ...); empty for
/// kNone. For listings.
const char* ContextDefaultName(ContextDefault knob);

/// Declares one parameter of a strategy.
struct ParamInfo {
  std::string name;
  ParamType type = ParamType::kInt;
  /// Default when the spec does not set the parameter and
  /// `contextual_default` is kNone.
  ParamValue def;
  ContextDefault contextual_default = ContextDefault::kNone;
  /// Inclusive numeric range a value must lie in.
  double min_value = 0.0;
  double max_value = 0.0;
  std::string help;
};

/// The run context a factory may consult for contextual defaults: the
/// erasure-code geometry, the configured repair threshold, and the
/// acceptance horizon L (estimator horizons follow it by default).
struct StrategyEnv {
  int k = 128;
  int n = 256;  ///< k + m, the redundancy target
  int repair_threshold = 148;
  sim::Round acceptance_horizon = 90 * sim::kRoundsPerDay;
};

/// \brief Parameter lookup with defaults applied; what factories consume.
class ResolvedParams {
 public:
  ResolvedParams(const std::vector<ParamInfo>& infos, const ParamMap& given,
                 const StrategyEnv& env);

  /// Value of a declared parameter; aborts on an undeclared name (factory
  /// bugs, not user input - user input is validated before resolution).
  int64_t Int(const std::string& name) const;
  double Double(const std::string& name) const;

 private:
  ParamMap values_;
};

/// One strategy: a row of its family's table. Every family shares this
/// shape; only the product the factory makes differs.
template <typename Product>
struct StrategyDescriptor {
  std::string name;
  std::string summary;
  std::vector<ParamInfo> params;
  /// Cross-parameter consistency check (e.g. floor <= ceiling); optional.
  std::function<util::Status(const ResolvedParams&)> check;
  /// Makes a fresh instance, so no two networks share one.
  std::function<std::unique_ptr<Product>(const ResolvedParams&,
                                         const StrategyEnv&)>
      make;
};

using PolicyDescriptor = StrategyDescriptor<MaintenancePolicy>;
using SelectionDescriptor = StrategyDescriptor<SelectionStrategy>;
using EstimatorDescriptor = StrategyDescriptor<LifetimeEstimator>;

/// \brief One strategy family: its label and its constant table.
template <typename Product>
struct StrategyFamily {
  /// "policy", "selection" or "estimator"; labels errors.
  const char* kind;
  /// Every strategy, in listing order. The first row is the paper's
  /// strategy, the one a default-constructed FamilySpec names.
  std::vector<StrategyDescriptor<Product>> strategies;
};

/// The family of `Product`s; one per strategy kind.
template <typename Product>
const StrategyFamily<Product>& Family();
template <>
const StrategyFamily<MaintenancePolicy>& Family();
template <>
const StrategyFamily<SelectionStrategy>& Family();
template <>
const StrategyFamily<LifetimeEstimator>& Family();

/// Looks a strategy up by exact name; null when unknown.
template <typename Product>
const StrategyDescriptor<Product>* FindStrategy(const std::string& name) {
  for (const StrategyDescriptor<Product>& d : Family<Product>().strategies) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

/// Instantiates a validated spec. Errors (unknown name, bad parameters)
/// name the offending token; a spec that passed Validate() cannot fail.
util::Result<std::unique_ptr<MaintenancePolicy>> MakePolicy(
    const PolicySpec& spec, const StrategyEnv& env);
util::Result<std::unique_ptr<SelectionStrategy>> MakeSelection(
    const SelectionSpec& spec);
util::Result<std::unique_ptr<LifetimeEstimator>> MakeEstimator(
    const EstimatorSpec& spec, const StrategyEnv& env);

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_STRATEGY_REGISTRY_H_
