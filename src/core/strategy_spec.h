// Declarative strategy specifications: a strategy name from one family's
// table plus a typed parameter map.
//
// Maintenance policies and selection strategies used to be closed enums
// (core::PolicyKind / core::SelectionKind), hard-coded at construction and
// unreachable from the scenario text format. A StrategySpec makes them data:
//
//   fixed-threshold                         (all defaults)
//   fixed-threshold{threshold=140}
//   proactive{batch_blocks=8,emergency_threshold=136}
//   weighted-random{age_exponent=2}
//
// The spec grammar is `name` or `name{key=value,...}`. Parsing is
// type-directed against the family's table (strategy_registry.h): unknown
// strategy names, unknown parameters, type mismatches, and out-of-range
// values are all util::Result errors naming the offending token - never a
// silent fallback. Render is canonical (parameters in name order, shortest
// value form), so Parse(Render(spec)) == spec exactly; only explicitly-set
// parameters are stored and rendered, which keeps `fixed-threshold` and
// `fixed-threshold{threshold=148}` distinct as text while both resolve to
// the same policy under the default options.

#ifndef P2P_CORE_STRATEGY_SPEC_H_
#define P2P_CORE_STRATEGY_SPEC_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace core {

/// Type of one strategy parameter.
enum class ParamType {
  kInt,     ///< integer counts / levels / round counts
  kDouble,  ///< rates, exponents, factors
};

/// Lowercase token of a parameter type ("int", "double"); for listings.
const char* ParamTypeName(ParamType type);

/// One typed parameter value.
struct ParamValue {
  ParamType type = ParamType::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;

  static ParamValue Int(int64_t v);
  static ParamValue Double(double v);

  /// Numeric view, whatever the type (used by range checks).
  double AsDouble() const;

  /// Canonical text form ("8", "2.5"); doubles render with the fewest
  /// digits that parse back to the same value.
  std::string Render() const;
};

bool operator==(const ParamValue& a, const ParamValue& b);
inline bool operator!=(const ParamValue& a, const ParamValue& b) {
  return !(a == b);
}

/// Explicitly-set parameters, keyed by name. std::map so the canonical
/// render order is deterministic.
using ParamMap = std::map<std::string, ParamValue>;

/// \brief A strategy reference: table row name + explicit parameters.
struct StrategySpec {
  std::string name;
  ParamMap params;

  /// Canonical text: `name` or `name{key=value,...}` (params in key order).
  std::string ToString() const;
};

bool operator==(const StrategySpec& a, const StrategySpec& b);
inline bool operator!=(const StrategySpec& a, const StrategySpec& b) {
  return !(a == b);
}

class MaintenancePolicy;
class SelectionStrategy;
class LifetimeEstimator;

/// \brief A spec of the strategy family whose instances are `Product`s,
/// checked against that family's table (strategy_registry.h). A
/// default-constructed spec names the family's first table row - the
/// paper's strategy - with no explicit parameters.
template <typename Product>
struct FamilySpec : StrategySpec {
  FamilySpec();

  /// Checks the name against the family's table and every parameter for
  /// existence, type, range, and cross-parameter consistency. Errors name
  /// the offending token.
  util::Status Validate() const;

  /// Parses the spec grammar against the family's table (type-directed:
  /// values are coerced to the declared parameter types) and validates.
  static util::Result<FamilySpec> Parse(const std::string& text);
};

extern template struct FamilySpec<MaintenancePolicy>;
extern template struct FamilySpec<SelectionStrategy>;
extern template struct FamilySpec<LifetimeEstimator>;

/// Maintenance policy; defaults to the paper's fixed threshold (the
/// threshold then follows SystemOptions::repair_threshold).
using PolicySpec = FamilySpec<MaintenancePolicy>;
/// Selection strategy; defaults to the paper's oldest-first.
using SelectionSpec = FamilySpec<SelectionStrategy>;
/// Lifetime estimator; defaults to the paper's age rank (its horizon then
/// follows SystemOptions::acceptance_horizon).
using EstimatorSpec = FamilySpec<LifetimeEstimator>;

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_STRATEGY_SPEC_H_
