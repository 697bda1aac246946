#include "core/strategy_registry.h"

#include "sim/clock.h"
#include "util/logging.h"

namespace p2p {
namespace core {
namespace {

ParamInfo IntParam(const std::string& name, int64_t def, double min_value,
                   double max_value, const std::string& help) {
  ParamInfo info;
  info.name = name;
  info.type = ParamType::kInt;
  info.def = ParamValue::Int(def);
  info.min_value = min_value;
  info.max_value = max_value;
  info.help = help;
  return info;
}

ParamInfo DoubleParam(const std::string& name, double def, double min_value,
                      double max_value, const std::string& help) {
  ParamInfo info;
  info.name = name;
  info.type = ParamType::kDouble;
  info.def = ParamValue::Double(def);
  info.min_value = min_value;
  info.max_value = max_value;
  info.help = help;
  return info;
}

// A round-count parameter whose default follows a SystemOptions knob: a bare
// `fixed-threshold` triggers at SystemOptions::repair_threshold, and a bare
// `age-rank` saturates exactly where the acceptance function does.
ParamInfo ContextualParam(const std::string& name, ContextDefault knob,
                          const std::string& help) {
  ParamInfo info = IntParam(name, 0, 1.0, 1 << 20, help);
  info.contextual_default = knob;
  return info;
}

// Instantiates a spec against its family's table: a validated spec, its
// contextual defaults resolved against `env`.
template <typename Product>
util::Result<std::unique_ptr<Product>> MakeStrategy(
    const FamilySpec<Product>& spec, const StrategyEnv& env) {
  P2P_RETURN_IF_ERROR(spec.Validate());
  const StrategyDescriptor<Product>* descriptor =
      FindStrategy<Product>(spec.name);
  ResolvedParams resolved(descriptor->params, spec.params, env);
  // Validate() could only exercise the cross-parameter check against a
  // default env; re-run it here with the contextual defaults actually
  // resolved, so a check involving e.g. `threshold` sees the real value.
  if (descriptor->check) {
    P2P_RETURN_IF_ERROR(descriptor->check(resolved));
  }
  return descriptor->make(resolved, env);
}

}  // namespace

template <>
const StrategyFamily<MaintenancePolicy>& Family() {
  static const StrategyFamily<MaintenancePolicy> family{
      "policy",
      {
          {"fixed-threshold",
           "repair when alive < threshold; restore to n (the paper)",
           {ContextualParam("threshold", ContextDefault::kRepairThreshold,
                            "trigger level k'")},
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<FixedThresholdPolicy>(
                 static_cast<int>(p.Int("threshold")));
           }},
          {"adaptive-threshold",
           "threshold follows the measured partner loss rate "
           "(paper future work)",
           {
               DoubleParam("safety_factor", 3.0, 0.0, 1e6,
                           "multiplier on the expected losses"),
               IntParam("reaction_rounds", 3 * sim::kRoundsPerDay, 1, 1 << 20,
                        "rounds of expected losses the margin covers"),
               IntParam("floor_margin", 4, 0, 1 << 20,
                        "threshold >= k + floor"),
               IntParam("ceiling_margin", 64, 0, 1 << 20,
                        "threshold <= k + ceiling"),
           },
           [](const ResolvedParams& p) {
             if (p.Int("floor_margin") > p.Int("ceiling_margin")) {
               return util::Status::InvalidArgument(
                   "adaptive-threshold: floor_margin " +
                   std::to_string(p.Int("floor_margin")) +
                   " > ceiling_margin " +
                   std::to_string(p.Int("ceiling_margin")));
             }
             return util::Status::OK();
           },
           [](const ResolvedParams& p, const StrategyEnv&) {
             AdaptiveThresholdPolicy::Options o;
             o.safety_factor = p.Double("safety_factor");
             o.reaction_rounds = p.Int("reaction_rounds");
             o.floor_margin = static_cast<int>(p.Int("floor_margin"));
             o.ceiling_margin = static_cast<int>(p.Int("ceiling_margin"));
             return std::make_unique<AdaptiveThresholdPolicy>(o);
           }},
          {"proactive",
           "top up missing blocks in small batches (Duminuco et al.)",
           {
               IntParam("batch_blocks", 8, 1, 1 << 20,
                        "repair once this many blocks are missing"),
               ContextualParam("emergency_threshold",
                               ContextDefault::kRepairThreshold,
                               "always repair below this level"),
           },
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             ProactivePolicy::Options o;
             o.batch_blocks = static_cast<int>(p.Int("batch_blocks"));
             o.emergency_threshold =
                 static_cast<int>(p.Int("emergency_threshold"));
             return std::make_unique<ProactivePolicy>(o);
           }},
          {"adaptive-redundancy",
           "redundancy target follows the measured loss rate "
           "(Dell'Amico et al.)",
           {
               ContextualParam("threshold", ContextDefault::kRepairThreshold,
                               "trigger level"),
               DoubleParam("safety_factor", 2.0, 0.0, 1e6,
                           "multiplier on the expected losses"),
               IntParam("horizon_rounds", 14 * sim::kRoundsPerDay, 1, 1 << 20,
                        "rounds of losses the redundancy target must absorb"),
               IntParam("min_extra", 8, 1, 1 << 20,
                        "restore at least this far above the trigger level"),
           },
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             AdaptiveRedundancyPolicy::Options o;
             o.threshold = static_cast<int>(p.Int("threshold"));
             o.safety_factor = p.Double("safety_factor");
             o.horizon_rounds = p.Int("horizon_rounds");
             o.min_extra = static_cast<int>(p.Int("min_extra"));
             return std::make_unique<AdaptiveRedundancyPolicy>(o);
           }},
      }};
  return family;
}

template <>
const StrategyFamily<SelectionStrategy>& Family() {
  static const StrategyFamily<SelectionStrategy> family{
      "selection",
      {
          {"oldest-first",
           "sort by age descending, random tie-break (the paper)",
           {},
           nullptr,
           [](const ResolvedParams&, const StrategyEnv&) {
             return std::make_unique<OldestFirstSelection>();
           }},
          {"random",
           "uniform over the pool (age-oblivious baseline)",
           {},
           nullptr,
           [](const ResolvedParams&, const StrategyEnv&) {
             return std::make_unique<RandomSelection>();
           }},
          {"youngest-first",
           "sort by age ascending (adversarial baseline)",
           {},
           nullptr,
           [](const ResolvedParams&, const StrategyEnv&) {
             return std::make_unique<YoungestFirstSelection>();
           }},
          {"weighted-random",
           "draw hosts with probability ~ (age+1)^age_exponent; 0 = "
           "uniform, large = oldest-first",
           {DoubleParam("age_exponent", 1.0, 0.0, 16.0,
                        "age weighting exponent")},
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<WeightedRandomSelection>(
                 p.Double("age_exponent"));
           }},
      }};
  return family;
}

template <>
const StrategyFamily<LifetimeEstimator>& Family() {
  static const StrategyFamily<LifetimeEstimator> family{
      "estimator",
      {
          {"age-rank",
           "score = min(age, horizon) (the paper)",
           {ContextualParam("horizon", ContextDefault::kAcceptanceHorizon,
                            "age saturation horizon L, rounds")},
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<AgeRankEstimator>(
                 static_cast<sim::Round>(p.Int("horizon")));
           }},
          {"pareto-residual",
           "expected residual lifetime under Pareto(scale, shape) "
           "lifetimes (the paper's analytic model)",
           {
               DoubleParam("scale", 24.0, 1.0, 1e9,
                           "Pareto scale (minimum lifetime), rounds"),
               DoubleParam("shape", 2.0, 0.01, 64.0,
                           "Pareto tail exponent; <= 1 is the infinite-mean "
                           "regime"),
           },
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<ParetoResidualEstimator>(
                 p.Double("scale"), p.Double("shape"));
           }},
          {"empirical-residual",
           "departure-age histogram CDF learned online during the run",
           {
               IntParam("buckets", 90, 2, 1 << 16, "histogram buckets"),
               IntParam("bucket_rounds", sim::kRoundsPerDay, 1, 1 << 20,
                        "rounds per bucket (default one day)"),
               ContextualParam("horizon", ContextDefault::kAcceptanceHorizon,
                               "age-rank tie-break horizon, rounds"),
           },
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<EmpiricalResidualEstimator>(
                 static_cast<int>(p.Int("buckets")),
                 static_cast<sim::Round>(p.Int("bucket_rounds")),
                 static_cast<sim::Round>(p.Int("horizon")));
           }},
          {"availability-weighted",
           "age rank discounted by recent uptime (Dell'Amico et al.)",
           {
               ContextualParam("horizon", ContextDefault::kAcceptanceHorizon,
                               "age saturation horizon, rounds"),
               DoubleParam("exponent", 1.0, 0.0, 16.0,
                           "uptime weight exponent; 0 = pure age-rank"),
               DoubleParam("floor", 0.05, 0.0, 1.0,
                           "minimum uptime weight (keeps fresh peers "
                           "selectable)"),
           },
           nullptr,
           [](const ResolvedParams& p, const StrategyEnv&) {
             return std::make_unique<AvailabilityWeightedEstimator>(
                 static_cast<sim::Round>(p.Int("horizon")),
                 p.Double("exponent"), p.Double("floor"));
           }},
      }};
  return family;
}

const char* ContextDefaultName(ContextDefault knob) {
  switch (knob) {
    case ContextDefault::kNone:
      return "";
    case ContextDefault::kRepairThreshold:
      return "repair_threshold";
    case ContextDefault::kAcceptanceHorizon:
      return "acceptance_horizon";
  }
  return "";
}

ResolvedParams::ResolvedParams(const std::vector<ParamInfo>& infos,
                               const ParamMap& given, const StrategyEnv& env) {
  for (const ParamInfo& info : infos) {
    const auto it = given.find(info.name);
    if (it != given.end()) {
      values_[info.name] = it->second;
      continue;
    }
    switch (info.contextual_default) {
      case ContextDefault::kNone:
        values_[info.name] = info.def;
        break;
      case ContextDefault::kRepairThreshold:
        values_[info.name] = ParamValue::Int(env.repair_threshold);
        break;
      case ContextDefault::kAcceptanceHorizon:
        values_[info.name] = ParamValue::Int(env.acceptance_horizon);
        break;
    }
  }
}

int64_t ResolvedParams::Int(const std::string& name) const {
  const auto it = values_.find(name);
  P2P_CHECK(it != values_.end() && it->second.type == ParamType::kInt);
  return it->second.int_value;
}

double ResolvedParams::Double(const std::string& name) const {
  const auto it = values_.find(name);
  P2P_CHECK(it != values_.end());
  return it->second.AsDouble();
}

util::Result<std::unique_ptr<MaintenancePolicy>> MakePolicy(
    const PolicySpec& spec, const StrategyEnv& env) {
  return MakeStrategy(spec, env);
}

util::Result<std::unique_ptr<SelectionStrategy>> MakeSelection(
    const SelectionSpec& spec) {
  return MakeStrategy(spec, StrategyEnv{});
}

util::Result<std::unique_ptr<LifetimeEstimator>> MakeEstimator(
    const EstimatorSpec& spec, const StrategyEnv& env) {
  return MakeStrategy(spec, env);
}

}  // namespace core
}  // namespace p2p
