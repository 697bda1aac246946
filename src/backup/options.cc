#include "backup/options.h"

#include <climits>
#include <cstdint>
#include <string>

#include "core/strategy_registry.h"
#include "transfer/link.h"

namespace p2p {
namespace backup {
namespace {

util::Status Invalid(const std::string& msg) {
  return util::Status::InvalidArgument(msg);
}

// A parameter whose default follows repair_threshold is a repair threshold
// too, so when set explicitly it must lie in the same [k, k + m]. `spec` has
// already passed Validate().
template <typename Product>
util::Status CheckThresholdParams(const core::FamilySpec<Product>& spec, int k,
                                  int m) {
  for (const core::ParamInfo& info :
       core::FindStrategy<Product>(spec.name)->params) {
    const auto it = spec.params.find(info.name);
    if (info.contextual_default != core::ContextDefault::kRepairThreshold ||
        it == spec.params.end()) {
      continue;
    }
    const int64_t v = it->second.int_value;
    if (v < k || v > k + m) {
      return Invalid(spec.name + ": parameter '" + info.name + "' = " +
                     std::to_string(v) + " outside [k, k + m] = [" +
                     std::to_string(k) + ", " + std::to_string(k + m) + "]");
    }
  }
  return util::Status::OK();
}

}  // namespace

util::Status SystemOptions::Validate() const {
  if (num_peers < 16) {
    // Pool sampling needs a population to draw from; tiny populations can
    // never fill a candidate pool.
    return Invalid("num_peers must be >= 16, got " + std::to_string(num_peers));
  }
  if (k < 1) {
    return Invalid("k must be >= 1, got " + std::to_string(k));
  }
  if (m < 0) {
    return Invalid("m must be >= 0, got " + std::to_string(m));
  }
  if (m > INT_MAX - k) {
    // Every block count derives from n = k + m, so n must fit an int.
    return Invalid("k + m must be <= " + std::to_string(INT_MAX) + ", got " +
                   std::to_string(int64_t{k} + m));
  }
  if (repair_threshold < k || repair_threshold > k + m) {
    return Invalid("repair_threshold " + std::to_string(repair_threshold) +
                   " outside [k, k + m] = [" + std::to_string(k) + ", " +
                   std::to_string(k + m) + "]");
  }
  if (quota_blocks <= 0) {
    return Invalid("quota_blocks must be positive, got " +
                   std::to_string(quota_blocks));
  }
  // Delays share the run-length bound: a longer one could never elapse.
  const std::string max_rounds = std::to_string(sim::kMaxRunRounds);
  if (partner_timeout < 1 || partner_timeout > sim::kMaxRunRounds) {
    return Invalid("partner_timeout must be in [1, " + max_rounds +
                   "] rounds, got " + std::to_string(partner_timeout));
  }
  if (acceptance_horizon < 1) {
    return Invalid("acceptance_horizon must be >= 1 round");
  }
  if (departure_grace < 0 || departure_grace > sim::kMaxRunRounds) {
    return Invalid("departure_grace must be in [0, " + max_rounds +
                   "] rounds, got " + std::to_string(departure_grace));
  }
  if (!transfer_link.empty()) {
    P2P_RETURN_IF_ERROR(transfer::FindLinkProfile(transfer_link).status());
  }
  // Strategy specs: name must be in the family's table, parameters typed
  // and in range, thresholds inside the code geometry.
  P2P_RETURN_IF_ERROR(policy.Validate());
  P2P_RETURN_IF_ERROR(selection.Validate());
  P2P_RETURN_IF_ERROR(estimator.Validate());
  P2P_RETURN_IF_ERROR(CheckThresholdParams(policy, k, m));
  P2P_RETURN_IF_ERROR(CheckThresholdParams(selection, k, m));
  return CheckThresholdParams(estimator, k, m);
}

bool operator==(const SystemOptions& a, const SystemOptions& b) {
  return a.num_peers == b.num_peers && a.k == b.k && a.m == b.m &&
         a.repair_threshold == b.repair_threshold &&
         a.quota_blocks == b.quota_blocks && a.visibility == b.visibility &&
         a.partner_timeout == b.partner_timeout &&
         a.acceptance_horizon == b.acceptance_horizon &&
         a.use_acceptance == b.use_acceptance && a.selection == b.selection &&
         a.policy == b.policy && a.estimator == b.estimator &&
         a.quota_market == b.quota_market &&
         a.departure_grace == b.departure_grace &&
         a.transfer_link == b.transfer_link;
}

const char* VisibilityModelName(VisibilityModel model) {
  switch (model) {
    case VisibilityModel::kInstantOnline:
      return "instant";
    case VisibilityModel::kTimeoutPresumed:
      return "timeout";
  }
  return "timeout";
}

util::Result<VisibilityModel> VisibilityModelFromName(const std::string& name) {
  if (name == "instant") return VisibilityModel::kInstantOnline;
  if (name == "timeout") return VisibilityModel::kTimeoutPresumed;
  return util::Status::InvalidArgument("unknown visibility model: '" + name +
                                       "'");
}

}  // namespace backup
}  // namespace p2p
