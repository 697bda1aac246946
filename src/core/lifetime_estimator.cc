#include "core/lifetime_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p2p {
namespace core {

LifetimeEstimator::LifetimeEstimator(sim::Round horizon, double exponent,
                                     double floor)
    : horizon_(horizon), exponent_(exponent), floor_(floor) {
  assert(horizon >= 1 && exponent >= 0.0 && floor >= 0.0 && floor <= 1.0);
}

double LifetimeEstimator::StabilityScore(const PeerObservation& obs) const {
  const double age = static_cast<double>(std::min(obs.age, horizon_));
  // pow(x, 0) == 1 exactly, so skipping it at exponent 0 changes no score.
  if (!reads_availability()) return age;
  const double a = std::clamp(obs.availability, 0.0, 1.0);
  return age * std::pow(floor_ + (1.0 - floor_) * a, exponent_);
}

}  // namespace core
}  // namespace p2p
