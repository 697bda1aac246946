// Lifetime estimation from observable peer behaviour - the paper's "new
// criteria, the age, to estimate the reliability of a peer".
//
// The protocol needs a ranking ("the longer a node has been in the system,
// the more stable it will be considered"); the estimator maps what the
// availability monitor can observe about a peer - its age and its recent
// uptime - to a stability score, and the selection strategies rank
// placement candidates by that score.
//
// One formula backs both rows of the estimator table (strategy_registry.h):
//   score = min(age, horizon) * (floor + (1 - floor) * availability)^exponent
//   age-rank              exponent 0: min(age, horizon), the paper's criterion.
//   availability-weighted age rank discounted by recent uptime, in the
//                         spirit of Dell'Amico et al.'s adaptive redundancy.
//
// Scores are nonnegative with arbitrary scale: only the induced ranking
// matters. Selection ranks by (score, age), so a score that never decreases
// with age places exactly as age-rank does - a residual-lifetime model of
// age (Pareto, or an empirical departure-age CDF) is such a monotone
// transform and adds no row. The score is monotone nondecreasing in age at
// fixed availability, and every row but age-rank must change at least one
// placement (both property-tested for every table row).

#ifndef P2P_CORE_LIFETIME_ESTIMATOR_H_
#define P2P_CORE_LIFETIME_ESTIMATOR_H_

#include "sim/clock.h"

namespace p2p {
namespace core {

/// \brief What the availability monitor reports about one placement
/// candidate: the estimator input.
struct PeerObservation {
  /// Rounds since the peer joined (the paper's age criterion).
  sim::Round age = 0;
  /// Fraction of a recent window the peer was online, in [0, 1].
  double availability = 0.0;
};

/// \brief Maps an observation to a stability score:
/// min(age, horizon) * (floor + (1 - floor) * availability)^exponent.
class LifetimeEstimator {
 public:
  /// Peers older than `horizon` are "not much different" from each other.
  /// `exponent` 0 is the paper's age rank; `floor` keeps a peer with no
  /// measured uptime selectable (its weight is floor^exponent, not 0).
  explicit LifetimeEstimator(sim::Round horizon, double exponent = 0.0,
                             double floor = 0.0);

  /// Stability score; larger means expected to stay longer.
  double StabilityScore(const PeerObservation& obs) const;

  /// True when the score depends on PeerObservation::availability. An
  /// estimator that says false is scored from an observation whose
  /// availability was never measured (the network skips the monitor's
  /// window search for it).
  bool reads_availability() const { return exponent_ != 0.0; }

 private:
  sim::Round horizon_;
  double exponent_;
  double floor_;
};

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_LIFETIME_ESTIMATOR_H_
