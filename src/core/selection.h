// Partner selection strategies: given the pool of mutually-accepting
// candidates, decide who receives the d new blocks.
//
// The paper sorts the pool by stability ("Nodes are selected according to
// their stability ... the protocol uses the ages of the peers in the system
// to sort them"). Stability is an estimator verdict (lifetime_estimator.h):
// every candidate carries the score the configured estimator assigned it,
// and the strategies rank by (score, age) - under the default age-rank
// estimator that ordering is exactly the paper's oldest-first. Alternatives
// serve as baselines in the ablation benches: uniform random
// (estimator-oblivious) and youngest-first (adversarial).

#ifndef P2P_CORE_SELECTION_H_
#define P2P_CORE_SELECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/clock.h"
#include "util/rng.h"

namespace p2p {
namespace core {

/// A placement candidate: id, the age the monitor reports for it, and the
/// stability score the configured lifetime estimator assigned (nonnegative,
/// arbitrary scale; ties are refined by age, then broken randomly).
struct Candidate {
  uint32_t id = 0;
  sim::Round age = 0;
  double score = 0.0;
  // Selection-internal tie-break token (the candidate's position after the
  // random shuffle); lets the rank strategies use an in-place unstable sort
  // with a total order instead of an allocating std::stable_sort while
  // producing the exact same ordering. Callers need not initialize it.
  uint32_t tie = 0;
};

/// \brief Chooses up to d candidates from a pool.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;

  /// Selects min(d, pool.size()) candidate ids into `out` (appended in
  /// selection order). May reorder `pool`. `rng` breaks ties / randomizes.
  virtual void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
                      std::vector<uint32_t>* out) const = 0;
};

/// Sorts by estimator score descending (age refines score ties, the rest
/// broken randomly so equal newcomers do not all dogpile onto the lowest
/// peer id). Under the age-rank estimator this is the paper's oldest-first.
class OldestFirstSelection : public SelectionStrategy {
 public:
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
};

/// Uniform random selection from the pool.
class RandomSelection : public SelectionStrategy {
 public:
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
};

/// Sorts by score ascending; the pessimal counterpart of the paper's scheme.
class YoungestFirstSelection : public SelectionStrategy {
 public:
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
};

/// Age-weighted random selection: candidate i is drawn with probability
/// proportional to (age_i + 1)^exponent, without replacement. Exponent 0 is
/// uniform random; large exponents approach oldest-first. The continuum
/// between the paper's scheme and its age-oblivious baseline; weights stay
/// on the raw age (estimator-oblivious) by design, so the knob's meaning is
/// identical whatever estimator scores the pool.
class WeightedRandomSelection : public SelectionStrategy {
 public:
  explicit WeightedRandomSelection(double age_exponent);
  void Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
              std::vector<uint32_t>* out) const override;
  double age_exponent() const { return age_exponent_; }

 private:
  double age_exponent_;
  // Per-pick weight scratch, reused across calls so the repair hot path
  // stays allocation-free once the capacity high-water mark is reached. A
  // selection instance belongs to exactly one BackupNetwork (one simulated
  // world, one thread), so a mutable member is race-free.
  mutable std::vector<double> weights_;
};

// Instantiation from declarative specs lives in strategy_registry.h; the
// closed SelectionKind enum and its silent-fallback FromName parser are gone.

}  // namespace core
}  // namespace p2p

#endif  // P2P_CORE_SELECTION_H_
