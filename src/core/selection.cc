#include "core/selection.h"

#include <algorithm>
#include <cmath>

namespace p2p {
namespace core {
namespace {

// Selection scratch code: every Choose below runs once per repair episode
// on the allocation-free path (tests/hotpath_alloc_test.cc). `out` and
// `weights_` are caller-owned / member scratch at high-water capacity.
// DETLINT: hot-path-begin

// Shuffle-then-rank gives a deterministic random tie-break. Ranking is by
// estimator score with age refining score ties: since every estimator is
// monotone in age, this reduces to the historical pure-age ordering
// whenever the score is a function of age alone (e.g. the default
// age-rank), and exact (score, age) ties keep the shuffled order.
//
// Historically this was a std::stable_sort over the shuffled pool; stable
// sorts allocate a merge buffer per call, which the allocation-free repair
// loop forbids. Recording each candidate's post-shuffle position in `tie`
// extends (score, age) to a total order, under which any correct in-place
// ordering of the `take` front is byte-for-byte the ordering stable_sort
// produced: stability is exactly "ties keep prior position". So the rank
// is a linear-time std::nth_element that moves the `take` best to the front,
// then a std::sort of that front only: O(pool + take log take) instead of a
// heap-based partial_sort's O(pool log take). A total order admits exactly
// one sorted front, so the two agree element for element.
void ShuffleThenRankFront(std::vector<Candidate>* pool, size_t take,
                          util::Rng* rng, bool best_first) {
  rng->Shuffle(pool);
  for (size_t i = 0; i < pool->size(); ++i) {
    (*pool)[i].tie = static_cast<uint32_t>(i);
  }
  const auto before = [best_first](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) {
      return best_first ? a.score > b.score : a.score < b.score;
    }
    if (a.age != b.age) {
      return best_first ? a.age > b.age : a.age < b.age;
    }
    return a.tie < b.tie;
  };
  const auto front_end = pool->begin() + static_cast<long>(take);
  std::nth_element(pool->begin(), front_end, pool->end(), before);
  std::sort(pool->begin(), front_end, before);
}

size_t TakeCount(const std::vector<Candidate>& pool, int d) {
  return std::min<size_t>(static_cast<size_t>(std::max(d, 0)), pool.size());
}

void TakeFront(const std::vector<Candidate>& pool, size_t take,
               std::vector<uint32_t>* out) {
  // DETLINT-ALLOW(hot-path-alloc): out is the caller's member scratch (scratch_chosen_), at high-water capacity once warm
  for (size_t i = 0; i < take; ++i) out->push_back(pool[i].id);
}

}  // namespace

void OldestFirstSelection::Choose(std::vector<Candidate>* pool, int d,
                                  util::Rng* rng, std::vector<uint32_t>* out) const {
  const size_t take = TakeCount(*pool, d);
  ShuffleThenRankFront(pool, take, rng, /*best_first=*/true);
  TakeFront(*pool, take, out);
}

void RandomSelection::Choose(std::vector<Candidate>* pool, int d, util::Rng* rng,
                             std::vector<uint32_t>* out) const {
  rng->Shuffle(pool);
  TakeFront(*pool, TakeCount(*pool, d), out);
}

void YoungestFirstSelection::Choose(std::vector<Candidate>* pool, int d,
                                    util::Rng* rng,
                                    std::vector<uint32_t>* out) const {
  const size_t take = TakeCount(*pool, d);
  ShuffleThenRankFront(pool, take, rng, /*best_first=*/false);
  TakeFront(*pool, take, out);
}

WeightedRandomSelection::WeightedRandomSelection(double age_exponent)
    : age_exponent_(age_exponent) {}

void WeightedRandomSelection::Choose(std::vector<Candidate>* pool, int d,
                                     util::Rng* rng,
                                     std::vector<uint32_t>* out) const {
  const size_t take = std::min<size_t>(static_cast<size_t>(std::max(d, 0)),
                                       pool->size());
  if (take == 0) return;
  // One weight per candidate; +1 so age-0 newcomers stay selectable at any
  // exponent. Weights use the raw age, not the estimator score: this
  // strategy is the deliberate age-continuum knob between random and
  // oldest-first (and raw age keeps it byte-identical across estimators and
  // to its pre-estimator behaviour past the saturation horizon). Each pick
  // walks the prefix sums and swap-removes the winner - O(pool * d), fine
  // at pool sizes of a few hundred.
  std::vector<double>& weights = weights_;  // member scratch: allocation-free
  weights.resize(pool->size());             // once warm (capacity persists)
  double total = 0.0;
  for (size_t i = 0; i < pool->size(); ++i) {
    weights[i] = std::pow(static_cast<double>((*pool)[i].age) + 1.0,
                          age_exponent_);
    total += weights[i];
  }
  size_t live = pool->size();
  for (size_t pick = 0; pick < take; ++pick) {
    size_t chosen = live - 1;  // fallback against FP drift in `total`
    const double r = rng->UniformDouble(0.0, std::max(total, 0.0));
    double acc = 0.0;
    for (size_t i = 0; i < live; ++i) {
      acc += weights[i];
      if (r < acc) {
        chosen = i;
        break;
      }
    }
    // DETLINT-ALLOW(hot-path-alloc): out is the caller's member scratch (scratch_chosen_), at high-water capacity once warm
    out->push_back((*pool)[chosen].id);
    total -= weights[chosen];
    --live;
    std::swap((*pool)[chosen], (*pool)[live]);
    std::swap(weights[chosen], weights[live]);
  }
}
// DETLINT: hot-path-end

}  // namespace core
}  // namespace p2p
