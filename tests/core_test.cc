// Tests of the paper's core contribution: the acceptance function's printed
// properties, score-based selection, lifetime estimators and repair policies
// - plus the declarative strategy-spec layer (parse/render round trips, the
// registry, and registry-backed instantiation of policies, selections, and
// estimators).

#include <algorithm>
#include <map>
#include <set>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_registry.h"
#include "core/strategy_spec.h"
#include "util/rng.h"

namespace p2p {
namespace core {
namespace {

constexpr sim::Round kL = 90 * sim::kRoundsPerDay;

// --- Acceptance function: the three properties stated in section 3.2 ---

TEST(AcceptanceTest, NeverZeroAndMinimumIsOneOverL) {
  AcceptanceFunction f(kL);
  // "its minimum is 1/L": an ancient peer evaluating a newborn.
  EXPECT_NEAR(f.Probability(kL, 0), 1.0 / kL, 1e-12);
  for (sim::Round s1 : {0L, 100L, kL / 2, kL, 10 * kL}) {
    for (sim::Round s2 : {0L, 1L, kL / 3, kL, 100 * kL}) {
      ASSERT_GT(f.Probability(s1, s2), 0.0);
    }
  }
}

TEST(AcceptanceTest, AlwaysOneForOlderCandidates) {
  AcceptanceFunction f(kL);
  // "The result is always one if peer p2 is older than peer p1."
  for (sim::Round s1 : {0L, 5L, kL / 2, kL - 1}) {
    for (sim::Round delta : {0L, 1L, 100L, kL}) {
      ASSERT_DOUBLE_EQ(f.Probability(s1, s1 + delta), 1.0);
    }
  }
}

TEST(AcceptanceTest, AsymmetricBelowHorizon) {
  AcceptanceFunction f(kL);
  // "The function is not symmetric ... unless both peers are older than L."
  const sim::Round old_age = kL / 2;
  const sim::Round young_age = kL / 10;
  EXPECT_LT(f.Probability(old_age, young_age), 1.0);
  EXPECT_DOUBLE_EQ(f.Probability(young_age, old_age), 1.0);
  // Both beyond the horizon: symmetric (both equal one).
  EXPECT_DOUBLE_EQ(f.Probability(2 * kL, 3 * kL), 1.0);
  EXPECT_DOUBLE_EQ(f.Probability(3 * kL, 2 * kL), 1.0);
}

TEST(AcceptanceTest, ExactFormulaSpotChecks) {
  AcceptanceFunction f(kL);
  // f = (L - (s1 - s2) + 1) / L for capped ages with s1 > s2.
  const double L = static_cast<double>(kL);
  EXPECT_NEAR(f.Probability(1000, 400), (L - 600 + 1) / L, 1e-12);
  EXPECT_NEAR(f.Probability(kL + 500, 400), (L - (L - 400) + 1) / L, 1e-12);
}

TEST(AcceptanceTest, MonotoneInCandidateAge) {
  AcceptanceFunction f(kL);
  double prev = 0.0;
  for (sim::Round s2 = 0; s2 <= kL; s2 += kL / 16) {
    const double p = f.Probability(kL, s2);
    ASSERT_GE(p, prev);
    prev = p;
  }
}

TEST(AcceptanceTest, MutualAcceptRequiresBothSides) {
  AcceptanceFunction f(kL);
  util::Rng rng(1);
  // Old-old always pairs; probability of old-young pairing equals the
  // one-sided probability (the young side always consents).
  int pair_old_old = 0, pair_old_young = 0;
  const int trials = 200'000;
  for (int i = 0; i < trials; ++i) {
    pair_old_old += f.MutualAccept(2 * kL, 3 * kL, &rng);
    pair_old_young += f.MutualAccept(kL, kL / 100, &rng);
  }
  EXPECT_EQ(pair_old_old, trials);
  const double expect = f.Probability(kL, kL / 100);
  EXPECT_NEAR(pair_old_young / static_cast<double>(trials), expect,
              3e-3);
}

// --- Lifetime estimators ---

PeerObservation Obs(sim::Round age, double availability = 1.0) {
  PeerObservation obs;
  obs.age = age;
  obs.availability = availability;
  return obs;
}

TEST(EstimatorTest, AgeRankSaturatesAtHorizon) {
  LifetimeEstimator est(kL);
  EXPECT_FALSE(est.reads_availability());
  EXPECT_LT(est.StabilityScore(Obs(10)), est.StabilityScore(Obs(100)));
  EXPECT_DOUBLE_EQ(est.StabilityScore(Obs(kL)),
                   est.StabilityScore(Obs(5 * kL)));
  // The paper's criterion ignores the availability signal entirely.
  EXPECT_DOUBLE_EQ(est.StabilityScore(Obs(100, 0.1)),
                   est.StabilityScore(Obs(100, 0.9)));
}

TEST(EstimatorTest, AvailabilityWeightedDiscountsFlakyPeers) {
  LifetimeEstimator est(kL, /*exponent=*/1.0, /*floor=*/0.05);
  EXPECT_TRUE(est.reads_availability());
  // Same age: the reachable peer wins.
  EXPECT_GT(est.StabilityScore(Obs(1000, 0.9)),
            est.StabilityScore(Obs(1000, 0.2)));
  // Exponent 0 is pure age rank, availability-oblivious.
  LifetimeEstimator flat(kL, 0.0, 0.05);
  EXPECT_FALSE(flat.reads_availability());
  EXPECT_DOUBLE_EQ(flat.StabilityScore(Obs(1000, 0.9)),
                   flat.StabilityScore(Obs(1000, 0.2)));
  EXPECT_DOUBLE_EQ(flat.StabilityScore(Obs(1000, 0.5)), 1000.0);
  // The floor keeps a zero-availability peer selectable (score > 0).
  EXPECT_GT(est.StabilityScore(Obs(1000, 0.0)), 0.0);
}

// --- Selection strategies ---

// Pool with score == age: what the network builds under the default
// age-rank estimator (ages below the horizon).
std::vector<Candidate> MakePool() {
  return {{1, 10, 10.0},
          {2, 500, 500.0},
          {3, 250, 250.0},
          {4, 90, 90.0},
          {5, 1000, 1000.0}};
}

TEST(SelectionTest, OldestFirstPicksByAge) {
  OldestFirstSelection sel;
  util::Rng rng(2);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 2, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{5, 2}));
}

TEST(SelectionTest, YoungestFirstPicksInverse) {
  YoungestFirstSelection sel;
  util::Rng rng(3);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 2, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 4}));
}

TEST(SelectionTest, RandomCoversPool) {
  RandomSelection sel;
  util::Rng rng(4);
  std::set<uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen.size(), 5u);  // every candidate selected at least once
}

TEST(SelectionTest, TiesBrokenRandomly) {
  OldestFirstSelection sel;
  util::Rng rng(5);
  std::set<uint32_t> first_pick;
  for (int i = 0; i < 200; ++i) {
    std::vector<Candidate> pool = {{1, 100}, {2, 100}, {3, 100}};
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    first_pick.insert(out[0]);
  }
  EXPECT_EQ(first_pick.size(), 3u);
}

TEST(SelectionTest, ScoreOutranksAgeAndAgeRefinesScoreTies) {
  // The estimator's verdict is primary: a younger peer with a higher score
  // wins; among equal scores the older peer wins (so the default age-rank
  // estimator reproduces the paper's pure age ordering exactly).
  OldestFirstSelection sel;
  util::Rng rng(10);
  std::vector<Candidate> pool = {
      {1, 900, 50.0}, {2, 100, 80.0}, {3, 400, 50.0}};
  std::vector<uint32_t> out;
  sel.Choose(&pool, 3, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 1, 3}));

  YoungestFirstSelection inverse;
  pool = {{1, 900, 50.0}, {2, 100, 80.0}, {3, 400, 50.0}};
  out.clear();
  inverse.Choose(&pool, 3, &rng, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 1, 2}));
}

TEST(SelectionTest, LinearTimeRankingMatchesStableSortReference) {
  // The rank strategies replaced their allocating shuffle + std::stable_sort
  // with an in-place nth_element + sort of the `take` front over (score,
  // age, post-shuffle position). Stability is exactly "ties keep prior
  // position", so against a reference implementation that still
  // stable_sorts the shuffled pool, the chosen ids must match element for
  // element. Pools run up to 600 (repair pools are about 3 x 108), far past
  // the small sizes where nth_element falls back to insertion sort; take
  // covers the edges {0, 1, pool/3, pool-1, pool} and a request past the
  // pool (pool+7, which must yield the whole ranked pool); both directions;
  // and two score shapes: dense score/age ties, and every score tied at the
  // age-rank horizon so age and the shuffled position decide everything.
  constexpr sim::Round kHorizon = 2160;
  util::Rng fill(99);
  std::vector<size_t> sizes = {1, 2, 3, 16, 17, 40, 41, 108, 324, 599, 600};
  for (int i = 0; i < 12; ++i) {
    sizes.push_back(static_cast<size_t>(fill.UniformInt(1, 600)));
  }
  uint64_t trial = 0;
  for (size_t size : sizes) {
    for (bool at_horizon : {false, true}) {
      std::vector<Candidate> base(size);
      for (size_t i = 0; i < size; ++i) {
        base[i].id = static_cast<uint32_t>(i);
        if (at_horizon) {
          base[i].age = kHorizon + fill.UniformInt(0, 30);
          base[i].score = static_cast<double>(kHorizon);
        } else {
          base[i].age = fill.UniformInt(0, 3);  // many age ties
          base[i].score = static_cast<double>(fill.UniformInt(0, 2));  // and
          // score ties, so the shuffled-position tie-break actually decides
        }
      }
      for (size_t take :
           {size_t{0}, size_t{1}, size / 3, size - 1, size, size + 7}) {
        for (bool best_first : {true, false}) {
          ++trial;
          const int d = static_cast<int>(take);
          auto reference = base;
          util::Rng ref_rng(1000 + trial);
          ref_rng.Shuffle(&reference);
          std::stable_sort(
              reference.begin(), reference.end(),
              [best_first](const Candidate& a, const Candidate& b) {
                if (a.score != b.score) {
                  return best_first ? a.score > b.score : a.score < b.score;
                }
                return best_first ? a.age > b.age : a.age < b.age;
              });
          std::vector<uint32_t> want;
          for (size_t i = 0; i < std::min(take, size); ++i) {
            want.push_back(reference[i].id);
          }

          auto pool = base;
          util::Rng rng(1000 + trial);
          std::vector<uint32_t> got;
          if (best_first) {
            OldestFirstSelection().Choose(&pool, d, &rng, &got);
          } else {
            YoungestFirstSelection().Choose(&pool, d, &rng, &got);
          }
          ASSERT_EQ(got, want) << "size=" << size << " take=" << take
                               << " at_horizon=" << at_horizon
                               << " best_first=" << best_first;
          // Both implementations consumed identical draws.
          ASSERT_EQ(rng.NextU64(), ref_rng.NextU64());
        }
      }
    }
  }
}

TEST(SelectionTest, RequestMoreThanPool) {
  OldestFirstSelection sel;
  util::Rng rng(6);
  auto pool = MakePool();
  std::vector<uint32_t> out;
  sel.Choose(&pool, 100, &rng, &out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(SelectionTest, RegistryInstantiatesEveryBuiltin) {
  // Each table row builds the class it names.
  const std::pair<const char*, std::type_index> kRows[] = {
      {"oldest-first", typeid(OldestFirstSelection)},
      {"random", typeid(RandomSelection)},
      {"youngest-first", typeid(YoungestFirstSelection)},
      {"weighted-random", typeid(WeightedRandomSelection)},
  };
  for (const auto& [name, type] : kRows) {
    auto spec = SelectionSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto strategy = MakeSelection(*spec);
    ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
    const SelectionStrategy& built = **strategy;
    EXPECT_EQ(std::type_index(typeid(built)), type) << name;
  }
}

TEST(SelectionTest, WeightedRandomExponentZeroCoversPool) {
  // age_exponent = 0 degenerates to uniform random.
  WeightedRandomSelection sel(0.0);
  util::Rng rng(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 1, &rng, &out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SelectionTest, WeightedRandomFavoursAgeAndInterpolates) {
  util::Rng rng(8);
  auto count_oldest_first_picks = [&rng](double exponent) {
    WeightedRandomSelection sel(exponent);
    int oldest = 0;
    for (int i = 0; i < 500; ++i) {
      auto pool = MakePool();
      std::vector<uint32_t> out;
      sel.Choose(&pool, 1, &rng, &out);
      if (out[0] == 5) ++oldest;  // id 5 has age 1000, the maximum
    }
    return oldest;
  };
  const int flat = count_oldest_first_picks(0.0);
  const int linear = count_oldest_first_picks(1.0);
  const int steep = count_oldest_first_picks(8.0);
  // Uniform picks the oldest ~1/5 of the time; raising the exponent moves
  // the distribution monotonically toward oldest-first.
  EXPECT_LT(flat, linear);
  EXPECT_LT(linear, steep);
  EXPECT_GT(steep, 450);  // (1000/500)^8 = 256: near-deterministic
}

TEST(SelectionTest, WeightedRandomSelectsWithoutReplacement) {
  WeightedRandomSelection sel(2.0);
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    auto pool = MakePool();
    std::vector<uint32_t> out;
    sel.Choose(&pool, 5, &rng, &out);
    std::set<uint32_t> distinct(out.begin(), out.end());
    EXPECT_EQ(out.size(), 5u);
    EXPECT_EQ(distinct.size(), 5u);
  }
}

// --- Maintenance policies ---

MaintenanceContext Ctx(int alive) {
  MaintenanceContext ctx;
  ctx.k = 128;
  ctx.n = 256;
  ctx.alive = alive;
  return ctx;
}

TEST(PolicyTest, FixedThresholdTriggersStrictlyBelow) {
  FixedThresholdPolicy policy(148);
  EXPECT_FALSE(policy.Evaluate(Ctx(148)).trigger);
  EXPECT_TRUE(policy.Evaluate(Ctx(147)).trigger);
  EXPECT_EQ(policy.Evaluate(Ctx(147)).restore_to, 256);
  EXPECT_EQ(policy.FlagLevel(128, 256), 148);
}

TEST(PolicyTest, AdaptiveThresholdFollowsLossRate) {
  AdaptiveThresholdPolicy policy(AdaptiveThresholdPolicy::Options{});
  MaintenanceContext quiet = Ctx(140);
  quiet.partner_loss_rate = 0.0;
  EXPECT_FALSE(policy.Evaluate(quiet).trigger);  // only floor margin applies
  MaintenanceContext bleeding = Ctx(140);
  bleeding.partner_loss_rate = 0.5;  // heavy churn: margin rises
  EXPECT_TRUE(policy.Evaluate(bleeding).trigger);
}

TEST(PolicyTest, AdaptiveFlagLevelBoundsEvaluate) {
  AdaptiveThresholdPolicy policy(AdaptiveThresholdPolicy::Options{});
  const int flag = policy.FlagLevel(128, 256);
  // Above the flag level the policy must never trigger, whatever the rate.
  for (double rate : {0.0, 0.1, 1.0, 100.0}) {
    MaintenanceContext ctx = Ctx(flag);
    ctx.partner_loss_rate = rate;
    EXPECT_FALSE(policy.Evaluate(ctx).trigger) << rate;
  }
}

TEST(PolicyTest, ProactiveBatchesAndEmergency) {
  ProactivePolicy::Options opts;
  opts.batch_blocks = 8;
  opts.emergency_threshold = 136;
  ProactivePolicy policy(opts);
  EXPECT_FALSE(policy.Evaluate(Ctx(250)).trigger);  // 6 missing < batch
  EXPECT_TRUE(policy.Evaluate(Ctx(248)).trigger);   // 8 missing = batch
  EXPECT_TRUE(policy.Evaluate(Ctx(135)).trigger);   // emergency
  EXPECT_GE(policy.FlagLevel(128, 256), 249);
}

TEST(PolicyTest, AdaptiveRedundancyMovesRestoreTargetWithLossRate) {
  AdaptiveRedundancyPolicy::Options opts;
  opts.threshold = 148;
  opts.safety_factor = 2.0;
  opts.horizon_rounds = 100;
  opts.min_extra = 8;
  AdaptiveRedundancyPolicy policy(opts);

  // Trigger is the fixed threshold, whatever the rate.
  EXPECT_FALSE(policy.Evaluate(Ctx(148)).trigger);
  EXPECT_TRUE(policy.Evaluate(Ctx(147)).trigger);
  EXPECT_EQ(policy.FlagLevel(128, 256), 148);

  // Quiet partner set: restore just past the threshold (cheap repair).
  MaintenanceContext quiet = Ctx(140);
  quiet.partner_loss_rate = 0.0;
  EXPECT_EQ(policy.Evaluate(quiet).restore_to, 148 + 8);

  // Moderate churn: target tracks k + safety * rate * horizon.
  MaintenanceContext churny = Ctx(140);
  churny.partner_loss_rate = 0.25;  // 2.0 * 0.25 * 100 = 50 expected losses
  EXPECT_EQ(policy.Evaluate(churny).restore_to, 128 + 50);

  // Heavy churn: clamped at n.
  MaintenanceContext bleeding = Ctx(140);
  bleeding.partner_loss_rate = 10.0;
  EXPECT_EQ(policy.Evaluate(bleeding).restore_to, 256);
}

// --- Strategy specs: grammar, round trips, registry ---

TEST(StrategySpecTest, ParseRenderRoundTrips) {
  for (const char* text : {
           "fixed-threshold",
           "fixed-threshold{threshold=140}",
           "adaptive-threshold{ceiling_margin=32,safety_factor=2.5}",
           "proactive{batch_blocks=4,emergency_threshold=136}",
           "adaptive-redundancy{min_extra=16,safety_factor=4}",
       }) {
    SCOPED_TRACE(text);
    auto spec = PolicySpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);  // canonical inputs are fixed points
    auto again = PolicySpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *spec);
  }
  for (const char* text : {"oldest-first", "weighted-random{age_exponent=2}"}) {
    SCOPED_TRACE(text);
    auto spec = SelectionSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);
  }
}

TEST(StrategySpecTest, ParseNormalizesWhitespaceAndParamOrder) {
  auto spec =
      PolicySpec::Parse("  proactive{ emergency_threshold = 136 , "
                        "batch_blocks = 4 }  ");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Canonical form: no spaces, parameters in name order.
  EXPECT_EQ(spec->ToString(), "proactive{batch_blocks=4,emergency_threshold=136}");
}

TEST(StrategySpecTest, ErrorsNameTheOffendingToken) {
  auto unknown = PolicySpec::Parse("reactive-gold-plated");
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("reactive-gold-plated"),
            std::string::npos);

  // The pre-redesign short enum names are gone, not silently mapped.
  EXPECT_FALSE(PolicySpec::Parse("fixed").ok());
  EXPECT_FALSE(PolicySpec::Parse("adaptive").ok());
  EXPECT_FALSE(SelectionSpec::Parse("oldest").ok());
  EXPECT_FALSE(SelectionSpec::Parse("youngest").ok());

  auto bad_param = PolicySpec::Parse("proactive{batch_size=4}");
  EXPECT_TRUE(bad_param.status().IsInvalidArgument());
  EXPECT_NE(bad_param.status().message().find("batch_size"),
            std::string::npos);

  auto bad_value = PolicySpec::Parse("proactive{batch_blocks=lots}");
  EXPECT_NE(bad_value.status().message().find("lots"), std::string::npos);

  auto out_of_range = SelectionSpec::Parse("weighted-random{age_exponent=99}");
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());
  EXPECT_NE(out_of_range.status().message().find("age_exponent"),
            std::string::npos);

  EXPECT_FALSE(PolicySpec::Parse("proactive{batch_blocks=4").ok());
  EXPECT_FALSE(PolicySpec::Parse("proactive{batch_blocks}").ok());
  EXPECT_FALSE(PolicySpec::Parse("").ok());

  // Cross-parameter consistency.
  auto inverted = PolicySpec::Parse(
      "adaptive-threshold{floor_margin=32,ceiling_margin=8}");
  EXPECT_TRUE(inverted.status().IsInvalidArgument());
  EXPECT_NE(inverted.status().message().find("floor_margin"),
            std::string::npos);
}

TEST(StrategySpecTest, ValidateCatchesHandBuiltMistakes) {
  PolicySpec spec;  // default fixed-threshold
  EXPECT_TRUE(spec.Validate().ok());
  spec.params["no_such_param"] = ParamValue::Int(3);
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  PolicySpec wrong_type;
  wrong_type.params["threshold"] = ParamValue::Double(140.0);
  EXPECT_TRUE(wrong_type.Validate().IsInvalidArgument());

  SelectionSpec unknown;
  unknown.name = "no-such-selection";
  EXPECT_TRUE(unknown.Validate().IsInvalidArgument());
  EXPECT_NE(unknown.Validate().message().find("no-such-selection"),
            std::string::npos);
}

TEST(StrategySpecTest, FactoryWiresContextualThreshold) {
  StrategyEnv env;
  env.repair_threshold = 140;

  // No explicit threshold: the spec follows env.repair_threshold, exactly
  // like the historical MakePolicy(kind, fixed_threshold) wiring.
  auto fixed = MakePolicy(PolicySpec(), env);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE((*fixed)->Evaluate(Ctx(139)).trigger);
  EXPECT_FALSE((*fixed)->Evaluate(Ctx(140)).trigger);

  // An explicit threshold parameter overrides the context.
  auto spec = PolicySpec::Parse("fixed-threshold{threshold=150}");
  ASSERT_TRUE(spec.ok());
  auto overridden = MakePolicy(*spec, env);
  ASSERT_TRUE(overridden.ok());
  EXPECT_TRUE((*overridden)->Evaluate(Ctx(149)).trigger);
  EXPECT_FALSE((*overridden)->Evaluate(Ctx(150)).trigger);

  // The proactive emergency floor is contextual too.
  auto proactive = MakePolicy(*PolicySpec::Parse("proactive"), env);
  ASSERT_TRUE(proactive.ok());
  EXPECT_TRUE((*proactive)->Evaluate(Ctx(139)).trigger);
}

// --- Estimator specs: grammar, registry, contextual defaults ---

TEST(EstimatorSpecTest, ParseRenderRoundTrips) {
  for (const char* text : {
           "age-rank",
           "age-rank{horizon=2160}",
           "availability-weighted{exponent=2,floor=0.1}",
       }) {
    SCOPED_TRACE(text);
    auto spec = EstimatorSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_EQ(spec->ToString(), text);  // canonical inputs are fixed points
    auto again = EstimatorSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *spec);
  }
}

TEST(EstimatorSpecTest, ErrorsNameTheOffendingToken) {
  // Each bad spec fails with InvalidArgument naming the listed token.
  const std::pair<const char*, const char*> kCases[] = {
      {"crystal-ball", "crystal-ball"},
      {"age-rank{half_life=3}", "half_life"},
      {"availability-weighted{exponent=steep}", "steep"},
      {"availability-weighted{floor=2}", "floor"},
      // Deleted rows: their scores were monotone in age, so they placed
      // exactly as age-rank did.
      {"pareto-residual", "pareto-residual"},
      {"empirical-residual{buckets=5}", "empirical-residual"},
  };
  for (const auto& [text, token] : kCases) {
    SCOPED_TRACE(text);
    auto spec = EstimatorSpec::Parse(text);
    EXPECT_TRUE(spec.status().IsInvalidArgument());
    EXPECT_NE(spec.status().message().find(token), std::string::npos)
        << spec.status().message();
  }

  EstimatorSpec hand_built;
  hand_built.name = "no-such-estimator";
  EXPECT_TRUE(hand_built.Validate().IsInvalidArgument());
}

TEST(EstimatorSpecTest, RegistryInstantiatesEveryBuiltin) {
  // Each table row builds the one estimator class; only the rows that
  // weight by uptime read availability.
  const std::pair<const char*, bool> kRows[] = {
      {"age-rank", false},
      {"availability-weighted", true},
  };
  for (const auto& [name, reads_availability] : kRows) {
    auto spec = EstimatorSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto estimator = MakeEstimator(*spec, StrategyEnv{});
    ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
    EXPECT_EQ((*estimator)->reads_availability(), reads_availability) << name;
    // Fresh instance per call: no two networks share one.
    auto second = MakeEstimator(*spec, StrategyEnv{});
    ASSERT_TRUE(second.ok());
    EXPECT_NE(estimator->get(), second->get());
  }
}

TEST(EstimatorSpecTest, FactoryWiresContextualHorizon) {
  StrategyEnv env;
  env.acceptance_horizon = 100;

  // No explicit horizon: age-rank saturates at env.acceptance_horizon.
  auto contextual = MakeEstimator(EstimatorSpec(), env);
  ASSERT_TRUE(contextual.ok());
  EXPECT_DOUBLE_EQ((*contextual)->StabilityScore(Obs(100)),
                   (*contextual)->StabilityScore(Obs(5000)));
  EXPECT_LT((*contextual)->StabilityScore(Obs(99)),
            (*contextual)->StabilityScore(Obs(100)));

  // An explicit horizon parameter overrides the context.
  auto spec = EstimatorSpec::Parse("age-rank{horizon=500}");
  ASSERT_TRUE(spec.ok());
  auto overridden = MakeEstimator(*spec, env);
  ASSERT_TRUE(overridden.ok());
  EXPECT_LT((*overridden)->StabilityScore(Obs(100)),
            (*overridden)->StabilityScore(Obs(499)));
  EXPECT_DOUBLE_EQ((*overridden)->StabilityScore(Obs(500)),
                   (*overridden)->StabilityScore(Obs(5000)));
}

}  // namespace
}  // namespace core
}  // namespace p2p
