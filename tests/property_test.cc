// Cross-module property tests: parameterized sweeps over the invariants the
// system's correctness rests on.

#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/strategy_registry.h"
#include "core/strategy_spec.h"
#include "metrics/collector.h"
#include "metrics/registry.h"
#include "scenario/registry.h"
#include "sim/event_queue.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/rng.h"

namespace p2p {
namespace {

// --- Calendar queue: random schedules drain in exact round order. ---

TEST(CalendarQueueProperty, RandomSchedulesDrainInOrder) {
  // The queue against a reference calendar (an ordered map of per-round
  // FIFO lists), over the whole drain sequence. The first 60 rounds only
  // schedule within the 8-slot starting ring, so the ring has wrapped many
  // times with events pending on both sides of the wrap point before the
  // later far-ahead schedules grow it; callbacks also schedule while their
  // own round drains.
  using Ev = std::pair<sim::Round, int>;
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    sim::CalendarQueue<Ev> q(8);
    std::map<sim::Round, std::vector<Ev>> reference;
    std::vector<Ev> expected;
    std::vector<Ev> got;
    int serial = 0;
    const auto schedule = [&](sim::Round at) {
      q.Schedule(at, {at, serial});
      reference[at].push_back({at, serial});
      ++serial;
    };
    for (sim::Round now = 0; now < 300; ++now) {
      const sim::Round reach = now < 60 ? 7 : 250;
      const int schedules = static_cast<int>(rng.UniformInt(0, 5));
      for (int s = 0; s < schedules; ++s) {
        schedule(now + rng.UniformInt(0, reach));
      }
      // The reference round is copied out first: callbacks extend
      // `reference` at later rounds while the queue drains this one.
      const auto due = reference.find(now);
      if (due != reference.end()) {
        expected.insert(expected.end(), due->second.begin(), due->second.end());
        reference.erase(due);
      }
      q.DrainInto(now, [&](Ev& e) {
        got.push_back(e);
        if (rng.UniformInt(0, 3) == 0) schedule(now + rng.UniformInt(1, reach));
      });
      ASSERT_EQ(got, expected) << "trial " << trial << " round " << now;
    }
    size_t pending = 0;
    for (const auto& [at, events] : reference) pending += events.size();
    ASSERT_EQ(q.size(), pending);
    EXPECT_GT(q.ring_slots(), 8u);  // grew past the starting ring
  }
}

// --- Acceptance: exhaustive grid of the paper's three properties. ---

class AcceptanceGrid : public ::testing::TestWithParam<sim::Round> {};

TEST_P(AcceptanceGrid, PropertiesHoldForHorizon) {
  const sim::Round L = GetParam();
  core::AcceptanceFunction f(L);
  const sim::Round probes[] = {0, 1, L / 7, L / 3, L / 2, L - 1, L, 2 * L, 10 * L};
  for (sim::Round s1 : probes) {
    for (sim::Round s2 : probes) {
      const double p = f.Probability(s1, s2);
      // Never zero, never above one.
      ASSERT_GT(p, 0.0);
      ASSERT_LE(p, 1.0);
      // One whenever the candidate is at least as old.
      if (std::min(s2, L) >= std::min(s1, L)) {
        ASSERT_DOUBLE_EQ(p, 1.0);
      }
      // Minimum is 1/L, achieved at (>=L, 0).
      ASSERT_GE(p, 1.0 / static_cast<double>(L) - 1e-12);
    }
  }
  ASSERT_NEAR(f.Probability(L, 0), 1.0 / static_cast<double>(L), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Horizons, AcceptanceGrid,
                         ::testing::Values(24, 720, 2160, 90 * 24, 365 * 24));

// --- Strategy registry: FlagLevel really bounds every trigger. ---
//
// The network flags a peer for policy evaluation only when its visible
// count drops below FlagLevel(k, n); a policy whose Evaluate could trigger
// at or above its own FlagLevel would silently never repair. Sweep every
// registered policy under randomly drawn in-range parameters and random
// reachable contexts: alive >= FlagLevel must never trigger.

TEST(StrategyProperty, FlagLevelBoundsEveryRegisteredPolicy) {
  util::Rng rng(20240728);
  core::StrategyEnv env;  // k = 128, n = 256, repair_threshold = 148

  for (const core::PolicyDescriptor& descriptor :
       core::Family<core::MaintenancePolicy>().strategies) {
    SCOPED_TRACE(descriptor.name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::PolicySpec spec;
      spec.name = descriptor.name;
      // Half the trials run pure defaults; the rest set every parameter to
      // a uniformly drawn in-range value.
      if (trial % 2 == 1) {
        for (const core::ParamInfo& info : descriptor.params) {
          // Keep integer draws in a simulation-sized window: the declared
          // ranges go to 2^20 and huge levels are valid but uninteresting.
          const double hi = std::min(info.max_value, 4096.0);
          if (info.type == core::ParamType::kInt) {
            spec.params[info.name] = core::ParamValue::Int(rng.UniformInt(
                static_cast<int64_t>(info.min_value),
                static_cast<int64_t>(hi)));
          } else {
            spec.params[info.name] = core::ParamValue::Double(
                rng.UniformDouble(info.min_value, std::min(hi, 64.0)));
          }
        }
      }
      if (!spec.Validate().ok()) continue;  // e.g. floor > ceiling draws
      ++valid_trials;
      auto policy = core::MakePolicy(spec, env);
      ASSERT_TRUE(policy.ok()) << policy.status().ToString();
      const int flag = (*policy)->FlagLevel(env.k, env.n);
      for (int probe = 0; probe < 40; ++probe) {
        core::MaintenanceContext ctx;
        ctx.k = env.k;
        ctx.n = env.n;
        ctx.alive =
            flag + static_cast<int>(rng.UniformInt(0, 2 * env.n));
        ctx.partner_loss_rate = rng.UniformDouble(0.0, 50.0);
        ctx.rounds_since_repair = rng.UniformInt(0, 100'000);
        const auto decision = (*policy)->Evaluate(ctx);
        ASSERT_FALSE(decision.trigger)
            << spec.ToString() << " triggered at alive=" << ctx.alive
            << " >= FlagLevel=" << flag
            << " (loss_rate=" << ctx.partner_loss_rate << ")";
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
}

// --- Estimator registry: scores are monotone nondecreasing in age. ---
//
// Selection ranks candidates by estimator score with age refining ties; the
// paper's fidelity property ("the longer a node has been in the system, the
// more stable it will be considered") only survives the generalization if
// every estimator is monotone nondecreasing in age at fixed availability.
// Sweep every registered estimator under randomly drawn in-range parameters
// and random fixed availability: increasing age must never lower the score.

TEST(StrategyProperty, StabilityScoreMonotoneInAgeForEveryEstimator) {
  util::Rng rng(20260729);
  core::StrategyEnv env;  // acceptance_horizon = 90 days

  for (const core::EstimatorDescriptor& descriptor :
       core::Family<core::LifetimeEstimator>().strategies) {
    SCOPED_TRACE(descriptor.name);
    int valid_trials = 0;
    for (int trial = 0; trial < 200 && valid_trials < 50; ++trial) {
      core::EstimatorSpec spec;
      spec.name = descriptor.name;
      // Half the trials run pure defaults; the rest set every parameter to
      // a uniformly drawn in-range value (integer draws clamped to a
      // simulation-sized window, as in the policy property test).
      if (trial % 2 == 1) {
        for (const core::ParamInfo& info : descriptor.params) {
          const double hi = std::min(info.max_value, 4096.0);
          if (info.type == core::ParamType::kInt) {
            spec.params[info.name] = core::ParamValue::Int(rng.UniformInt(
                static_cast<int64_t>(info.min_value),
                static_cast<int64_t>(hi)));
          } else {
            spec.params[info.name] = core::ParamValue::Double(
                rng.UniformDouble(info.min_value, std::min(hi, 64.0)));
          }
        }
      }
      if (!spec.Validate().ok()) continue;
      ++valid_trials;
      auto estimator = core::MakeEstimator(spec, env);
      ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
      for (int probe = 0; probe < 20; ++probe) {
        core::PeerObservation obs;
        obs.availability = rng.UniformDouble(0.0, 1.0);
        double prev_score = -1.0;
        sim::Round age = 0;
        while (age < 400 * 24) {
          obs.age = age;
          const double score = (*estimator)->StabilityScore(obs);
          ASSERT_GE(score, 0.0) << spec.ToString() << " age=" << age;
          ASSERT_GE(score, prev_score)
              << spec.ToString() << " score dropped at age=" << age
              << " (availability=" << obs.availability << ")";
          prev_score = score;
          age += 1 + rng.UniformInt(0, 300);
        }
      }
    }
    EXPECT_GT(valid_trials, 0);
  }
}

// --- Estimator registry: age-only estimators ignore what they skip. ---
//
// An estimator whose reads_availability() is false is scored from an
// observation the monitor did not measure availability for (age-only
// scoring). That is only sound if its score really ignores the field, so
// sweep every such table row under drawn parameters: changing availability
// at fixed age must not move the score.

TEST(StrategyProperty, AgeOnlyEstimatorsIgnoreAvailability) {
  util::Rng rng(20261017);
  core::StrategyEnv env;
  int age_only = 0;
  for (const core::EstimatorDescriptor& descriptor :
       core::Family<core::LifetimeEstimator>().strategies) {
    SCOPED_TRACE(descriptor.name);
    core::EstimatorSpec spec;
    spec.name = descriptor.name;
    auto defaults = core::MakeEstimator(spec, env);
    ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
    if ((*defaults)->reads_availability()) continue;  // nothing to hold
    ++age_only;
    for (int trial = 0; trial < 50; ++trial) {
      if (trial % 2 == 1) {
        for (const core::ParamInfo& info : descriptor.params) {
          const double hi = std::min(info.max_value, 4096.0);
          if (info.type == core::ParamType::kInt) {
            spec.params[info.name] = core::ParamValue::Int(rng.UniformInt(
                static_cast<int64_t>(info.min_value),
                static_cast<int64_t>(hi)));
          } else {
            spec.params[info.name] = core::ParamValue::Double(
                rng.UniformDouble(info.min_value, std::min(hi, 64.0)));
          }
        }
      } else {
        spec.params.clear();
      }
      if (!spec.Validate().ok()) continue;
      auto estimator = core::MakeEstimator(spec, env);
      ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
      ASSERT_FALSE((*estimator)->reads_availability());
      for (int probe = 0; probe < 20; ++probe) {
        core::PeerObservation base;  // availability 0, as ObserveAge leaves it
        base.age = rng.UniformInt(0, 400 * 24);
        const double want = (*estimator)->StabilityScore(base);
        core::PeerObservation varied = base;
        varied.availability = rng.UniformDouble(0.0, 1.0);
        ASSERT_EQ((*estimator)->StabilityScore(varied), want)
            << spec.ToString() << " age=" << base.age
            << " availability=" << varied.availability;
      }
    }
  }
  // Only age-rank skips the window search.
  EXPECT_EQ(age_only, 1);
}

// --- Estimator registry: every row but age-rank changes a placement. ---
//
// Selection ranks by (score, age), so a row whose score never decreases
// with age places exactly as age-rank does: the same estimator under
// another name. Run every row against age-rank on a registered scenario
// under common random numbers (one sweep, one seed): each must change at
// least one placement, which shows as a different run report.

TEST(StrategyProperty, EveryEstimatorRowChangesAPlacement) {
  auto world = scenario::LoadScenario("paper");
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  sweep::SweepSpec spec;
  spec.base = *world;
  spec.base.peers = 400;
  spec.base.rounds = 3000;
  spec.base.seed = 7;
  for (const core::EstimatorDescriptor& descriptor :
       core::Family<core::LifetimeEstimator>().strategies) {
    spec.estimators.push_back(descriptor.name);
  }
  ASSERT_EQ(spec.estimators.front(), "age-rank");
  ASSERT_GT(spec.estimators.size(), 1u);

  sweep::RunnerOptions ropts;
  ropts.threads = 2;
  auto results = sweep::RunSweep(spec, ropts);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const metrics::RunReport& age_rank = results->front().outcome.report;
  for (size_t cell = 1; cell < results->size(); ++cell) {
    SCOPED_TRACE(spec.estimators[cell]);
    const metrics::RunReport& report = (*results)[cell].outcome.report;
    ASSERT_EQ(report.values().size(), age_rank.values().size());
    bool differs = false;
    for (size_t i = 0; i < report.values().size(); ++i) {
      const metrics::MetricValue& a = report.values()[i];
      const metrics::MetricValue& b = age_rank.values()[i];
      differs |= a.scalar != b.scalar || a.per_category != b.per_category;
    }
    EXPECT_TRUE(differs) << "every placement equals age-rank's";
  }
}

// --- Metrics: replicate moments stay inside the per-cell envelope. ---

TEST(MetricsProperty, AggregatedMeanLiesWithinCellRangeForEveryMetric) {
  // For every registered metric (scalar and per-category slots alike), the
  // replicate-aggregated mean of each grid point must lie within the
  // [min, max] of that group's per-cell values, and the stddev must be
  // finite and non-negative - over a small randomized sweep.
  auto world = scenario::LoadScenario(
      std::string(P2P_SOURCE_DIR) + "/tests/golden/sweep_small_world.scenario");
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  util::Rng rng(4242);
  sweep::SweepSpec spec;
  spec.base = *world;
  spec.base.rounds = 900;
  // Two random thresholds inside [k, k + m] = [16, 32].
  spec.repair_thresholds = {
      static_cast<int>(rng.UniformInt(16, 32)),
      static_cast<int>(rng.UniformInt(16, 32)),
  };
  spec.base.seed = rng.NextU64();
  spec.replicates = 3;
  for (const metrics::MetricDescriptor* d : metrics::ListMetrics()) {
    spec.metrics.push_back(d->name);
  }
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  auto results = sweep::RunSweep(spec, sweep::RunnerOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const sweep::SweepReport report = sweep::SweepReport::Build(spec, *results);

  for (const sweep::AggregateRow& agg : report.aggregates()) {
    // The group's cells, in cell order.
    std::vector<const sweep::CellRow*> rows;
    for (const sweep::CellRow& cell : report.cells()) {
      if (cell.group == agg.group) rows.push_back(&cell);
    }
    ASSERT_EQ(rows.size(), 3u);
    for (const sweep::MetricMoments& mm : agg.metrics) {
      SCOPED_TRACE(mm.descriptor->name);
      auto check_slot = [&](const sweep::Moments& m, auto value_of) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (const sweep::CellRow* row : rows) {
          const double v = value_of(*row);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        EXPECT_GE(m.mean, lo - 1e-9);
        EXPECT_LE(m.mean, hi + 1e-9);
        EXPECT_GE(m.stddev, 0.0);
        EXPECT_FALSE(std::isnan(m.stddev));
      };
      if (mm.descriptor->per_category) {
        for (size_t c = 0; c < metrics::kCategoryCount; ++c) {
          check_slot(mm.per_category[c], [&](const sweep::CellRow& row) {
            return row.report.PerCategory(mm.descriptor->name)[c];
          });
        }
      } else {
        check_slot(mm.scalar, [&](const sweep::CellRow& row) {
          return row.report.Scalar(mm.descriptor->name);
        });
      }
    }
  }
}

}  // namespace
}  // namespace p2p
