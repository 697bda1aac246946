// Tests for the scenario subsystem: token parsing (durations, lists),
// declarative populations, workload events, the key=value text round-trip
// (including a golden file), the registry, and the two refactor guarantees:
//  * the legacy paper/bernoulli/pareto mixes run byte-identically to direct
//    churn::ProfileSet construction (the pre-refactor RunScenario path);
//  * workload scenarios actually change the population at the scheduled
//    round, end to end through the parallel sweep runner.

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backup/network.h"
#include "churn/profile.h"
#include "scenario/parse.h"
#include "scenario/population.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "scenario/workload.h"
#include "sim/engine.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/flags.h"

namespace p2p {
namespace scenario {
namespace {

// ---------------------------------------------------------------- parsing

TEST(ParseTest, Durations) {
  auto rounds = [](const std::string& s) {
    auto r = ParseDuration(s);
    EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
    return r.ok() ? *r : -1;
  };
  EXPECT_EQ(rounds("0"), 0);
  EXPECT_EQ(rounds("36"), 36);
  EXPECT_EQ(rounds("36h"), 36);
  EXPECT_EQ(rounds("90d"), 90 * sim::kRoundsPerDay);
  EXPECT_EQ(rounds("2w"), 2 * sim::kRoundsPerWeek);
  EXPECT_EQ(rounds("3mo"), 3 * sim::kRoundsPerMonth);
  EXPECT_EQ(rounds("1y"), sim::kRoundsPerYear);
  EXPECT_EQ(rounds("1.5y"), sim::YearsToRounds(1.5));
  EXPECT_EQ(rounds(" 7d "), 7 * sim::kRoundsPerDay);

  // Errors name the offending token.
  auto bad = ParseDuration("90x");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("90x"), std::string::npos);
  EXPECT_FALSE(ParseDuration("").ok());
  EXPECT_FALSE(ParseDuration("-5d").ok());
  EXPECT_FALSE(ParseDuration("d").ok());
}

TEST(ParseTest, DurationRenderRoundTrips) {
  for (sim::Round r : {sim::Round{0}, sim::Round{1}, sim::Round{12},
                       sim::Round{24}, sim::Round{36}, sim::Round{168},
                       sim::Round{720}, sim::Round{2160}, sim::Round{8760},
                       sim::Round{13140}, sim::Round{18000},
                       sim::Round{50000}}) {
    const std::string text = RenderDuration(r);
    auto back = ParseDuration(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, r) << text;
  }
  EXPECT_EQ(RenderDuration(2160), "3mo");
  EXPECT_EQ(RenderDuration(2400), "100d");
  EXPECT_EQ(RenderDuration(13140), "13140");  // 1.5y: no unit divides it
}

TEST(ParseTest, DoubleRenderRoundTrips) {
  for (double v : {0.0, 0.1, 0.25, 0.35, 1.0 / 3.0, 2.0, 1.1, 1e-9, -3.75}) {
    const std::string text = RenderDouble(v);
    auto back = ParseDouble(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, v) << text;
  }
  EXPECT_EQ(RenderDouble(0.1), "0.1");
  EXPECT_EQ(RenderDouble(2.0), "2");
}

TEST(ParseTest, IntListParsesAndNamesOffendingToken) {
  std::vector<int> out;
  ASSERT_TRUE(ParseIntList("132,148,164", &out).ok());
  EXPECT_EQ(out, (std::vector<int>{132, 148, 164}));
  ASSERT_TRUE(ParseIntList("7", &out).ok());
  EXPECT_EQ(out, (std::vector<int>{7}));
  ASSERT_TRUE(ParseIntList("-4, 5", &out).ok());  // spaces tolerated
  EXPECT_EQ(out, (std::vector<int>{-4, 5}));

  EXPECT_TRUE(ParseIntList("", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseIntList("1,,2", &out).IsInvalidArgument());
  const util::Status bad = ParseIntList("132,14x,164", &out);
  EXPECT_TRUE(bad.IsInvalidArgument());
  // The message names the bad element and its position.
  EXPECT_NE(bad.message().find("'14x'"), std::string::npos);
  EXPECT_NE(bad.message().find("element 2"), std::string::npos);
  EXPECT_TRUE(ParseIntList("12cats", &out).IsInvalidArgument());
}

TEST(ParseTest, StringLists) {
  std::vector<std::string> out;
  ASSERT_TRUE(ParseStringList("paper, flash-crowd", &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"paper", "flash-crowd"}));
  EXPECT_TRUE(ParseStringList("a,,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseStringList("", &out).IsInvalidArgument());
}

TEST(ParseTest, SpecListsHonourBraces) {
  std::vector<std::string> out;
  ASSERT_TRUE(ParseSpecList(
                  "fixed-threshold{threshold=140}, "
                  "proactive{batch_blocks=8,emergency_threshold=136},random",
                  &out)
                  .ok());
  EXPECT_EQ(out, (std::vector<std::string>{
                     "fixed-threshold{threshold=140}",
                     "proactive{batch_blocks=8,emergency_threshold=136}",
                     "random"}));
  EXPECT_TRUE(ParseSpecList("a,,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("a{x=1,b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("a}b", &out).IsInvalidArgument());
  EXPECT_TRUE(ParseSpecList("", &out).IsInvalidArgument());
}

// ------------------------------------------------------------- population

TEST(PopulationTest, BuiltInsValidateAndCompile) {
  for (const PopulationSpec& spec :
       {PopulationSpec::Paper(), PopulationSpec::PaperBernoulli(),
        PopulationSpec::ParetoMix(720.0, 1.1), PopulationSpec::WeekendHeavy()}) {
    EXPECT_TRUE(spec.Validate().ok());
    EXPECT_TRUE(spec.Compile().ok());
  }
}

TEST(PopulationTest, RejectsBadSpecs) {
  PopulationSpec spec;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());  // empty

  spec = PopulationSpec::Paper();
  spec.profiles[0].proportion = 0.5;  // sum != 1
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[1].availability = 1.5;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[1].lifetime = LifetimeSpec::Uniform(100, 50);  // hi < lo
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = PopulationSpec::Paper();
  spec.profiles[2].lifetime = LifetimeSpec::Pareto(-1.0, 1.1);
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

// --------------------------------------------------------------- workload

TEST(WorkloadTest, EventValidation) {
  EXPECT_TRUE(WorkloadEvent::FlashCrowd(100, 0.5).Validate().ok());
  EXPECT_TRUE(WorkloadEvent::MassExit(100, 0.3).Validate().ok());
  EXPECT_TRUE(WorkloadEvent::Ramp(100, -0.5, 200).Validate().ok());

  EXPECT_FALSE(WorkloadEvent::FlashCrowd(0, 0.5).Validate().ok());  // round 0
  EXPECT_FALSE(WorkloadEvent::FlashCrowd(100, -0.5).Validate().ok());
  EXPECT_FALSE(WorkloadEvent::MassExit(100, 1.0).Validate().ok());
  EXPECT_FALSE(WorkloadEvent::Ramp(100, 0.5, 0).Validate().ok());
  WorkloadEvent e = WorkloadEvent::FlashCrowd(100, 0.5);
  e.duration = 10;  // duration only belongs to ramps
  EXPECT_FALSE(e.Validate().ok());
}

TEST(WorkloadTest, CompileResolvesFractionsAndSorts) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::MassExit(500, 0.25));
  schedule.events.push_back(WorkloadEvent::FlashCrowd(100, 0.5));
  auto compiled = CompileWorkload(schedule, 200);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->size(), 2u);
  EXPECT_EQ((*compiled)[0].at, 100);
  EXPECT_EQ((*compiled)[0].joins, 100u);  // 0.5 * 200
  EXPECT_EQ((*compiled)[1].at, 500);
  EXPECT_EQ((*compiled)[1].exits, 50u);  // 0.25 * 200
}

TEST(WorkloadTest, CompileSpreadsRampsExactly) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::Ramp(10, 1.0, 7));
  auto compiled = CompileWorkload(schedule, 100);
  ASSERT_TRUE(compiled.ok());
  int64_t total = 0;
  sim::Round prev = 0;
  for (const auto& adj : *compiled) {
    EXPECT_GE(adj.at, 10);
    EXPECT_LT(adj.at, 17);
    EXPECT_GE(adj.at, prev);
    prev = adj.at;
    total += adj.joins;
    EXPECT_EQ(adj.exits, 0u);
  }
  EXPECT_EQ(total, 100);  // the ramp delivers exactly fraction * peers
}

TEST(WorkloadTest, CompileRejectsPopulationUnderflow) {
  WorkloadSchedule schedule;
  schedule.events.push_back(WorkloadEvent::MassExit(100, 0.95));
  const auto compiled = CompileWorkload(schedule, 100);
  EXPECT_TRUE(compiled.status().IsInvalidArgument());
  EXPECT_NE(compiled.status().message().find("below"), std::string::npos);
}

// ------------------------------------------------- legacy mix equivalence

// Mirrors the pre-refactor sweep::RunScenario body: direct churn factory
// construction, no scenario layer. The refactor's contract is that the
// registry worlds reproduce these runs bit for bit at the same seed.
struct ReferenceOutcome {
  int64_t repairs = 0;
  int64_t losses = 0;
  int64_t blocks_uploaded = 0;
  int64_t departures = 0;
  int64_t timeouts = 0;
  std::array<double, metrics::kCategoryCount> repairs_per_1000_day{};
  std::array<double, metrics::kCategoryCount> losses_per_1000_day{};
  backup::BackupNetwork::PopulationStats population;
};

ReferenceOutcome RunReference(const churn::ProfileSet& profiles,
                              uint32_t peers, sim::Round rounds,
                              uint64_t seed) {
  sim::EngineOptions eopts;
  eopts.seed = seed;
  eopts.end_round = rounds;
  sim::Engine engine(eopts);
  backup::SystemOptions options;
  options.num_peers = peers;
  backup::BackupNetwork network(&engine, &profiles, options);
  engine.Run();
  ReferenceOutcome out;
  const metrics::Collector& collected = network.metrics();
  out.repairs = collected.repairs();
  out.losses = collected.losses();
  out.blocks_uploaded = collected.blocks_uploaded();
  out.departures = collected.departures();
  out.timeouts = collected.timeouts();
  for (int c = 0; c < metrics::kCategoryCount; ++c) {
    const auto cat = static_cast<metrics::AgeCategory>(c);
    out.repairs_per_1000_day[static_cast<size_t>(c)] =
        collected.accounting().RepairsPer1000PerDay(cat);
    out.losses_per_1000_day[static_cast<size_t>(c)] =
        collected.accounting().LossesPer1000PerDay(cat);
  }
  out.population = network.ComputePopulationStats();
  return out;
}

TEST(LegacyMixTest, RegistryWorldsMatchDirectProfileSetRuns) {
  struct Case {
    const char* scenario_name;
    churn::ProfileSet profiles;
  };
  const Case cases[] = {
      {"paper", churn::ProfileSet::Paper()},
      {"bernoulli", churn::ProfileSet::PaperBernoulli()},
      {"pareto", churn::ProfileSet::ParetoMix(sim::MonthsToRounds(1), 1.1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.scenario_name);
    auto world = FindScenario(c.scenario_name);
    ASSERT_TRUE(world.ok());
    world->peers = 120;
    world->rounds = 400;
    world->seed = 7;
    const Outcome via_scenario = RunScenario(*world);
    const ReferenceOutcome reference =
        RunReference(c.profiles, 120, 400, 7);

    EXPECT_EQ(via_scenario.report.Count("repairs"), reference.repairs);
    EXPECT_EQ(via_scenario.report.Count("losses"), reference.losses);
    EXPECT_EQ(via_scenario.report.Count("blocks_uploaded"),
              reference.blocks_uploaded);
    EXPECT_EQ(via_scenario.report.Count("departures"), reference.departures);
    EXPECT_EQ(via_scenario.report.Count("timeouts"), reference.timeouts);
    for (int cat = 0; cat < metrics::kCategoryCount; ++cat) {
      const auto i = static_cast<size_t>(cat);
      // Bitwise equality: the runs must draw identical random sequences.
      EXPECT_EQ(via_scenario.report.PerCategory("repairs_1k_day")[i],
                reference.repairs_per_1000_day[i]);
      EXPECT_EQ(via_scenario.report.PerCategory("losses_1k_day")[i],
                reference.losses_per_1000_day[i]);
    }
    EXPECT_EQ(via_scenario.population.mean_partners,
              reference.population.mean_partners);
    EXPECT_EQ(via_scenario.population.mean_hosted,
              reference.population.mean_hosted);
    EXPECT_EQ(via_scenario.population.backed_up,
              reference.population.backed_up);
    EXPECT_EQ(via_scenario.final_population, 120);
  }
}

// ---------------------------------------------------------- text format

TEST(TextTest, EveryRegistryEntryRoundTripsExactly) {
  for (const std::string& name : RegistryNames()) {
    SCOPED_TRACE(name);
    auto original = FindScenario(name);
    ASSERT_TRUE(original.ok());
    const std::string text = RenderScenarioText(*original);
    auto reparsed = ParseScenarioText(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(*reparsed == *original) << text;
    // Render is canonical: a second round trip is a fixed point.
    EXPECT_EQ(RenderScenarioText(*reparsed), text);
  }
}

TEST(TextTest, GoldenFlashCrowdFile) {
  const std::string path =
      std::string(P2P_SOURCE_DIR) + "/tests/golden/flash_crowd.scenario";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto registry = FindScenario("flash-crowd");
  ASSERT_TRUE(registry.ok());
  // The checked-in file is the canonical render of the registry entry...
  EXPECT_EQ(RenderScenarioText(*registry), buffer.str());
  // ...and parses back to exactly that scenario.
  auto parsed = ParseScenarioText(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == *registry);
}

TEST(TextTest, PartialFilesKeepDefaults) {
  auto parsed = ParseScenarioText(
      "# tiny world\n"
      "name = tiny\n"
      "peers = 64\n"
      "rounds = 10d\n"
      "options.repair_threshold = 132\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, "tiny");
  EXPECT_EQ(parsed->peers, 64u);
  EXPECT_EQ(parsed->rounds, 240);
  EXPECT_EQ(parsed->options.repair_threshold, 132);
  EXPECT_EQ(parsed->seed, 42u);  // default kept
  EXPECT_TRUE(parsed->population == PopulationSpec::Paper());
  EXPECT_TRUE(parsed->workload.empty());
}

TEST(TextTest, ErrorsNameLineAndToken) {
  // Each malformed input fails with InvalidArgument, and the message holds
  // every listed fragment: the line, the key, the offending token.
  const struct {
    const char* text;
    std::vector<std::string> fragments;
  } kCases[] = {
      {"name = x\npeers = lots\n", {"line 2", "lots"}},
      {"name = x\nnonsense.key = 1\n", {"unknown key"}},
      {"name = x\nseed = 1\nseed = 2\n", {"duplicate"}},
      {"peers = 100\n", {"name"}},
      {"name = x\nprofile.0.name = solo\nprofile.0.proportion = 1\n"
       "profile.0.availability = 0.5\n",
       {"lifetime"}},
      {"name = x\nevent.0.kind = comet\n", {"comet"}},
      {"name = x\noptions.visibility = psychic\n", {"psychic"}},
      // Strategy specs: unknown names and bad parameters fail loudly,
      // naming the token.
      {"name = x\noptions.policy = psychic-repair\n", {"psychic-repair"}},
      {"name = x\noptions.selection = oldest\n", {"oldest"}},
      {"name = x\noptions.policy = proactive{batch_blocks=none}\n",
       {"none"}},
      {"name = x\noptions.estimator = crystal-ball\n", {"crystal-ball"}},
      {"name = x\noptions.estimator = age-rank{horizon=forever}\n",
       {"forever"}},
      // Deleted estimator rows (they placed exactly as age-rank did).
      {"name = x\noptions.estimator = pareto-residual\n",
       {"line 2", "pareto-residual"}},
      {"name = x\noptions.estimator = empirical-residual{buckets=5}\n",
       {"line 2", "empirical-residual"}},
      // Integer options outside int range are rejected, not wrapped.
      {"name = x\noptions.k = 4294967424\n",
       {"line 2", "options.k", "4294967424"}},
      {"name = x\noptions.m = 4294967424\n",
       {"line 2", "options.m", "4294967424"}},
      {"name = x\noptions.quota_blocks = 3000000000\n",
       {"line 2", "options.quota_blocks", "3000000000"}},
      {"name = x\noptions.repair_threshold = -2147483649\n",
       {"line 2", "options.repair_threshold", "-2147483649"}},
      // Deleted knobs: the scenario text naming them is rejected.
      {"name = x\noptions.max_partner_factor = 2\n",
       {"line 2", "unknown option", "max_partner_factor"}},
      {"name = x\noptions.pool_factor = 3\n",
       {"line 2", "unknown option", "pool_factor"}},
      {"name = x\noptions.sample_attempt_factor = 8\n",
       {"line 2", "unknown option", "sample_attempt_factor"}},
      {"name = x\noptions.max_blocks_per_round = 0\n",
       {"line 2", "unknown option", "max_blocks_per_round"}},
      {"name = x\noptions.loss_rate_tau = 2w\n",
       {"line 2", "unknown option", "loss_rate_tau"}},
      {"name = x\noptions.sample_interval = 1d\n",
       {"line 2", "unknown option", "sample_interval"}},
      {"name = x\ntransfer.enabled = true\n",
       {"line 2", "unknown key", "transfer.enabled"}},
      // Run length and the delays that share its bound (4294967295 rounds):
      // past it a round no longer fits where the network stores it, and
      // "now + delay" could overflow.
      {"name = x\nrounds = 4294967296\n", {"rounds", "4294967296"}},
      {"name = x\noptions.partner_timeout = 9223372036854775807\n",
       {"partner_timeout", "9223372036854775807"}},
      {"name = x\noptions.departure_grace = 9223372036854775807\n",
       {"departure_grace", "9223372036854775807"}},
  };
  for (const auto& c : kCases) {
    const auto bad = ParseScenarioText(c.text);
    if (bad.ok()) {
      ADD_FAILURE() << "accepted: " << c.text;
      continue;
    }
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << c.text;
    for (const std::string& fragment : c.fragments) {
      EXPECT_NE(bad.status().message().find(fragment), std::string::npos)
          << c.text << " -> " << bad.status().message();
    }
  }
}

TEST(TextTest, ObserversPastTheNetworkLimitFailValidation) {
  // observer.0 ... observer.<limit> is one observer more than a network
  // holds: an error naming the first key past the limit, not an abort.
  const uint32_t limit = backup::BackupNetwork::kMaxObservers;
  std::string text = "name = crowded\npeers = 64\nrounds = 48\n";
  for (uint32_t i = 0; i <= limit; ++i) {
    const std::string prefix = "observer." + std::to_string(i) + ".";
    text += prefix + "name = o" + std::to_string(i) + "\n";
    text += prefix + "age = " + std::to_string(i) + "d\n";
  }
  const auto crowded = ParseScenarioText(text);
  ASSERT_FALSE(crowded.ok());
  EXPECT_TRUE(crowded.status().IsInvalidArgument());
  EXPECT_NE(crowded.status().message().find(
                "observer." + std::to_string(limit) + ":"),
            std::string::npos)
      << crowded.status().message();

  // Exactly the limit validates and runs.
  const size_t last = text.find("observer." + std::to_string(limit) + ".");
  const auto full = ParseScenarioText(text.substr(0, last));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->observers.size(), limit);
  EXPECT_EQ(RunScenario(*full).observers.size(), limit);
}

TEST(TextTest, ParameterizedStrategySpecsRoundTrip) {
  auto parsed = ParseScenarioText(
      "name = strategies\n"
      "options.policy = adaptive-redundancy{safety_factor=4,min_extra=16}\n"
      "options.selection = weighted-random{age_exponent=2}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->options.policy.name, "adaptive-redundancy");
  EXPECT_EQ(parsed->options.policy.params.at("safety_factor"),
            core::ParamValue::Double(4.0));
  EXPECT_EQ(parsed->options.policy.params.at("min_extra"),
            core::ParamValue::Int(16));
  EXPECT_EQ(parsed->options.selection.ToString(),
            "weighted-random{age_exponent=2}");

  const std::string text = RenderScenarioText(*parsed);
  auto reparsed = ParseScenarioText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == *parsed);
  EXPECT_EQ(RenderScenarioText(*reparsed), text);
}

TEST(TextTest, MetricSelectionRoundTripsAndValidates) {
  auto parsed = ParseScenarioText(
      "name = probes\n"
      "metrics.select = repairs,losses,repair_bandwidth,time_to_repair_mean\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metrics,
            (std::vector<std::string>{"repairs", "losses", "repair_bandwidth",
                                      "time_to_repair_mean"}));
  const std::string text = RenderScenarioText(*parsed);
  EXPECT_NE(text.find("metrics.select = repairs,losses,repair_bandwidth,"
                      "time_to_repair_mean"),
            std::string::npos);
  auto reparsed = ParseScenarioText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == *parsed);
  EXPECT_EQ(RenderScenarioText(*reparsed), text);

  // A default-selection scenario renders with no metrics.select line at all.
  Scenario plain;
  EXPECT_EQ(RenderScenarioText(plain).find("metrics.select"),
            std::string::npos);

  // Unknown and duplicate probe names fail loudly, naming the token.
  auto bad = ParseScenarioText("name = x\nmetrics.select = repairs,psychic\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("psychic"), std::string::npos);
  bad = ParseScenarioText("name = x\nmetrics.select = repairs,repairs\n");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("duplicate"), std::string::npos);
}

TEST(TextTest, GoldenParameterizedStrategiesFile) {
  const std::string path = std::string(P2P_SOURCE_DIR) +
                           "/tests/golden/parameterized_strategies.scenario";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto parsed = ParseScenarioText(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The checked-in file is canonical: render reproduces it byte for byte.
  EXPECT_EQ(RenderScenarioText(*parsed), buffer.str());

  // The strategy specs survive with their exact parameters.
  core::PolicySpec policy;
  policy.name = "proactive";
  policy.params["batch_blocks"] = core::ParamValue::Int(4);
  policy.params["emergency_threshold"] = core::ParamValue::Int(136);
  EXPECT_TRUE(parsed->options.policy == policy);

  core::SelectionSpec selection;
  selection.name = "weighted-random";
  selection.params["age_exponent"] = core::ParamValue::Double(2.5);
  EXPECT_TRUE(parsed->options.selection == selection);

  core::EstimatorSpec estimator;
  estimator.name = "availability-weighted";
  estimator.params["exponent"] = core::ParamValue::Double(1.5);
  EXPECT_TRUE(parsed->options.estimator == estimator);

  // And the scenario actually runs with them.
  Scenario s = *parsed;
  s.peers = 120;
  s.rounds = 200;
  RunOptions run;
  run.check_invariants = true;
  const Outcome out = RunScenario(s, run);
  EXPECT_GT(out.report.Count("repairs"), 0);
}

// ----------------------------------------------------- registry and flags

TEST(RegistryTest, HasTheAdvertisedEntriesAndTheyValidate) {
  const std::vector<std::string> names = RegistryNames();
  EXPECT_GE(names.size(), 6u);
  for (const char* expected :
       {"paper", "bernoulli", "pareto", "flash-crowd", "mass-exit", "growing",
        "weekend-heavy"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto s = FindScenario(name);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->name, name);
    EXPECT_TRUE(s->Validate().ok()) << s->Validate().ToString();
  }
  EXPECT_TRUE(FindScenario("nope").status().IsNotFound());
  // Unknown bare names do not fall through to the filesystem.
  EXPECT_TRUE(LoadScenario("nope").status().IsNotFound());
}

TEST(RegistryTest, ApplyWorldSwapsWorldOnly) {
  auto world = FindScenario("weekend-heavy");
  ASSERT_TRUE(world.ok());
  Scenario base;
  base.peers = 333;
  base.rounds = 777;
  base.seed = 5;
  base.options.repair_threshold = 140;
  ApplyWorld(*world, &base);
  EXPECT_EQ(base.name, "weekend-heavy");
  EXPECT_TRUE(base.population == world->population);
  EXPECT_EQ(base.peers, 333u);
  EXPECT_EQ(base.rounds, 777);
  EXPECT_EQ(base.seed, 5u);
  EXPECT_EQ(base.options.repair_threshold, 140);
}

TEST(RegistryTest, ScenarioFlagsApplyOrder) {
  Scenario s;
  s.rounds = 999;  // base value, distinguishable from the scenario's 18000
  s.options.repair_threshold = 140;
  s.observers.emplace_back("probe", 7);
  util::FlagSet flags;
  ScenarioFlags scenario_flags;
  scenario_flags.Register(&flags);
  const char* argv[] = {"prog", "--scenario=mass-exit", "--peers=640",
                        "--seed=9"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  ASSERT_TRUE(scenario_flags.Apply(&s).ok());
  EXPECT_EQ(s.name, "mass-exit");
  EXPECT_EQ(s.workload.events.size(), 1u);
  EXPECT_EQ(s.peers, 640u);  // explicit scale beats the loaded scenario
  EXPECT_EQ(s.seed, 9u);
  // The scenario replaces the configuration wholesale: its rounds and
  // options win over base values (every key of a file is honoured)...
  EXPECT_EQ(s.rounds, 18'000);
  EXPECT_EQ(s.options.repair_threshold, 148);
  // ...except the base observer list, kept when the scenario has none.
  ASSERT_EQ(s.observers.size(), 1u);
  EXPECT_EQ(s.observers[0].first, "probe");

  Scenario bad;
  util::FlagSet flags2;
  ScenarioFlags scenario_flags2;
  scenario_flags2.Register(&flags2);
  const char* argv2[] = {"prog", "--scenario=missing-world"};
  ASSERT_TRUE(flags2.Parse(2, const_cast<char**>(argv2)).ok());
  EXPECT_FALSE(scenario_flags2.Apply(&bad).ok());
}

TEST(RegistryTest, ScaleFlagsRejectValuesTheScenarioCannotHold) {
  // Each bad value is an error naming its flag, never a silent default or a
  // narrowing wrap (4294967312 = 2^32 + 16 must not become 16 peers).
  struct Case {
    const char* arg;
    const char* flag;
  };
  const Case kBad[] = {
      {"--peers=-5", "--peers"},          {"--peers=4294967296", "--peers"},
      {"--peers=4294967312", "--peers"},  {"--rounds=-7", "--rounds"},
      {"--rounds=-1", "--rounds"},        {"--rounds=4294967296", "--rounds"},
      {"--seed=-2", "--seed"},
  };
  for (const Case& c : kBad) {
    SCOPED_TRACE(c.arg);
    Scenario s;
    util::FlagSet flags;
    ScenarioFlags scenario_flags;
    scenario_flags.Register(&flags);
    const char* argv[] = {"prog", c.arg};
    ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
    const util::Status st = scenario_flags.Apply(&s);
    EXPECT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find(c.flag), std::string::npos) << st.ToString();
  }

  // The documented "keep default" values and the extremes of the valid
  // ranges still apply.
  struct Good {
    int64_t peers, rounds, seed;
    uint32_t want_peers;
    sim::Round want_rounds;
    uint64_t want_seed;
  };
  const Scenario base;
  const Good kGood[] = {
      {0, 0, -1, base.peers, base.rounds, base.seed},
      {UINT32_MAX, 1, 0, UINT32_MAX, 1, 0},
      {16, sim::kMaxRunRounds, INT64_MAX, 16, sim::kMaxRunRounds,
       static_cast<uint64_t>(INT64_MAX)},
  };
  for (const Good& g : kGood) {
    Scenario s;
    ASSERT_TRUE(ApplyScaleFlags(g.peers, g.rounds, g.seed, &s).ok());
    EXPECT_EQ(s.peers, g.want_peers);
    EXPECT_EQ(s.rounds, g.want_rounds);
    EXPECT_EQ(s.seed, g.want_seed);
  }

  // A rejected override leaves the scenario untouched.
  Scenario s;
  s.peers = 77;
  EXPECT_FALSE(ApplyScaleFlags(100, -7, -1, &s).ok());
  EXPECT_EQ(s.peers, 77u);
}

// ------------------------------------------- workload events end to end

TEST(WorkloadRunTest, FlashCrowdGrowsThePopulationAtTheScheduledRound) {
  auto s = FindScenario("flash-crowd");
  ASSERT_TRUE(s.ok());
  s->peers = 120;
  s->rounds = 400;
  s->workload.events[0] = WorkloadEvent::FlashCrowd(50, 0.5);
  ASSERT_TRUE(s->Validate().ok());

  sim::EngineOptions eopts;
  eopts.seed = s->seed;
  eopts.end_round = s->rounds;
  sim::Engine engine(eopts);
  auto profiles = s->population.Compile();
  ASSERT_TRUE(profiles.ok());
  auto workload = CompileWorkload(s->workload, s->peers);
  ASSERT_TRUE(workload.ok());
  backup::SystemOptions opts = s->options;
  opts.num_peers = s->peers;
  backup::BackupNetwork network(&engine, &*profiles, opts,
                                std::move(*workload));

  while (engine.now() < 50) {
    ASSERT_TRUE(engine.Step());
    EXPECT_EQ(network.LivePopulation(), 120);
  }
  ASSERT_TRUE(engine.Step());  // executes round 50: the join wave
  EXPECT_EQ(network.LivePopulation(), 180);
  network.CheckInvariants();
  while (engine.Step()) {
  }
  EXPECT_EQ(network.LivePopulation(), 180);
  network.CheckInvariants();
  // The wave members are real peers: they own and host partnerships. (At
  // this tiny scale nobody reaches the full n=256 distinct partners, so
  // "backed_up" is not the right signal - participation is.)
  int64_t wave_partnerships = 0;
  for (backup::PeerId id = 120; id < 180; ++id) {
    wave_partnerships += network.AliveBlocks(id) + network.HostedBlocks(id);
  }
  EXPECT_GT(wave_partnerships, 0);
}

TEST(WorkloadRunTest, MassExitShrinksAndGrowingRampGrows) {
  auto exit_world = FindScenario("mass-exit");
  ASSERT_TRUE(exit_world.ok());
  exit_world->peers = 120;
  exit_world->rounds = 300;
  exit_world->workload.events[0] = WorkloadEvent::MassExit(60, 0.3);
  const Outcome exited = RunScenario(*exit_world);
  EXPECT_EQ(exited.final_population, 120 - 36);
  // 36 correlated departures show up in the departure counter...
  EXPECT_GE(exited.report.Count("departures"), 36);
  // ...and the registry-derived population probe agrees with the live count.
  EXPECT_EQ(exited.report.Count("final_population"), 120 - 36);

  auto grow_world = FindScenario("growing");
  ASSERT_TRUE(grow_world.ok());
  grow_world->peers = 120;
  grow_world->rounds = 300;
  grow_world->workload.events[0] = WorkloadEvent::Ramp(60, 1.0, 100);
  const Outcome grown = RunScenario(*grow_world);
  EXPECT_EQ(grown.final_population, 240);
}

TEST(WorkloadRunTest, FlashCrowdRunsThroughTheParallelSweepRunner) {
  // Acceptance: a workload-event scenario end to end through RunSweep.
  sweep::SweepSpec spec;
  spec.base.peers = 120;
  spec.base.rounds = 2'600;  // past day 100: the registry wave fires
  spec.scenarios = {"flash-crowd"};
  sweep::RunnerOptions ropts;
  ropts.threads = 2;
  auto results = sweep::RunSweep(spec, ropts);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].outcome.final_population, 180);
}

}  // namespace
}  // namespace scenario
}  // namespace p2p
