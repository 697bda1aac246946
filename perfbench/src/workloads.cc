#include "workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "backup/options.h"
#include "scenario/population.h"
#include "scenario/registry.h"
#include "scenario/workload.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using p2p::scenario::Scenario;
namespace util = p2p::util;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

util::Result<Scenario> Registered(const char* name, uint32_t peers,
                                  p2p::sim::Round rounds, uint64_t seed) {
  util::Result<Scenario> s = p2p::scenario::FindScenario(name);
  if (!s.ok()) return s.status();
  s->peers = peers;
  s->rounds = rounds;
  s->seed = seed;
  return s;
}

// paper-25k: the paper's population in timeout visibility, from the round-0
// placement storm into the steady state.
util::Result<Workload> Paper25k(uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  util::Result<Scenario> s =
      Registered("paper", full ? 25'000 : 400, full ? 1'200 : 120, seed);
  if (!s.ok()) return s.status();
  Workload w;
  w.worlds.push_back(std::move(*s));
  return w;
}

// fig1-sweep-1500: the Figure-1 threshold grid at laptop scale, every cell
// through sweep::RunSweep on two workers.
util::Result<Workload> Fig1Sweep1500(uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  util::Result<Scenario> base =
      Registered("paper", full ? 1'500 : 200, full ? 4'800 : 300, seed);
  if (!base.ok()) return base.status();
  Workload w;
  w.sweep = true;
  w.threads = 2;
  w.spec.base = std::move(*base);
  w.spec.repair_thresholds = {132, 148, 164, 180};
  util::Result<std::vector<p2p::sweep::Cell>> cells = w.spec.Expand();
  if (!cells.ok()) return cells.status();
  w.cells = std::move(*cells);
  for (const p2p::sweep::Cell& cell : w.cells) w.worlds.push_back(cell.scenario);
  return w;
}

// instant-dsl-5k: the flash-crowd-dsl world in instant visibility, run past
// the day-100 join wave so the transfer queue fills.
util::Result<Workload> InstantDsl5k(uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  util::Result<Scenario> s = Registered("flash-crowd-dsl", full ? 5'000 : 200,
                                        full ? 3'000 : 2'450, seed);
  if (!s.ok()) return s.status();
  s->options.visibility = p2p::backup::VisibilityModel::kInstantOnline;
  Workload w;
  w.worlds.push_back(std::move(*s));
  return w;
}

struct Entry {
  const char* name;
  util::Result<Workload> (*make)(uint64_t, Scale);
};

constexpr Entry kWorkloads[] = {
    {"paper-25k", Paper25k},
    {"fig1-sweep-1500", Fig1Sweep1500},
    {"instant-dsl-5k", InstantDsl5k},
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Entry& e : kWorkloads) names.push_back(e.name);
  return names;
}

util::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                    Scale scale) {
  for (const Entry& e : kWorkloads) {
    if (name != e.name) continue;
    util::Result<Workload> w = e.make(seed, scale);
    if (!w.ok()) return w.status();
    w->name = name;
    for (const Scenario& s : w->worlds) {
      if (util::Status valid = s.Validate(); !valid.ok()) return valid;
    }
    return w;
  }
  return util::Status::NotFound("no workload named '" + name + "'");
}

std::unique_ptr<World> BuildWorld(const Scenario& scenario) {
  auto world = std::make_unique<World>();
  world->scenario = scenario;
  std::vector<p2p::backup::PopulationAdjustment> adjustments;
  const auto t0 = std::chrono::steady_clock::now();
  {
    TRACE_SCOPE_CAT("bench/compile", "bench");
    util::Result<p2p::churn::ProfileSet> profiles =
        scenario.population.Compile();
    util::Result<std::vector<p2p::backup::PopulationAdjustment>> workload =
        p2p::scenario::CompileWorkload(scenario.workload, scenario.peers);
    P2P_CHECK(profiles.ok() && workload.ok());
    world->profiles =
        std::make_unique<p2p::churn::ProfileSet>(std::move(*profiles));
    adjustments = std::move(*workload);
  }
  const auto t1 = std::chrono::steady_clock::now();
  {
    TRACE_SCOPE_CAT("bench/construct", "bench");
    p2p::sim::EngineOptions eopts;
    eopts.seed = scenario.seed;
    eopts.end_round = scenario.rounds;
    world->engine = std::make_unique<p2p::sim::Engine>(eopts);
    p2p::backup::SystemOptions options = scenario.options;
    options.num_peers = scenario.peers;
    world->network = std::make_unique<p2p::backup::BackupNetwork>(
        world->engine.get(), world->profiles.get(), options,
        std::move(adjustments));
    for (const auto& [name, age] : scenario.observers) {
      world->network->AddObserver(name, age);
    }
  }
  const auto t2 = std::chrono::steady_clock::now();
  world->compile_s = Seconds(t0, t1);
  world->construct_s = Seconds(t1, t2);
  return world;
}

std::string Digest::Hash() const {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : csv) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Digest DigestOf(const Scenario& scenario,
                const p2p::metrics::RunReport& report) {
  // A one-cell sweep with no active axis: the default per-cell emitter
  // renders exactly the world's seed and report.
  p2p::sweep::SweepSpec spec;
  spec.base = scenario;
  std::vector<p2p::sweep::CellResult> results(1);
  results[0].cell.scenario = scenario;
  results[0].outcome.report = report;
  Digest d;
  d.csv = SweepCsv(spec, results);
  d.repairs = report.Count("repairs");
  d.losses = report.Count("losses");
  d.final_population = report.Count("final_population");
  return d;
}

std::string SweepCsv(const p2p::sweep::SweepSpec& spec,
                     const std::vector<p2p::sweep::CellResult>& results) {
  std::ostringstream os;
  p2p::sweep::SweepReport::Build(spec, results).WriteCellsCsv(os);
  return os.str();
}

int64_t PeakResidentBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux: kB
}

}  // namespace perfbench
