#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "backup/hotpath_probe.h"
#include "core/strategy_registry.h"
#include "stats.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace trace = p2p::trace;

// The phase tree below the step root, as the round loop nests its spans.
// `parent == nullptr` marks a direct child of the root. Each phase's self
// time is charged to `layer`.
struct Phase {
  const char* name;
  const char* parent;
  const char* layer;
};

constexpr const char* kRootLayer = "sim.unattributed_s";

constexpr Phase kPhases[] = {
    {"round", nullptr, "sim.unattributed_s"},
    {"round/adjustments", "round", "backup.adjust_s"},
    {"round/churn", "round", "backup.churn_s"},
    {"round/transfers", "round", "transfer.tick_s"},
    {"round/repairs", "round", "backup.repair_self_s"},
    {"round/tick", "round", "metrics.tick_s"},
    {"repair/run", "round/repairs", "backup.repair_self_s"},
    {"repair/evaluate", "repair/run", "backup.evaluate_s"},
    {"repair/place", "repair/run", "backup.place_self_s"},
    {"transfer/enqueue", "repair/run", "transfer.tick_s"},
    {"repair/pool", "repair/place", "backup.pool_s"},
    {"repair/score", "repair/pool", "backup.score_s"},
    {"transfer/tick", "round/transfers", "transfer.tick_s"},
    {"transfer/complete", "round/transfers", "transfer.tick_s"},
};

// Spans that enclose the step root or run outside it; they are not layers.
const std::set<std::string>& OuterPhases() {
  static const std::set<std::string> kOuter = {
      "bench/step",     "bench/compile",   "bench/construct",
      "bench/report",   "bench/sweep",     "scenario/run",
      "scenario/setup", "scenario/rounds", "scenario/report",
      "sweep/run",      "sweep/cell"};
  return kOuter;
}

// "category/name depth=D count=N" -> ("category/name", D) per line.
std::map<std::string, std::set<uint32_t>> Depths(
    const trace::TraceSession& session) {
  std::map<std::string, std::set<uint32_t>> depths;
  for (const std::string& line : session.StructureSignature()) {
    const size_t at = line.rfind(" depth=");
    if (at == std::string::npos) continue;
    depths[line.substr(0, at)].insert(
        static_cast<uint32_t>(std::stoul(line.substr(at + 7))));
  }
  return depths;
}

// Repeats `pass` (which returns nanoseconds per operation) until at least
// `min_passes` ran and `budget_ns` of wall time went by; returns the median.
template <typename Pass>
double MedianOfPasses(Pass pass, int min_passes, uint64_t budget_ns) {
  std::vector<double> per_op;
  const uint64_t start = trace::NowNanos();
  while (static_cast<int>(per_op.size()) < min_passes ||
         trace::NowNanos() - start < budget_ns) {
    per_op.push_back(pass());
  }
  return Median(std::move(per_op));
}

}  // namespace

int64_t ExclusiveTable::Count(const std::string& name) const {
  auto it = phases.find(name);
  return it == phases.end() ? 0 : it->second.count;
}

double ExclusiveTable::TotalSeconds(const std::string& name) const {
  auto it = phases.find(name);
  return it == phases.end() ? 0.0
                            : static_cast<double>(it->second.total_ns) * 1e-9;
}

const std::vector<std::string>& ExclusiveLayerNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {kRootLayer};
    for (const Phase& p : kPhases) {
      if (std::find(names.begin(), names.end(), p.layer) == names.end()) {
        names.push_back(p.layer);
      }
    }
    return names;
  }();
  return kNames;
}

ExclusiveTable ComputeExclusive(const trace::TraceSession& session,
                                const std::string& root) {
  ExclusiveTable t;
  for (trace::PhaseStat& p : session.PhaseStats()) {
    std::string name = p.name;
    t.phases.emplace(std::move(name), std::move(p));
  }
  for (const std::string& layer : ExclusiveLayerNames()) t.layer_ns[layer] = 0;
  auto root_it = t.phases.find(root);
  if (root_it == t.phases.end()) {
    t.error = "no span named " + root;
    return t;
  }
  t.step_ns = root_it->second.total_ns;

  // Self time = own total minus the totals of the direct children. Every
  // phase's total is added once (to itself) and subtracted once (from its
  // parent), so the self times sum to the root's total as long as every
  // parent is present and none comes out negative; both are checked.
  std::map<std::string, int64_t> self;
  self[root] = static_cast<int64_t>(t.step_ns);
  for (const Phase& p : kPhases) {
    auto it = t.phases.find(p.name);
    if (it == t.phases.end()) continue;
    const std::string parent = p.parent == nullptr ? root : p.parent;
    if (t.phases.count(parent) == 0 && t.error.empty()) {
      t.error = std::string("phase ") + p.name + " recorded without " + parent;
    }
    const int64_t total = static_cast<int64_t>(it->second.total_ns);
    self[p.name] += total;
    self[parent] -= total;
  }
  auto charge = [&](const std::string& name, const char* layer) {
    const int64_t ns = self[name];
    if (ns < 0 && t.error.empty()) {
      t.error = "negative self time for " + name;
    }
    t.layer_ns[layer] += static_cast<uint64_t>(std::max<int64_t>(ns, 0));
  };
  charge(root, kRootLayer);
  for (const Phase& p : kPhases) {
    if (t.phases.count(p.name) != 0) charge(p.name, p.layer);
  }

  // The tree must match how the program nests its spans: each phase at one
  // depth, one level below its parent (depths are comparable within one
  // span category).
  const auto depths = Depths(session);
  auto key = [&](const std::string& name) {
    return t.phases.at(name).category + "/" + name;
  };
  for (const Phase& p : kPhases) {
    if (t.phases.count(p.name) == 0 || !t.error.empty()) continue;
    const std::string parent = p.parent == nullptr ? root : p.parent;
    const auto& child_d = depths.at(key(p.name));
    if (child_d.size() != 1) {
      t.error = std::string("phase ") + p.name + " recorded at several depths";
    } else if (t.phases.count(parent) != 0 &&
               t.phases.at(parent).category == t.phases.at(p.name).category) {
      const auto& parent_d = depths.at(key(parent));
      if (parent_d.size() != 1 || *parent_d.begin() + 1 != *child_d.begin()) {
        t.error = std::string("phase ") + p.name + " is not nested in " +
                  parent;
      }
    }
  }
  for (const auto& [name, stat] : t.phases) {
    const bool mapped =
        std::any_of(std::begin(kPhases), std::end(kPhases),
                    [&](const Phase& p) { return name == p.name; });
    if (!mapped && OuterPhases().count(name) == 0) {
      std::fprintf(stderr,
                   "perfbench: phase %s is not in the layer map; its time "
                   "stays in its parent's self time\n",
                   name.c_str());
    }
  }
  return t;
}

ReplayResult RunReplays(p2p::backup::BackupNetwork* network,
                        p2p::sim::Round now, uint64_t seed) {
  namespace core = p2p::core;
  constexpr int kPools = 64;
  constexpr int kMinPasses = 5;
  constexpr uint64_t kBudgetNs = 300'000'000;  // per replay

  ReplayResult r;
  const p2p::backup::SystemOptions& options = network->options();
  // A threshold repair restores the blocks between the trigger level and n.
  const int needed = options.k + options.m - options.repair_threshold;
  const std::vector<uint32_t> live = network->candidate_index();
  if (live.empty()) return r;

  // Capture: pools of owners drawn from the live peers, built by the
  // repair path's own sampler.
  p2p::backup::HotPathProbe probe(network);
  p2p::util::Rng pick(seed ^ 0x7265706c6179ull);
  std::vector<std::vector<core::Candidate>> pools;
  for (int i = 0; i < kPools; ++i) {
    const uint32_t owner = live[pick.UniformBounded(live.size())];
    if (probe.BuildPool(owner, needed) > 0) {
      pools.push_back(*probe.scratch_pool());
    }
  }
  if (pools.empty()) return r;

  const p2p::monitor::AvailabilityMonitor& monitor = network->monitor();
  const p2p::sim::Round window = monitor.history_window();
  std::vector<core::PeerObservation> observations;
  for (const auto& pool : pools) {
    for (const core::Candidate& c : pool) {
      observations.push_back(monitor.Observe(c.id, window, now));
    }
  }

  p2p::util::Result<std::unique_ptr<core::SelectionStrategy>> selection =
      core::MakeSelection(options.selection);
  P2P_CHECK(selection.ok());
  p2p::util::Rng choose_rng(seed);
  std::vector<core::Candidate> work;
  std::vector<uint32_t> chosen;
  r.choose_ns_per_candidate = MedianOfPasses(
      [&] {
        uint64_t ns = 0;
        size_t candidates = 0;
        for (const auto& pool : pools) {
          work = pool;
          chosen.clear();
          const uint64_t t0 = trace::NowNanos();
          (*selection)->Choose(&work, needed, &choose_rng, &chosen);
          ns += trace::NowNanos() - t0;
          candidates += pool.size();
        }
        return static_cast<double>(ns) / static_cast<double>(candidates);
      },
      kMinPasses, kBudgetNs);

  const core::LifetimeEstimator& estimator = network->estimator();
  volatile double sink = 0.0;
  r.score_ns = MedianOfPasses(
      [&] {
        double acc = 0.0;
        const uint64_t t0 = trace::NowNanos();
        for (const core::PeerObservation& obs : observations) {
          acc += estimator.StabilityScore(obs);
        }
        const uint64_t ns = trace::NowNanos() - t0;
        sink = sink + acc;
        return static_cast<double>(ns) /
               static_cast<double>(observations.size());
      },
      kMinPasses, kBudgetNs);

  // Observe memoizes per (peer, round, window): alternate the window so
  // every call computes.
  int pass = 0;
  r.observe_ns = MedianOfPasses(
      [&] {
        const p2p::sim::Round w = window - 1 + (pass++ % 2);
        int64_t acc = 0;
        const uint64_t t0 = trace::NowNanos();
        for (uint32_t id : live) acc += monitor.Observe(id, w, now).age;
        const uint64_t ns = trace::NowNanos() - t0;
        sink = sink + static_cast<double>(acc);
        return static_cast<double>(ns) / static_cast<double>(live.size());
      },
      kMinPasses, kBudgetNs);
  return r;
}

}  // namespace perfbench
