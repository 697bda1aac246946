// The benchmark's workloads and the worlds they run.
//
// Every world is built and driven only through the simulator's public entry
// points: scenario::Scenario, PopulationSpec::Compile, CompileWorkload, the
// backup::BackupNetwork constructor, sim::Engine::Step,
// metrics::Collector::BuildReport and sweep::RunSweep.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backup/network.h"
#include "churn/profile.h"
#include "metrics/run_report.h"
#include "scenario/scenario.h"
#include "sim/engine.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/result.h"

namespace perfbench {

/// kFull is the benchmark; kTiny is the self-test's scale (same shapes,
/// a few hundred peers).
enum class Scale { kFull, kTiny };

/// \brief One workload: a fixed-size batch of worlds made from one seed.
struct Workload {
  std::string name;
  /// Every world the workload runs: one, or the sweep's cells in order.
  std::vector<p2p::scenario::Scenario> worlds;
  /// Sweep workloads run `spec` through sweep::RunSweep on `threads`
  /// workers; the others drive their one world round by round.
  bool sweep = false;
  p2p::sweep::SweepSpec spec;
  std::vector<p2p::sweep::Cell> cells;  ///< spec.Expand(), sweep only
  int threads = 1;
};

/// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Builds the named workload for `seed`; fails on an unknown name.
p2p::util::Result<Workload> MakeWorkload(const std::string& name,
                                         uint64_t seed, Scale scale);

/// \brief One world, built before its first Step.
///
/// Member order matters: the network refers to the engine and the profile
/// set, so it is declared last and destroyed first.
struct World {
  p2p::scenario::Scenario scenario;
  std::unique_ptr<p2p::sim::Engine> engine;
  std::unique_ptr<p2p::churn::ProfileSet> profiles;
  std::unique_ptr<p2p::backup::BackupNetwork> network;
  /// PopulationSpec::Compile plus CompileWorkload.
  double compile_s = 0.0;
  /// The BackupNetwork constructor (the round-0 placement is enqueued
  /// here but runs in the first Step).
  double construct_s = 0.0;
};

/// Builds `scenario` (which MakeWorkload validated) through the public
/// entry points, timing compilation and construction.
std::unique_ptr<World> BuildWorld(const p2p::scenario::Scenario& scenario);

/// What a run of one world produced, for the output check.
struct Digest {
  /// The default per-cell CSV emitter's bytes for the world's report.
  std::string csv;
  int64_t repairs = 0;
  int64_t losses = 0;
  int64_t final_population = 0;

  /// FNV-1a 64 of `csv`, as 16 hex digits.
  std::string Hash() const;
};

/// Digest of one world's report under the default metric selection.
Digest DigestOf(const p2p::scenario::Scenario& scenario,
                const p2p::metrics::RunReport& report);

/// The default per-cell CSV of a whole sweep, in cell order.
std::string SweepCsv(const p2p::sweep::SweepSpec& spec,
                     const std::vector<p2p::sweep::CellResult>& results);

/// Peak resident set of this process so far, in bytes (0 where
/// unavailable).
int64_t PeakResidentBytes();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
