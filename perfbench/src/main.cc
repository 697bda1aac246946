// perfbench: the repository benchmark for the simulator.
//
//   perfbench --workload paper-25k --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off:
//   peer_rounds_per_s   simulated live peer-rounds per wall second of
//                       stepping (median over the batches run in --seconds)
//   setup_s             building every world of the batch, before the first
//                       Step (fastest of some hundreds of builds spread over
//                       the run)
//   rss_bytes_per_peer  peak resident bytes over the peer slots resident at
//                       once
// --trace 1 runs the batch with a trace session installed (aggregates only)
// and prints the per-layer table: exclusive time per layer, counts, ratios,
// the core/monitor replays and the paired tracing overhead.
//
// Every world's report digest is checked against a reference run
// (check.h). The last line of stdout is one JSON object
// {correct, attempted, failed, metrics}; failed / attempted is the
// failed-runs ratio. --scale tiny and --perturb-digest serve the self-test
// (perfbench/selftest.py).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "layers.h"
#include "stats.h"
#include "sweep/runner.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace trace = p2p::trace;
using p2p::scenario::Scenario;
using p2p::sweep::CellResult;

constexpr int kSetupBuildsPerGroup = 50;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  bool perturb_digest = false;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %.6g ratio (%lld of %lld worlds failed the check)\n",
              "failed_runs_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ set-up

/// Set-up time of the batch: every world built, timed and destroyed. The
/// untraced run builds a group of them before the first batch and after
/// every batch, and reports the fastest build. A build writes a few MB of
/// fresh state, so on a shared host its time follows the other tenants'
/// memory traffic: builds a second apart differ by up to 2x, and the median
/// of a group by as much between runs. The fastest of some hundreds of
/// builds spread over the run moves far less.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload* w) : w_(w) {}

  void SampleGroup() {
    for (int i = 0; i < kSetupBuildsPerGroup; ++i) {
      double total = 0.0;
      std::vector<int64_t> slots;
      for (const Scenario& s : w_->worlds) {
        const std::unique_ptr<World> world = BuildWorld(s);
        total += world->compile_s + world->construct_s;
        slots.push_back(world->network->total_ids());
      }
      best_s_ = builds_ == 0 ? total : std::min(best_s_, total);
      ++builds_;
      // Peer slots resident at once: the sweep holds `threads` cells.
      std::sort(slots.rbegin(), slots.rend());
      resident_peers_ = 0;
      for (size_t j = 0; j < slots.size() && j < static_cast<size_t>(w_->threads);
           ++j) {
        resident_peers_ += slots[j];
      }
    }
  }

  double best_s() const { return best_s_; }
  int builds() const { return builds_; }
  int64_t resident_peers() const { return resident_peers_; }

 private:
  const Workload* w_;
  double best_s_ = 0.0;
  int builds_ = 0;
  int64_t resident_peers_ = 0;
};

// ------------------------------------------------------------------- runs

/// Steps `world` to its end round.
struct Stepped {
  double step_s = 0.0;       ///< wall time inside Step
  double peer_rounds = 0.0;  ///< live population summed over rounds
};

Stepped StepToEnd(World* world) {
  Stepped r;
  p2p::sim::Engine& engine = *world->engine;
  while (engine.now() < engine.end_round()) {
    const double t0 = Now();
    engine.Step();
    r.step_s += Now() - t0;
    r.peer_rounds += static_cast<double>(world->network->LivePopulation());
  }
  return r;
}

std::vector<CellResult> RunSweepOrDie(const Workload& w) {
  p2p::sweep::RunnerOptions ropts;
  ropts.threads = w.threads;
  p2p::util::Result<std::vector<CellResult>> results = [&] {
    TRACE_SCOPE_CAT("bench/sweep", "bench");
    return p2p::sweep::RunSweep(w.spec, ropts);
  }();
  if (!results.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 results.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*results);
}

/// Live peer-rounds of a finished sweep: mean live population times rounds,
/// summed over cells.
double SweepPeerRounds(const std::vector<CellResult>& results) {
  double total = 0.0;
  for (const CellResult& r : results) {
    double population = 0.0;
    for (double p : r.outcome.report.PerCategory("mean_population")) {
      population += p;
    }
    total += population * static_cast<double>(r.cell.scenario.rounds);
  }
  return total;
}

int RunUntraced(const Args& args, const Workload& w) {
  SetupSampler setup(&w);
  setup.SampleGroup();
  OutputCheck check(args.perturb_digest);
  const Reference ref = RunReference(w);

  // Batches run until --seconds of measuring have passed, and at least
  // twice; the metric is the median batch.
  std::vector<double> rates;
  double measured_s = 0.0;
  while (rates.size() < 2 || measured_s < args.seconds) {
    const std::string label = "batch " + std::to_string(rates.size());
    if (w.sweep) {
      const double t0 = Now();
      const std::vector<CellResult> results = RunSweepOrDie(w);
      const double wall = Now() - t0;
      measured_s += wall;
      rates.push_back(SweepPeerRounds(results) / wall);
      check.CompareSweep(label, results, SweepCsv(w.spec, results),
                         ref.sweep_csv);
    } else {
      const Scenario& s = w.worlds.at(0);
      std::unique_ptr<World> world = BuildWorld(s);
      const Stepped run = StepToEnd(world.get());
      measured_s += run.step_s;
      rates.push_back(run.peer_rounds / run.step_s);
      const Digest digest =
          DigestOf(s, world->network->metrics().BuildReport(s.rounds));
      world->network->CheckInvariants();
      world.reset();  // one world resident at a time
      check.Compare(label, digest, ref.world);
    }
    setup.SampleGroup();
  }
  const double peak_rss = static_cast<double>(PeakResidentBytes());

  std::printf("workload %s seed %llu: %zu batches, %d set-up builds\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              rates.size(), setup.builds());
  const std::vector<Metric> metrics = {
      {"peer_rounds_per_s", Median(rates), "peer-rounds/s"},
      {"setup_s", setup.best_s(), "s"},
      {"rss_bytes_per_peer",
       Ratio(peak_rss, static_cast<double>(setup.resident_peers())), "B/peer"},
  };
  PrintResult(metrics, check.failed() == 0, check.attempted(),
              check.failed());
  return 0;
}

// ------------------------------------------------------------ traced run

/// Counters the per-layer table reads from a traced workload.
struct Counters {
  int64_t episodes = 0;
  int64_t pool_draws = 0;
  int64_t pool_accepted = 0;
  int64_t pool_exhausted = 0;
  int64_t score_memo_hits = 0;
  int64_t score_evals = 0;
  int64_t observe_calls = 0;
  int64_t transfers_enqueued = 0;
  int64_t transfers_completed = 0;
  int64_t queue_depth_peak = 0;
  double uplink_utilization = 0.0;
};

/// What a traced workload hands to the table besides its session.
struct TracedRun {
  Counters counters;
  /// Untraced per-step times of one world of the workload.
  std::vector<double> step_times;
  /// traced / untraced time of each pair of passes.
  std::vector<double> overhead_ratios;
  ReplayResult replay;
};

int64_t CounterValue(const trace::TraceSession& session,
                     const std::string& name) {
  for (const trace::CounterStat& c : session.CounterStats()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// One world stepped twice in lockstep: a copy traced into `session` and
/// an untraced twin of the same seed. Each round is one pair of passes over
/// identical work, run moments apart in alternating order, so the ratio of
/// their times is the tracing overhead of that round.
struct Lockstep {
  std::unique_ptr<World> traced;
  p2p::metrics::RunReport twin_report;
  std::vector<double> twin_step_times;
  std::vector<double> overhead_ratios;  ///< traced / untraced, per round
};

Lockstep StepInLockstep(const Scenario& s, trace::TraceSession* session) {
  Lockstep run;
  session->Install();
  run.traced = BuildWorld(s);
  trace::TraceSession::Uninstall();
  const std::unique_ptr<World> twin = BuildWorld(s);
  p2p::sim::Engine& engine = *run.traced->engine;
  for (int64_t round = 0; engine.now() < engine.end_round(); ++round) {
    double traced_s = 0.0;
    double twin_s = 0.0;
    for (int turn = 0; turn < 2; ++turn) {
      if ((turn == 0) == (round % 2 == 0)) {
        session->Install();
        const double t0 = Now();
        {
          TRACE_SCOPE_CAT("bench/step", "bench");
          engine.Step();
        }
        traced_s = Now() - t0;
        trace::TraceSession::Uninstall();
      } else {
        const double t0 = Now();
        twin->engine->Step();
        twin_s = Now() - t0;
      }
    }
    run.twin_step_times.push_back(twin_s);
    run.overhead_ratios.push_back(traced_s / twin_s);
  }
  run.twin_report = twin->network->metrics().BuildReport(s.rounds);
  return run;
}

/// Replays on pools captured halfway through the run: a world of `s` of
/// its own, stepped untraced to its middle round.
ReplayResult ReplayMidRun(const Scenario& s, uint64_t seed) {
  const std::unique_ptr<World> world = BuildWorld(s);
  p2p::sim::Engine& engine = *world->engine;
  while (engine.now() < engine.end_round() / 2) engine.Step();
  return RunReplays(world->network.get(), engine.now(), seed);
}

/// A single-world workload: the lockstep pair is the whole traced run.
TracedRun TraceWorld(const Args& args, const Workload& w,
                     const Reference& ref, trace::TraceSession* session,
                     OutputCheck* check) {
  const Scenario& s = w.worlds.at(0);
  Lockstep pair = StepInLockstep(s, session);
  World& traced = *pair.traced;
  session->Install();
  p2p::metrics::RunReport report;
  {
    TRACE_SCOPE_CAT("bench/report", "bench");
    report = traced.network->metrics().BuildReport(s.rounds);
  }
  trace::TraceSession::Uninstall();
  check->Compare("traced world", DigestOf(s, report), ref.world);
  check->Compare("untraced twin", DigestOf(s, pair.twin_report),
                 ref.world);
  traced.network->CheckInvariants();

  TracedRun run;
  const p2p::backup::BackupNetwork& net = *traced.network;
  Counters& c = run.counters;
  c.episodes = CounterValue(*session, "repair/episodes");
  c.pool_draws = net.pool_stats().draws;
  c.pool_accepted = net.pool_stats().accepted;
  c.pool_exhausted = net.pool_stats().index_exhausted;
  c.score_memo_hits = net.pool_stats().score_memo_hits;
  c.score_evals = net.pool_stats().score_evals;
  c.observe_calls = net.monitor().query_stats().observe_calls;
  if (const p2p::transfer::TransferScheduler* ts = net.transfer()) {
    c.transfers_enqueued = static_cast<int64_t>(ts->stats().enqueued);
    c.transfers_completed = static_cast<int64_t>(ts->stats().completed);
    c.queue_depth_peak = ts->stats().queue_depth_peak;
  }
  c.uplink_utilization = report.Scalar("uplink_utilization");
  run.step_times = std::move(pair.twin_step_times);
  run.overhead_ratios = std::move(pair.overhead_ratios);
  run.replay = ReplayMidRun(s, args.seed);
  return run;
}

/// The sweep: one traced RunSweep pass fills `session` (the table). A
/// sweep's rounds run inside RunSweep, out of the benchmark's reach, so
/// step latency, the overhead pairs and the replays come from the first
/// cell stepped in lockstep here, traced into a session of its own, and
/// the replays from that cell.
TracedRun TraceSweep(const Args& args, const Workload& w,
                     const Reference& ref, trace::TraceSession* session,
                     OutputCheck* check) {
  TracedRun run;
  session->Install();
  for (const Scenario& s : w.worlds) BuildWorld(s);
  const std::vector<CellResult> results = RunSweepOrDie(w);
  trace::TraceSession::Uninstall();
  check->CompareSweep("traced sweep", results, SweepCsv(w.spec, results),
                      ref.sweep_csv);

  Counters& c = run.counters;
  for (const CellResult& r : results) {
    c.uplink_utilization += r.outcome.report.Scalar("uplink_utilization") /
                            static_cast<double>(results.size());
  }
  c.episodes = CounterValue(*session, "repair/episodes");
  c.pool_draws = CounterValue(*session, "repair/pool_draws");
  c.pool_accepted = CounterValue(*session, "repair/pool_accepted");
  c.pool_exhausted = CounterValue(*session, "repair/pool_index_exhausted");
  c.score_memo_hits = CounterValue(*session, "repair/score_memo_hits");
  c.score_evals = CounterValue(*session, "repair/score_evals");
  c.observe_calls = CounterValue(*session, "monitor/observe");
  c.transfers_enqueued = CounterValue(*session, "transfer/enqueued");
  c.transfers_completed = CounterValue(*session, "transfer/completed");
  c.queue_depth_peak = CounterValue(*session, "transfer/queue_depth_peak");

  trace::TraceSession::Options topts;
  topts.max_spans_per_thread = 0;
  trace::TraceSession probe_session(topts);
  const p2p::sweep::Cell& cell = w.cells.at(0);
  Lockstep pair = StepInLockstep(cell.scenario, &probe_session);
  auto compare_cell = [&](const char* label, p2p::metrics::RunReport report) {
    std::vector<CellResult> one(1);
    one[0].cell = cell;
    one[0].outcome.report = std::move(report);
    check->CompareSweep(label, one, SweepCsv(w.spec, one), ref.sweep_csv);
  };
  compare_cell("traced cell", pair.traced->network->metrics().BuildReport(
                                  cell.scenario.rounds));
  compare_cell("untraced twin", std::move(pair.twin_report));
  run.step_times = std::move(pair.twin_step_times);
  run.overhead_ratios = std::move(pair.overhead_ratios);
  run.replay = ReplayMidRun(cell.scenario, args.seed);
  return run;
}

int RunTraced(const Args& args, const Workload& w) {
  const Reference ref = RunReference(w);
  OutputCheck check(args.perturb_digest);
  trace::TraceSession::Options topts;
  topts.max_spans_per_thread = 0;  // aggregates only
  trace::TraceSession session(topts);
  const TracedRun run = w.sweep ? TraceSweep(args, w, ref, &session, &check)
                                : TraceWorld(args, w, ref, &session, &check);

  const ExclusiveTable t =
      ComputeExclusive(session, w.sweep ? "scenario/rounds" : "bench/step");
  if (!t.error.empty()) {
    std::fprintf(stderr, "perfbench: exclusive-time table: %s\n",
                 t.error.c_str());
  }
  const double step_s = static_cast<double>(t.step_ns) * 1e-9;
  std::printf("exclusive time of %.3f s traced step time:\n", step_s);
  for (const auto& [layer, ns] : t.layer_ns) {
    std::printf("  %-28s %10.4f s %6.2f%%\n", layer.c_str(),
                static_cast<double>(ns) * 1e-9,
                100.0 * Ratio(static_cast<double>(ns),
                              static_cast<double>(t.step_ns)));
  }
  auto layer_s = [&](const char* name) {
    return static_cast<double>(t.layer_ns.at(name)) * 1e-9;
  };

  const Counters& c = run.counters;
  std::vector<double> overhead;
  for (double r : run.overhead_ratios) overhead.push_back(r - 1.0);
  const double sweep_wall = t.TotalSeconds("sweep/run");
  double sweep_busy = 0.0;
  for (const trace::CounterStat& stat : session.CounterStats()) {
    if (stat.name.rfind("sweep/worker", 0) == 0 &&
        stat.name.size() > 8 &&
        stat.name.compare(stat.name.size() - 8, 8, "/busy_ns") == 0) {
      sweep_busy += static_cast<double>(stat.value) * 1e-9;
    }
  }
  const double threads = w.sweep ? static_cast<double>(w.threads) : 0.0;

  const std::vector<Metric> metrics = {
      {"sim.rounds", static_cast<double>(t.Count("round")), "count"},
      {"sim.step_s", step_s, "s"},
      {"sim.step_ms_p50", 1e3 * Quantile(run.step_times, 0.50), "ms"},
      {"sim.step_ms_p99", 1e3 * Quantile(run.step_times, 0.99), "ms"},
      {"sim.round0_s", run.step_times.empty() ? 0.0 : run.step_times[0], "s"},
      {"sim.unattributed_s", layer_s("sim.unattributed_s"), "s"},
      {"backup.adjust_s", layer_s("backup.adjust_s"), "s"},
      {"backup.churn_s", layer_s("backup.churn_s"), "s"},
      {"backup.repair_self_s", layer_s("backup.repair_self_s"), "s"},
      {"backup.evaluate_s", layer_s("backup.evaluate_s"), "s"},
      {"backup.place_self_s", layer_s("backup.place_self_s"), "s"},
      {"backup.pool_s", layer_s("backup.pool_s"), "s"},
      {"backup.score_s", layer_s("backup.score_s"), "s"},
      {"backup.repair_episodes", static_cast<double>(c.episodes), "count"},
      {"backup.repair_evaluations",
       static_cast<double>(t.Count("repair/evaluate")), "count"},
      {"backup.pool_draws", static_cast<double>(c.pool_draws), "count"},
      {"backup.pool_accept_ratio",
       Ratio(static_cast<double>(c.pool_accepted),
             static_cast<double>(c.pool_draws)),
       "ratio"},
      {"backup.score_memo_hit_ratio",
       Ratio(static_cast<double>(c.score_memo_hits),
             static_cast<double>(c.score_memo_hits + c.score_evals)),
       "ratio"},
      {"backup.pool_exhausted_ratio",
       Ratio(static_cast<double>(c.pool_exhausted),
             static_cast<double>(t.Count("repair/pool"))),
       "ratio"},
      {"backup.construct_s", t.TotalSeconds("bench/construct"), "s"},
      {"scenario.compile_s", t.TotalSeconds("bench/compile"), "s"},
      {"core.choose_ns_per_candidate", run.replay.choose_ns_per_candidate,
       "ns"},
      {"core.score_ns", run.replay.score_ns, "ns"},
      {"monitor.observe_calls", static_cast<double>(c.observe_calls), "count"},
      {"monitor.observe_ns", run.replay.observe_ns, "ns"},
      {"transfer.tick_s", layer_s("transfer.tick_s"), "s"},
      {"transfer.ticks", static_cast<double>(t.Count("transfer/tick")),
       "count"},
      {"transfer.completed_ratio",
       Ratio(static_cast<double>(c.transfers_completed),
             static_cast<double>(c.transfers_enqueued)),
       "ratio"},
      {"transfer.queue_depth_peak", static_cast<double>(c.queue_depth_peak),
       "count"},
      {"transfer.uplink_utilization", c.uplink_utilization, "ratio"},
      {"sweep.cells",
       static_cast<double>(CounterValue(session, "sweep/cells_run")), "count"},
      {"sweep.busy_s", sweep_busy, "s"},
      {"sweep.queue_wait_s",
       static_cast<double>(CounterValue(session, "sweep/queue_wait_ns")) *
           1e-9,
       "s"},
      {"sweep.utilization", Ratio(sweep_busy, threads * sweep_wall), "ratio"},
      {"sweep.imbalance_s",
       w.sweep ? sweep_wall - sweep_busy / threads : 0.0, "s"},
      {"metrics.report_s",
       t.TotalSeconds(w.sweep ? "scenario/report" : "bench/report"), "s"},
      {"metrics.tick_s", layer_s("metrics.tick_s"), "s"},
      {"trace.overhead_ratio", Median(overhead), "ratio"},
      {"trace.overhead_q1", Quantile(overhead, 0.25), "ratio"},
      {"trace.overhead_q3", Quantile(overhead, 0.75), "ratio"},
      {"trace.overhead_pairs", static_cast<double>(overhead.size()), "count"},
  };
  std::printf("workload %s seed %llu: traced run, %zu overhead pairs\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              overhead.size());
  PrintResult(metrics, check.failed() == 0 && t.error.empty(),
              check.attempted(), check.failed());
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale full|tiny] [--perturb-digest]\n"
               "workloads:",
               argv0);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--perturb-digest") {
      if (i + 1 >= argc) return Usage(argv[0]);
      value = argv[++i];
    }
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args.trace = value == "1";
      } else if (flag == "--scale" && (value == "full" || value == "tiny")) {
        args.scale = value == "full" ? perfbench::Scale::kFull
                                     : perfbench::Scale::kTiny;
      } else if (flag == "--perturb-digest") {
        args.perturb_digest = true;
      } else {
        return Usage(argv[0]);
      }
    } catch (const std::exception&) {
      return Usage(argv[0]);
    }
  }
  p2p::util::Result<perfbench::Workload> w =
      perfbench::MakeWorkload(args.workload, args.seed, args.scale);
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", w.status().ToString().c_str());
    return Usage(argv[0]);
  }
  return args.trace ? perfbench::RunTraced(args, *w)
                    : perfbench::RunUntraced(args, *w);
}
