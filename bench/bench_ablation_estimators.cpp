// Ablation A4: which lifetime estimator places best?
//
// The full estimator x scenario grid through the parallel sweep runner
// (common random numbers: cells differ only by the knob under study):
//   age-rank              - the paper's criterion (the baseline)
//   availability-weighted - age rank discounted by measured recent uptime
// across three churn worlds: the paper's profile table, shared heavy-tailed
// Pareto lifetimes, and the flash-crowd join wave.
//
// Selection ranks by (score, age), so any score monotone in age - a Pareto
// or empirical residual-lifetime model included - places exactly as
// age-rank does. The question is whether uptime weighting, the one signal
// beyond age, buys fewer repairs or losses under diurnal/flaky
// availability. Pass --estimators to sweep its exponent or floor.
//
//   ./bench_ablation_estimators [--paper] [--peers=N] [--rounds=R]
//                               [--worlds=paper,pareto,flash-crowd]
//                               [--estimators=SPEC,...] [--threads=T]

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "scenario/parse.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  spec.base.peers = 1500;
  spec.base.rounds = 18'000;
  std::string worlds_csv = "paper,pareto,flash-crowd";
  std::string estimators_csv = "age-rank,availability-weighted";
  int threads = 0;

  util::FlagSet flags;
  bench::ScenarioFlags scale;
  scale.Register(&flags);
  flags.String("worlds", &worlds_csv,
               "comma-separated scenario names/files to compare");
  flags.String("estimators", &estimators_csv,
               "comma-separated estimator specs to compare");
  flags.Int32("threads", &threads, "worker threads (0 = hardware)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (auto st = scenario::ParseStringList(worlds_csv, &spec.scenarios);
      !st.ok()) {
    std::cerr << "--worlds: " << st.ToString() << "\n";
    return 1;
  }
  if (auto st = scenario::ParseSpecList(estimators_csv, &spec.estimators);
      !st.ok()) {
    std::cerr << "--estimators: " << st.ToString() << "\n";
    return 1;
  }

  bench::PrintRunBanner("Ablation: lifetime estimator x churn world",
                        spec.base);
  sweep::RunnerOptions ropts;
  ropts.threads = threads;
  ropts.progress = true;
  std::fprintf(stderr, "# grid: %zu cells on %d threads\n", spec.CellCount(),
               sweep::ResolveThreads(threads));
  const auto results = sweep::RunSweep(spec, ropts);
  if (!results.ok()) {
    std::cerr << results.status().ToString() << "\n";
    return 1;
  }

  util::Table t({"scenario", "estimator", "newcomers/1000/day", "young", "old",
                 "elder", "elder:newcomer ratio", "total repairs", "losses"});
  for (const sweep::CellResult& cell : *results) {
    const bench::Outcome& out = cell.outcome;
    t.BeginRow();
    t.Add(cell.cell.scenario.name);
    t.Add(cell.cell.scenario.options.estimator.ToString());
    const auto& repairs_1k = out.report.PerCategory("repairs_1k_day");
    for (int c = 0; c < metrics::kCategoryCount; ++c) {
      t.Add(repairs_1k[static_cast<size_t>(c)], 3);
    }
    const double newc = repairs_1k[0];
    const double elder = repairs_1k[3];
    t.Add(newc > 0 ? elder / newc : 0.0, 4);
    t.Add(out.report.Count("repairs"));
    t.Add(out.report.Count("losses"));
  }
  t.RenderPretty(std::cout);
  return 0;
}
