// Ablation A6: what does a finite access link cost?
//
// Two views of the transfer scheduler against the paper's section-2.2.4
// bandwidth analysis:
//
// 1. The scheduler driven directly, back-to-back worst-case repairs
//    (d = k = 128 on a 128 MB archive): measured repairs/day per link
//    profile next to the analytic ceiling 86400 / delta_repair. On the 2009
//    DSL line the paper bounds this at ~20 repairs/day (18.75 analytic);
//    the round-quantized scheduler must land within 2x of that.
//
// 2. The flash-crowd world swept over the link axis (common random
//    numbers; instant-repair baseline alongside): how queueing stretches
//    time-to-backup/restore and how hard the join wave saturates uplinks.
//
//   ./bench_ablation_transfer [--paper] [--peers=N] [--rounds=R]
//                             [--links=dsl-2009,dsl-modern,ftth]
//                             [--jobs=J] [--threads=T]

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "scenario/parse.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "transfer/bandwidth.h"
#include "transfer/link.h"
#include "transfer/scheduler.h"
#include "util/table.h"

namespace {

using namespace p2p;

// An always-online world where owner 0 downloads from 128 dedicated sources:
// the paper's single-peer worst case, no contention.
class IdleSources : public transfer::PeerDirectory {
 public:
  bool Online(transfer::PeerId) const override { return true; }
  void AppendSources(transfer::PeerId,
                     std::vector<transfer::PeerId>* out) const override {
    for (transfer::PeerId src = 1; src <= 128; ++src) out->push_back(src);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p2p;

  sweep::SweepSpec spec;
  spec.base.peers = 600;
  spec.base.rounds = 3'600;  // 150 days: the day-100 wave plus aftermath
  std::string links_csv = "dsl-2009,dsl-modern,ftth";
  int64_t jobs = 12;
  int threads = 0;

  util::FlagSet flags;
  bench::ScenarioFlags scale;
  scale.Register(&flags);
  flags.String("links", &links_csv,
               "comma-separated link-profile names to compare");
  flags.Int64("jobs", &jobs, "back-to-back repairs per link in part 1");
  flags.Int32("threads", &threads, "worker threads (0 = hardware)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (auto st = scale.Apply(&spec.base); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  if (auto st = scenario::ParseStringList(links_csv, &spec.links); !st.ok()) {
    std::cerr << "--links: " << st.ToString() << "\n";
    return 1;
  }

  // ---- Part 1: the repair ceiling, scheduler vs closed form. ------------
  constexpr uint64_t kArchiveBytes = 128ull << 20;
  constexpr int kK = 128;
  constexpr int kM = 128;
  std::printf("## Repair ceiling: back-to-back d=%d repairs, one peer\n\n",
              kK);
  util::Table ceiling({"link", "up kB/s", "down kB/s", "delta_repair min",
                       "analytic/day", "measured/day", "analytic:measured"});
  for (const std::string& name : spec.links) {
    const util::Result<transfer::LinkProfile> link =
        transfer::FindLinkProfile(name);
    if (!link.ok()) {
      std::cerr << link.status().ToString() << "\n";
      return 1;
    }
    transfer::TransferScheduler sched(*link, /*id_capacity=*/130,
                                      kArchiveBytes, kK, kM);
    const IdleSources directory;
    sim::Round now = 0;
    int64_t ticks = 0;
    std::vector<transfer::TransferCompletion> done;
    for (int64_t job = 0; job < jobs; ++job) {
      sched.Enqueue(0, 1, /*initial=*/false, kK, now);
      while (sched.HasJob(0)) {
        done.clear();
        sched.Tick(++now, directory, &done);
        ++ticks;
      }
    }
    const double analytic = sched.model().MaxRepairsPerDay(kK);
    const double measured =
        24.0 * static_cast<double>(jobs) / static_cast<double>(ticks);
    ceiling.BeginRow();
    ceiling.Add(name);
    ceiling.Add(link->upload_bytes_per_s / 1024.0, 1);
    ceiling.Add(link->download_bytes_per_s / 1024.0, 1);
    ceiling.Add(sched.model().RepairSeconds(kK) / 60.0, 1);
    ceiling.Add(analytic, 2);
    ceiling.Add(measured, 2);
    ceiling.Add(measured > 0 ? analytic / measured : 0.0, 2);
  }
  ceiling.RenderPretty(std::cout);
  std::printf(
      "\n(the round quantization only adds overhead, so analytic:measured\n"
      " >= 1; within 2x of the paper's <= 20/day DSL ceiling is on spec)\n\n");

  // ---- Part 2: the flash-crowd world across the link axis. --------------
  spec.scenarios = {"flash-crowd"};
  bench::PrintRunBanner("Ablation: link profile x flash crowd", spec.base);
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

  // Instant-repair baseline: the same world, no transfer scheduler.
  util::Result<bench::Scenario> instant = scenario::LoadScenario("flash-crowd");
  if (!instant.ok()) {
    std::cerr << instant.status().ToString() << "\n";
    return 1;
  }
  instant->peers = spec.base.peers;
  instant->rounds = spec.base.rounds;
  instant->seed = spec.base.seed;
  const bench::Outcome baseline = bench::Run(*instant);

  util::Table t({"link", "repairs", "losses", "backup mean (r)",
                 "restore p99 (r)", "loss window (r)", "uplink util"});
  auto add_row = [&t](const std::string& link, const bench::Outcome& out) {
    t.BeginRow();
    t.Add(link);
    t.Add(out.report.Count("repairs"));
    t.Add(out.report.Count("losses"));
    t.Add(out.report.Scalar("time_to_backup_mean"), 2);
    t.Add(out.report.Scalar("time_to_restore_p99"), 2);
    t.Add(out.report.Scalar("data_loss_window"), 0);
    t.Add(out.report.Scalar("uplink_utilization"), 4);
  };
  add_row("(instant)", baseline);
  for (const sweep::CellResult& cell : *results) {
    add_row(cell.cell.scenario.options.transfer_link, cell.outcome);
  }
  t.RenderPretty(std::cout);
  return 0;
}
