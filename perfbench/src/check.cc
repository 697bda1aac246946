#include "check.h"

#include <cstdio>
#include <utility>

#include "scenario/scenario.h"

namespace perfbench {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Header plus row `i` of a per-cell CSV ("" for a missing row).
std::string CellRow(const std::vector<std::string>& lines, size_t i) {
  const std::string header = lines.empty() ? "" : lines[0];
  return header + "\n" + (i + 1 < lines.size() ? lines[i + 1] : "") + "\n";
}

}  // namespace

Reference RunReference(const Workload& w) {
  p2p::scenario::RunOptions run;
  run.check_invariants = true;
  Reference ref;
  if (w.sweep) {
    std::vector<p2p::sweep::CellResult> results;
    for (const p2p::sweep::Cell& cell : w.cells) {
      p2p::sweep::CellResult r;
      r.cell = cell;
      r.outcome = p2p::scenario::RunScenario(cell.scenario, run);
      results.push_back(std::move(r));
    }
    ref.sweep_csv = SweepCsv(w.spec, results);
  } else {
    const p2p::scenario::Scenario& s = w.worlds.at(0);
    ref.world = DigestOf(s, p2p::scenario::RunScenario(s, run).report);
  }
  return ref;
}

void OutputCheck::Compare(const std::string& label, Digest got,
                          const Digest& want) {
  if (perturb_ && !got.csv.empty()) {
    got.csv.back() = got.csv.back() == '0' ? '1' : '0';
    perturb_ = false;
  }
  const bool ok = got.csv == want.csv;
  ++attempted_;
  if (!ok) ++failed_;
  std::printf("  %-34s digest=%s ref=%s repairs=%lld losses=%lld "
              "final_population=%lld %s\n",
              label.c_str(), got.Hash().c_str(), want.Hash().c_str(),
              static_cast<long long>(got.repairs),
              static_cast<long long>(got.losses),
              static_cast<long long>(got.final_population),
              ok ? "ok" : "MISMATCH");
}

void OutputCheck::CompareSweep(const std::string& label,
                               const std::vector<p2p::sweep::CellResult>& got,
                               const std::string& got_csv,
                               const std::string& want_csv) {
  const std::vector<std::string> got_lines = Lines(got_csv);
  const std::vector<std::string> want_lines = Lines(want_csv);
  for (size_t i = 0; i < got.size(); ++i) {
    const p2p::metrics::RunReport& report = got[i].outcome.report;
    Digest g;
    g.csv = CellRow(got_lines, i);
    g.repairs = report.Count("repairs");
    g.losses = report.Count("losses");
    g.final_population = report.Count("final_population");
    Digest w;
    w.csv = CellRow(want_lines, got[i].cell.index);
    Compare(label + " " + got[i].cell.Label(), std::move(g), w);
  }
}

}  // namespace perfbench
