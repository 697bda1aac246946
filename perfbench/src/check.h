// The output check: every measured world's report digest against a
// reference run of the same scenario.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/runner.h"
#include "workloads.h"

namespace perfbench {

/// Digests of the reference runs: scenario::RunScenario with its invariant
/// checks on, which also runs CheckInvariants() at the end of each world.
/// A sweep's cells run in order on this thread, as a one-thread RunSweep
/// runs them.
struct Reference {
  Digest world;           ///< single-world workloads
  std::string sweep_csv;  ///< sweep workloads
};

Reference RunReference(const Workload& w);

/// \brief Counts worlds attempted and worlds whose digest differs from the
/// reference, printing each world's digest with its repairs, losses and
/// final population (not gated, but a change in simulated behaviour shows).
class OutputCheck {
 public:
  /// `perturb` corrupts the first digest compared (the self-test proves a
  /// mismatch counts as a failure).
  explicit OutputCheck(bool perturb) : perturb_(perturb) {}

  void Compare(const std::string& label, Digest got, const Digest& want);

  /// Per-cell CSV rows of `got` (row i for got[i]) against the reference
  /// sweep's rows of the same cell indices, one world per cell.
  void CompareSweep(const std::string& label,
                    const std::vector<p2p::sweep::CellResult>& got,
                    const std::string& got_csv, const std::string& want_csv);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  bool perturb_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
