// Configuration of the simulated peer-to-peer backup system. Defaults are
// the paper's evaluation parameters (sections 2.2.4 and 4.1). Only what a
// run may vary is an option; the protocol's fixed constants (candidate pool
// factor and draw budget, loss-rate time constant, one-day series interval)
// live with the code that uses them (BackupNetwork, metrics::Collector).
//
// Run-length bound: a run lasts at most sim::kMaxRunRounds (4294967295)
// rounds - Scenario::Validate and the --rounds flag enforce it - and every
// option that is a delay in rounds shares that bound. Rounds therefore fit
// 32 bits where the network stores them, and no "now + delay" overflows.

#ifndef P2P_BACKUP_OPTIONS_H_
#define P2P_BACKUP_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/strategy_spec.h"
#include "sim/clock.h"
#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace backup {

/// How "blocks visible in the system" (the repair-threshold quantity) is
/// counted.
enum class VisibilityModel {
  /// A block is visible while its host is connected right now. Matches the
  /// paper's simulation ("a peer may lose more than 5 blocks in a round if
  /// its partners are not very stable" - only temporary disconnections can
  /// move that fast). Partnerships are severed only by true departures and
  /// by repairs, which replace the partners unreachable when they trigger;
  /// as in timeout mode, an owner never holds more than n partners.
  kInstantOnline,
  /// A block is visible until its host has been unreachable for
  /// partner_timeout rounds, after which it is written off (the protocol
  /// of paper section 2.2.3 as a deployable system would implement it).
  kTimeoutPresumed,
};

/// \brief All knobs of one simulation run.
struct SystemOptions {
  /// Population size kept constant by immediate replacement (paper: 25,000).
  uint32_t num_peers = 25'000;

  /// Erasure code data blocks (paper: k = 128).
  int k = 128;
  /// Erasure code redundancy blocks (paper: m = 128).
  int m = 128;

  /// Repair threshold k': repair when fewer blocks remain (paper: 132-180,
  /// focus 148).
  int repair_threshold = 148;

  /// Blocks a peer stores for others at most (paper: quota = 384).
  int quota_blocks = 384;

  /// Visibility semantics (see VisibilityModel). The timeout model with a
  /// 12-hour write-off over diurnal sessions was tuned to reproduce the
  /// shapes of the paper's figures, not its oldest-first vs random
  /// comparison; that comparison is ROADMAP.md's first open item.
  VisibilityModel visibility = VisibilityModel::kTimeoutPresumed;

  /// kTimeoutPresumed only: rounds a partner may stay unreachable before its
  /// blocks are presumed disappeared ("if a peer could not be connected
  /// during the threshold period, it is considered that the peer has
  /// definitively left"). At most sim::kMaxRunRounds, the run-length bound.
  sim::Round partner_timeout = 12;

  /// Acceptance-function horizon L (paper: 90 days).
  sim::Round acceptance_horizon = 90 * sim::kRoundsPerDay;

  /// Apply the acceptance function when pooling candidates (disabling it is
  /// the "sort-only" ablation).
  bool use_acceptance = true;

  /// Partner selection strategy applied to the pool (paper: oldest-first).
  /// A registry-backed spec: `weighted-random{age_exponent=2}` etc.; see
  /// core/strategy_registry.h for the vocabulary.
  core::SelectionSpec selection;

  /// Repair-trigger policy (paper: fixed threshold at repair_threshold).
  /// Also a registry-backed spec: `proactive{batch_blocks=8}` etc. With no
  /// explicit `threshold` parameter, threshold-bearing policies follow
  /// `repair_threshold` above.
  core::PolicySpec policy;

  /// Lifetime estimator scoring placement candidates (paper: age rank).
  /// A registry-backed spec: `availability-weighted{exponent=2}` etc. With
  /// no explicit `horizon` parameter, horizon-bearing estimators follow
  /// `acceptance_horizon` above.
  core::EstimatorSpec estimator;

  /// Tit-for-tat quota market (paper 6: the scheme "may also be considered
  /// as a kind of tit-for-tat protocol"): a host whose quota is full still
  /// accepts a block from a peer older than its youngest current client, by
  /// dropping that youngest client's block. Old peers therefore keep
  /// displacing newcomers from the most stable hosts - the force that keeps
  /// maintenance permanently cheap for elders and permanently expensive for
  /// newcomers.
  bool quota_market = true;

  /// Future-work knob: delay between a definitive departure and the removal
  /// of its blocks (paper default: 0 = "blocks are immediately removed").
  /// At most sim::kMaxRunRounds, the run-length bound.
  sim::Round departure_grace = 0;

  /// Bandwidth-constrained transfer scheduling (section 2.2.4): the link
  /// profile repairs run on (see transfer/link.h: "dsl-2009", "dsl-modern",
  /// "ftth"). Empty (the default, locked byte-identical by the goldens)
  /// means repairs complete instantaneously; a named link turns each repair
  /// episode into a queued multi-round transfer job on that link, and the
  /// repair flag clears only when the job's last byte moves.
  std::string transfer_link;

  /// Checks every knob for consistency: the repair threshold must lie in
  /// [k, k + m], counts must be positive, timeouts sane, a named transfer
  /// link registered. The BackupNetwork constructor calls this and refuses
  /// to run on a bad configuration, so sweeps fail fast at expansion
  /// instead of silently simulating nonsense.
  util::Status Validate() const;
};

/// Field-wise equality (scenario text round-trips are verified with this).
bool operator==(const SystemOptions& a, const SystemOptions& b);
inline bool operator!=(const SystemOptions& a, const SystemOptions& b) {
  return !(a == b);
}

/// Lowercase token of a visibility model ("instant", "timeout"); used by
/// sweep coordinates and the scenario text format.
const char* VisibilityModelName(VisibilityModel model);

/// Inverse of VisibilityModelName; errors on unknown tokens.
util::Result<VisibilityModel> VisibilityModelFromName(const std::string& name);

}  // namespace backup
}  // namespace p2p

#endif  // P2P_BACKUP_OPTIONS_H_
