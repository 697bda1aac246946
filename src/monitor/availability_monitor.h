// The availability monitoring protocol the paper assumes (section 2.1):
// "we assume the existence of a secure monitoring protocol for peer
// availability: any peer can query the availability of any other peer for a
// given period of time, for example the last 90 days."
//
// In the simulation the monitor is fed connect/disconnect/join/departure
// events and answers the queries the backup protocol needs: is a peer online,
// when was it last seen, how old is it, and what fraction of a recent window
// was it online. Session histories are stored per peer with running online
// totals and pruned lazily, so event cost is proportional to churn and a
// window query costs O(log sessions) (a binary search plus prefix-sum
// arithmetic), not a scan of the whole window.
//
// The estimator-driven placement path asks for the observation (age and
// availability) of every pooled candidate of every maintenance episode.
// Observe computes it afresh on every call; the network's per-round score
// memo already makes sure a peer sampled by many repairing owners in one
// round is observed once. Estimators that never read availability are
// served by ObserveAge, which skips the window search and is counted as the
// same query.

#ifndef P2P_MONITOR_AVAILABILITY_MONITOR_H_
#define P2P_MONITOR_AVAILABILITY_MONITOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/lifetime_estimator.h"
#include "sim/clock.h"

namespace p2p {
namespace monitor {

/// Peer identifier (dense, assigned by the network).
using PeerId = uint32_t;

/// \brief Per-population availability bookkeeping.
class AvailabilityMonitor {
 public:
  /// `capacity` is the maximum number of peer ids; `history_window` bounds
  /// how far back availability queries may look (default 90 days, the
  /// paper's example query).
  explicit AvailabilityMonitor(uint32_t capacity,
                               sim::Round history_window = 90 * sim::kRoundsPerDay);

  /// \name Event feed (called by the network).
  /// @{
  /// Registers a peer joining at `now` (initially offline).
  void RecordJoin(PeerId peer, sim::Round now);
  /// Marks the peer online from `now`.
  void RecordConnect(PeerId peer, sim::Round now);
  /// Marks the peer offline from `now`.
  void RecordDisconnect(PeerId peer, sim::Round now);
  /// Marks a definitive departure; the id may later be recycled via
  /// RecordJoin, which resets all history.
  void RecordDeparture(PeerId peer, sim::Round now);
  /// @}

  /// \name Queries (what the secure monitoring protocol would answer).
  /// @{
  /// True while the peer is connected.
  bool IsOnline(PeerId peer) const;
  /// Last round the peer was seen online (== now when online); -1 if never.
  sim::Round LastSeen(PeerId peer, sim::Round now) const;
  /// Rounds since first connection - the age `s` in the acceptance function.
  sim::Round Age(PeerId peer, sim::Round now) const;
  /// Fraction of (now - window, now] the peer was online, in [0, 1].
  double AvailabilityOver(PeerId peer, sim::Round window, sim::Round now) const;
  /// True if the peer has been unreachable for more than `timeout` rounds -
  /// the paper's definitive-departure presumption.
  bool PresumedDeparted(PeerId peer, sim::Round timeout, sim::Round now) const;
  /// @}

  /// \name Estimator snapshots.
  /// @{
  /// The observation for one peer: its age and its availability over
  /// `window`.
  core::PeerObservation Observe(PeerId peer, sim::Round window,
                                sim::Round now) const;
  /// Observe without the availability search: the age as Observe reports
  /// it, availability left at 0 (not measured). For estimators whose
  /// reads_availability() is false.
  core::PeerObservation ObserveAge(PeerId peer, sim::Round now) const;
  /// @}

  /// History window bound.
  sim::Round history_window() const { return history_window_; }

  /// Always-on query statistics: Observe() and ObserveAge() are the
  /// placement hot path (tens of millions of calls per grid), so instead of
  /// per-call TRACE_COUNTER bumps it keeps plain member counters (one add
  /// each) that callers flush into a trace session once per run
  /// (scenario.cc does).
  struct QueryStats {
    int64_t observe_calls = 0;
  };
  const QueryStats& query_stats() const { return query_stats_; }

 private:
  /// One closed online session [start, end), plus the running total of
  /// online rounds in every closed session up to and including this one
  /// since the peer joined. The total is monotone and survives pruning, so
  /// a window query binary-searches the first intersecting session and
  /// reads the rest off the prefix sums.
  struct Session {
    sim::Round start = 0;
    sim::Round end = 0;
    int64_t cum_online = 0;
  };

  struct PeerHistory {
    sim::Round first_seen = -1;
    sim::Round online_since = -1;  // -1 when offline
    sim::Round last_seen = -1;     // last round online (end of last session)
    bool departed = false;
    // Closed sessions intersecting the history window.
    std::deque<Session> sessions;
  };

  void Prune(PeerHistory* h, sim::Round now) const;

  sim::Round history_window_;
  std::vector<PeerHistory> peers_;
  mutable QueryStats query_stats_;
};

}  // namespace monitor
}  // namespace p2p

#endif  // P2P_MONITOR_AVAILABILITY_MONITOR_H_
