// The simulated peer-to-peer backup network: the "state-of-the-art backup
// system" of paper section 2.2 running the lifetime-aware placement protocol
// of section 3.2 over the churn models of section 4.1.
//
// Implementation notes (performance):
//  * All high-frequency dynamics (session toggles, departures, partner
//    timeouts, category transitions) are calendar-queue events validated by
//    peer incarnation, so a round costs O(events), not O(peers).
//  * A partnership is a pair of cross-indexed links (owner side, host side)
//    with O(1) swap-removal; a host departing with hundreds of clients
//    severs all of them in linear time without scans.
//  * Both sides live in a flat, fixed-capacity row store: one row per peer
//    id, sized before the first round from bounds the protocol guarantees
//    (an owner holds at most n partners, a host at most quota_blocks normal
//    clients plus one block per observer added), with a dense per-row count
//    lane. Rows never reallocate once a round has run, and rows no peer has
//    filled yet are never written, so they cost no resident memory.
//  * "alive blocks" of an owner is by construction the size of its partner
//    row: a block exists exactly while its partnership does.

#ifndef P2P_BACKUP_NETWORK_H_
#define P2P_BACKUP_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backup/options.h"
#include "churn/profile.h"
#include "core/acceptance.h"
#include "core/lifetime_estimator.h"
#include "core/maintenance_policy.h"
#include "core/selection.h"
#include "core/strategy_registry.h"
#include "metrics/collector.h"
#include "monitor/availability_monitor.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "transfer/scheduler.h"
#include "util/logging.h"
#include "util/rng.h"

namespace p2p {
namespace backup {

/// Peer identifier; ids below the normal-slot capacity are normal peers,
/// ids above are observers.
using PeerId = uint32_t;

/// \brief One scheduled population perturbation, resolved to absolute
/// counts (compiled from a scenario workload; see scenario::CompileWorkload).
///
/// Applied at the start of round `at`, before any churn event of that round:
/// first `exits` uniformly chosen live peers depart definitively and are NOT
/// replaced, then `joins` fresh peers enter on previously unused id slots.
struct PopulationAdjustment {
  sim::Round at = 0;
  uint32_t joins = 0;
  uint32_t exits = 0;
};

/// Test/bench backdoor into the repair hot path (defined by the micro
/// benches and white-box tests that need to drive BuildPool/RunRepair in
/// isolation; production code must not use it).
struct HotPathProbe;

/// \brief The simulation network; attach to an Engine, add observers, run.
///
/// Results: the network does not own result structs of its own - it emits
/// typed events into a metrics::Collector (see metrics/collector.h), and
/// `metrics()` exposes that collector for totals, per-category accounting,
/// observer results, the daily series, and RunReport construction.
///
/// Hot-path layout (see README "Hot path"): candidate sampling runs on an
/// incrementally maintained dense eligible-candidate index (a partitioned
/// id array whose prefix is the live+online peers, swap-with-last updated
/// at every state transition), so a draw lands on an eligible peer by
/// construction - partial Fisher-Yates over the index replaces rejection
/// sampling over the id space. Dense SoA lanes (a one-byte eligibility
/// mask and a join-round lane) back the remaining per-draw filters, every
/// scratch buffer is a reused per-network member and partnerships live in
/// fixed-capacity rows, so a steady-state repair episode performs zero heap
/// allocations, and estimator scores are memoized per (peer, round).
class BackupNetwork {
 public:
  /// Candidate pool size as a multiple of the blocks needed ("once the pool
  /// is big enough"); the selection strategy then picks from the pool.
  static constexpr int kPoolFactor = 3;
  /// Candidate draws per pool slot before an episode gives up for the
  /// round. A draw never lands on a dead, offline or duplicate id, so in
  /// practice the eligible set runs dry first; this caps the quota-market
  /// and acceptance rejections of one episode.
  static constexpr int kDrawBudget = 8;
  /// Observers one network holds at most; sizes the id space above the
  /// normal slots (Scenario::Validate rejects longer observer lists).
  static constexpr uint32_t kMaxObservers = 64;

  /// Wires the network into `engine` (registers the round hook). The engine
  /// and profile set must outlive the network. `workload` is an optional
  /// round-sorted list of population perturbations (join waves, correlated
  /// exits); id slots for every scheduled join are reserved up front, so the
  /// candidate-sampling sequence of a workload-free run is byte-identical to
  /// the historical constant-population behaviour.
  BackupNetwork(sim::Engine* engine, const churn::ProfileSet* profiles,
                const SystemOptions& options,
                std::vector<PopulationAdjustment> workload = {});

  /// Adds an observer with the given frozen age; call before the first
  /// engine step. Returns its index into observers().
  size_t AddObserver(const std::string& name, sim::Round frozen_age);

  /// \name Results.
  /// @{
  /// Every measurement of the run: totals, accounting, observers, series,
  /// and BuildReport() for the registry-backed RunReport.
  const metrics::Collector& metrics() const { return collector_; }

  /// Availability monitor (read side; query statistics live there).
  const monitor::AvailabilityMonitor& monitor() const { return monitor_; }
  /// @}

  /// \name Introspection (tests, invariant checks).
  /// @{
  uint32_t total_ids() const { return static_cast<uint32_t>(peers_.size()); }
  /// Live normal peers right now (excludes observers and vacated slots);
  /// equals num_peers until a workload adjustment fires.
  int64_t LivePopulation() const { return live_count_; }
  /// True while `id` denotes a member of the system (observers included).
  bool IsLive(PeerId id) const { return peers_[id].live; }
  bool IsOnline(PeerId id) const { return peers_[id].online; }
  bool IsBackedUp(PeerId id) const { return peers_[id].backed_up; }
  int AliveBlocks(PeerId id) const {
    return static_cast<int>(partners_[id].size());
  }
  int VisibleBlocks(PeerId id) const { return visible_[id]; }
  int HostedBlocks(PeerId id) const { return peers_[id].hosted; }
  sim::Round AgeOf(PeerId id) const;
  uint32_t ProfileOf(PeerId id) const { return peers_[id].profile; }
  const SystemOptions& options() const { return options_; }
  /// The instantiated lifetime estimator (tests, reports).
  const core::LifetimeEstimator& estimator() const { return *estimator_; }
  /// Verifies every cross-index / quota / distinctness invariant; aborts on
  /// violation. O(population * partners); used by tests.
  void CheckInvariants() const;
  /// Population-wide state summary (diagnostics and tests).
  struct PopulationStats {
    double mean_partners = 0.0;  ///< mean owner-side partner count
    double mean_visible = 0.0;   ///< mean online partners per owner
    double mean_hosted = 0.0;    ///< mean quota consumption per host
    double online_fraction = 0.0;
    int64_t backed_up = 0;       ///< peers whose initial placement completed
  };
  PopulationStats ComputePopulationStats() const;
  /// Composition of one owner's current partner set (diagnostics).
  struct PartnerSetStats {
    int count = 0;
    double mean_nominal_availability = 0.0;  ///< profile availability
    double mean_age_days = 0.0;
    std::array<int, 8> profile_counts{};  ///< by profile index
  };
  PartnerSetStats ComputePartnerStats(PeerId owner) const;

  /// Always-on accounting of the candidate-sampling pass: every draw is
  /// attributed to exactly one outcome, so
  /// draws == reject_quota_full + reject_acceptance + accepted holds at all
  /// times - the quota market and the acceptance function are the only
  /// per-draw filters left. Since the eligible-candidate index landed
  /// (README "Hot path") a draw hits a live - and, in timeout mode, online -
  /// peer *by construction*, each episode draws each candidate at most once
  /// (partial Fisher-Yates samples without replacement), and the owner plus
  /// its current partners are swapped into the taken prefix of their
  /// segments before the first draw (index_partner_excluded counts those,
  /// per episode, not per draw). The historical reject_dup /
  /// reject_not_live / reject_offline buckets of the rejection sampler are
  /// therefore retired: those outcomes can no longer occur.
  /// Plain counters bumped in the hot loop; scenario reporting flushes them
  /// into the trace session once per run (the monitor QueryStats pattern).
  struct PoolStats {
    int64_t draws = 0;               ///< distinct candidates drawn from index
    int64_t index_partner_excluded = 0;  ///< pre-taken: self or a partner
    int64_t reject_quota_full = 0;   ///< no quota and no market displacement
    int64_t reject_acceptance = 0;   ///< failed the mutual acceptance draw
    int64_t accepted = 0;            ///< entered the candidate pool
    int64_t index_exhausted = 0;     ///< episodes that drained the whole lane
    int64_t score_memo_hits = 0;     ///< pool scores served from the memo
    int64_t score_evals = 0;         ///< pool scores computed fresh
  };
  const PoolStats& pool_stats() const { return pool_stats_; }

  /// \name Eligible-candidate index introspection (tests, diagnostics).
  /// @{
  /// The dense candidate id array: every live normal peer exactly once,
  /// live+online peers in [0, candidate_online_count()), live+offline in
  /// the remainder. Entry order is arbitrary (it carries the scars of every
  /// swap-with-last update and partial shuffle) but deterministic.
  const std::vector<PeerId>& candidate_index() const { return cand_index_; }
  uint32_t candidate_online_count() const { return cand_online_; }
  /// @}

  /// The transfer scheduler when `options.transfer_link` names a link, else
  /// null (instant repairs). Stats are flushed to trace counters by the
  /// scenario layer.
  const transfer::TransferScheduler* transfer() const {
    return transfer_.get();
  }
  /// @}

 private:
  friend struct HotPathProbe;
  // Owner side of a partnership. Scenario validation caps a run at
  // sim::kMaxRunRounds, so the round a partnership formed fits 32 bits;
  // AddPartnership checks it where it narrows.
  struct Link {
    PeerId peer;       // the host storing the block
    uint32_t back;     // index of the twin ClientLink in the host's row
    uint32_t formed;   // round the partnership was created (lifetime probe)
  };
  static_assert(sizeof(Link) == 12, "owner rows hold 12-byte links");
  // Host side of a partnership: nothing reads when it formed, so it is half
  // the size of the owner side.
  struct ClientLink {
    PeerId owner;      // the peer whose block is stored
    uint32_t back;     // index of the twin Link in the owner's row
  };

  /// Flat, fixed-capacity link store: row r holds at most width() links at
  /// a fixed offset, and its length lives in a dense count lane. Allocated
  /// once and default-initialised rather than zero-filled, so a row nobody
  /// has written never becomes resident. Reads go through Row, a view that
  /// reads like the vector it replaces; writes through At/Append/PopBack.
  template <typename T>
  class LinkRows {
   public:
    /// One row, valid until that row's length changes.
    struct Row {
      const T* first;
      uint32_t count;
      const T* begin() const { return first; }
      const T* end() const { return first + count; }
      uint32_t size() const { return count; }
      bool empty() const { return count == 0; }
      const T& operator[](uint32_t i) const { return first[i]; }
      const T& back() const { return first[count - 1]; }
    };

    /// Sizes the store for `rows` rows of `width` links; aborts when the
    /// byte count would overflow size_t.
    void Allocate(size_t rows, size_t width) {
      P2P_CHECK(width <= UINT32_MAX);
      P2P_CHECK(width == 0 || rows <= SIZE_MAX / sizeof(T) / width);
      width_ = width;
      count_.assign(rows, 0);
      data_.reset(new T[rows * width]);  // default-init: pages stay untouched
    }
    size_t rows() const { return count_.size(); }
    size_t width() const { return width_; }
    // DETLINT: hot-path-begin
    Row operator[](PeerId r) const { return Row{Data(r), count_[r]}; }
    T& At(PeerId r, uint32_t i) { return Data(r)[i]; }
    void Append(PeerId r, const T& link) {
      P2P_CHECK(count_[r] < width_);  // the protocol bound was violated
      Data(r)[count_[r]++] = link;
    }
    void PopBack(PeerId r) { --count_[r]; }

   private:
    T* Data(PeerId r) const { return data_.get() + size_t{r} * width_; }
    // DETLINT: hot-path-end
    std::unique_ptr<T[]> data_;
    std::vector<uint32_t> count_;
    size_t width_ = 0;
  };

  struct PeerState {
    uint32_t profile = 0;
    uint32_t incarnation = 0;
    // Member of the system right now. False for join slots that have not
    // been activated yet and for slots vacated by a mass exit.
    bool live = false;
    sim::Round join_round = 0;
    sim::Round departure_round = sim::kNever;
    sim::Round next_toggle = sim::kNever;
    sim::Round offline_since = -1;
    sim::Round last_repair = -1;
    bool online = false;
    bool backed_up = false;
    bool needs_repair = false;
    bool in_repair_queue = false;
    bool episode_active = false;
    // A transfer job for this peer is queued in the scheduler; the repair
    // flag stays set (vulnerability accrues) until the job completes.
    bool transfer_pending = false;
    // Blocks placed by the current/most recent episode; sizes the upload
    // phase of the episode's transfer job.
    int episode_placed = 0;
    // Block level the active repair episode restores to (the policy's
    // restore_to verdict, clamped to [k, n]); n for initial placements.
    int episode_target = 0;
    sim::Round frozen_age = 0;  // observers only
    int hosted = 0;             // quota consumed by non-observer clients
    int observer_clients = 0;   // observer-owned blocks on this host
    // Join round of the youngest normal client; -1 none, -2 stale cache.
    sim::Round newest_client_join = -1;
    // Loss-rate EMA for adaptive/proactive policies.
    double loss_rate = 0.0;
    sim::Round loss_rate_at = 0;
  };

  struct Event {
    PeerId id;
    uint32_t incarnation;
    sim::Round stamp;  // toggle: due round; timeout: offline_since; else 0
  };

  // --- lifecycle ---
  void BootstrapPopulation();
  void InitPeer(PeerId id, sim::Round now);
  /// `replace` keeps the population constant (the paper's model); workload
  /// mass exits pass false and leave the slot vacant.
  void DepartPeer(PeerId id, sim::Round now, bool replace = true);
  /// Executes one workload adjustment: exits, then joins.
  void ApplyAdjustment(const PopulationAdjustment& adj, sim::Round now);

  // --- round processing ---
  void OnRound(sim::Round now);
  void ProcessToggle(const Event& e, sim::Round now);
  void ProcessDeparture(const Event& e, sim::Round now);
  void ProcessTimeout(const Event& e, sim::Round now);
  void ProcessCategory(const Event& e, sim::Round now);
  void ProcessRepairs(sim::Round now);
  void RunRepair(PeerId id, sim::Round now);
  /// Schedules `e` on `queue` `delay` rounds after `from`, unless that
  /// lands at or past the end round, where it could never fire; returns
  /// whether it was scheduled. `from` must not lie past the end round.
  /// Leaving such events out bounds every ring by the run length instead of
  /// by the farthest draw (a heavy-tailed lifetime lands millions of rounds
  /// out), and comparing before adding means `from + delay` is never formed
  /// when it would overflow.
  bool ScheduleAfter(sim::CalendarQueue<Event>* queue, sim::Round from,
                     sim::Round delay, const Event& e) {
    if (delay >= engine_->end_round() - from) return false;
    queue->Schedule(from + delay, e);
    return true;
  }

  // --- transfer scheduling (a transfer link is set) ---
  /// Advances the scheduler one round and applies completions.
  void ProcessTransfers(sim::Round now);
  /// A job's last byte moved: clear the repair flag, record metrics, re-flag
  /// if the world degraded while the transfer ran.
  void OnTransferComplete(const transfer::TransferCompletion& completion,
                          sim::Round now);

  // --- partnership maintenance ---
  void AddPartnership(PeerId owner, PeerId host);
  void RemovePartnerAt(PeerId owner, uint32_t index, bool release_quota = true);
  void SeverAsHost(PeerId host, sim::Round now);    // clients lose blocks
  void SeverAsOwner(PeerId owner);                  // hosts free quota
  void OnBlocksLost(PeerId owner, int count, sim::Round now);
  void HandleArchiveLoss(PeerId owner, sim::Round now);

  // --- repair helpers ---
  void FlagForRepair(PeerId id);
  void EnqueueRepair(PeerId id);
  int BuildPool(PeerId owner, int needed, std::vector<core::Candidate>* pool);
  void BumpLossRate(PeerId id, int events, sim::Round now);
  double ReadLossRate(PeerId id, sim::Round now) const;
  /// The quantity the repair policy watches: online partners in instant
  /// mode, non-written-off partners in timeout mode.
  int VisibleBasis(PeerId id) const;
  /// Evicts up to `count` offline partners (instant mode: a maintenance
  /// repair replaces the blocks that were unreachable when it triggered).
  /// Returns the number evicted.
  int EvictOfflinePartners(PeerId owner, int count);
  /// Join round that orders peers by age for the quota market; observers
  /// rank by their frozen age.
  sim::Round EffectiveJoin(PeerId id) const;
  /// Age saturated at the horizon L: the market currency. Peers older than
  /// L are equivalent ("not much different") and can never displace each
  /// other.
  sim::Round MarketAge(PeerId id) const;
  /// Youngest (largest) effective join among `host`'s clients; -1 if none.
  /// Refreshes the lazy cache.
  sim::Round YoungestClientJoin(PeerId host);
  /// Quota-market eviction: drops the youngest client of `host` if it is
  /// strictly younger than `newer_than`. Returns true when a slot opened.
  bool TryEvictYoungestClient(PeerId host, sim::Round newer_than, sim::Round now);
  /// Places one block on `host`, evicting through the quota market if the
  /// host is full. Returns false when no capacity could be obtained.
  bool TryPlaceBlock(PeerId owner, PeerId host, sim::Round now);
  /// Observers take the ids above every normal slot.
  bool IsObserverId(PeerId id) const { return id >= normal_slots_; }
  bool instant_visibility() const {
    return options_.visibility == VisibilityModel::kInstantOnline;
  }

  metrics::AgeCategory CategoryAt(PeerId id, sim::Round now) const;

  sim::Engine* engine_;
  const churn::ProfileSet* profiles_;
  SystemOptions options_;
  // Normal-peer id slots: the initial population plus one reserved slot per
  // scheduled workload join. Observers live above this bound.
  uint32_t normal_slots_ = 0;
  uint32_t next_join_slot_ = 0;  // first never-used slot
  int64_t live_count_ = 0;
  std::vector<PopulationAdjustment> workload_;
  size_t workload_next_ = 0;
  std::unique_ptr<core::SelectionStrategy> selection_;
  std::unique_ptr<core::MaintenancePolicy> policy_;
  std::unique_ptr<core::LifetimeEstimator> estimator_;
  core::AcceptanceFunction acceptance_;
  int flag_level_ = 0;     // visible level below which repair is evaluated

  util::Rng* churn_rng_;
  util::Rng* place_rng_;

  std::vector<PeerState> peers_;
  LinkRows<Link> partners_;       // owner -> hosts of its blocks
  LinkRows<ClientLink> clients_;  // host -> owners it stores for
  // Partners online right now (instant mode), one dense lane so a toggling
  // host's loop over its clients stays in cache.
  std::vector<int> visible_;

  sim::CalendarQueue<Event> toggles_;
  sim::CalendarQueue<Event> departures_;
  sim::CalendarQueue<Event> timeouts_;
  sim::CalendarQueue<Event> category_events_;
  sim::CalendarQueue<Event> quota_releases_;  // departure-grace quota ghosts

  std::vector<PeerId> repair_queue_;
  std::vector<PeerId> scratch_queue_;
  std::vector<PeerId> scratch_owners_;

  // --- repair hot path (candidate index, SoA lanes, scratch, memo) ---
  // Eligibility bits mirrored out of PeerState so the sampling pass touches
  // one dense byte per candidate instead of a ~100-byte struct. Maintained
  // by RefreshElig at every site that flips live/online or moves hosted
  // across the quota boundary; CheckInvariants cross-checks the mirror.
  static constexpr uint8_t kEligLive = 1u << 0;
  static constexpr uint8_t kEligOnline = 1u << 1;
  static constexpr uint8_t kEligQuotaFull = 1u << 2;

  // Eligible-candidate index: a dense partitioned id array holding every
  // live normal peer exactly once - [0, cand_online_) live AND online, the
  // rest live but offline - with cand_pos_ mapping id -> position
  // (kCandAbsent while not a member). Every update is an O(1) boundary/last
  // swap driven by the eligibility diff RefreshElig computes anyway, so
  // "maintain the index" rides the exact transition sites the SoA lanes
  // already instrument (join, departure, online toggle, placement, quota
  // release) and can never drift onto a site of its own. BuildPool samples
  // without replacement by partial Fisher-Yates over the lane prefix, so a
  // draw lands on an eligible peer by construction and the draw budget
  // scales with the eligible set, not the population.
  static constexpr uint32_t kCandAbsent = UINT32_MAX;
  // DETLINT: hot-path-begin
  void CandSwap(uint32_t a, uint32_t b) {
    if (a == b) return;
    std::swap(cand_index_[a], cand_index_[b]);
    cand_pos_[cand_index_[a]] = a;
    cand_pos_[cand_index_[b]] = b;
  }
  void CandInsert(PeerId id, bool online) {
    cand_pos_[id] = static_cast<uint32_t>(cand_index_.size());
    // DETLINT-ALLOW(hot-path-alloc): reserved to normal_slots_ at construction (network.cc); IndexMaintenanceNeverReallocates locks capacity identity
    cand_index_.push_back(id);  // never reallocates: reserved to normal_slots_
    if (online) {
      CandSwap(cand_pos_[id], cand_online_);
      ++cand_online_;
    }
  }
  void CandRemove(PeerId id) {
    uint32_t p = cand_pos_[id];
    if (p < cand_online_) {  // first retreat the online boundary over it
      CandSwap(p, cand_online_ - 1);
      --cand_online_;
      p = cand_online_;
    }
    CandSwap(p, static_cast<uint32_t>(cand_index_.size()) - 1);
    cand_index_.pop_back();
    cand_pos_[id] = kCandAbsent;
  }
  void CandSetOnline(PeerId id, bool online) {
    if (online) {
      CandSwap(cand_pos_[id], cand_online_);
      ++cand_online_;
    } else {
      CandSwap(cand_pos_[id], cand_online_ - 1);
      --cand_online_;
    }
  }

  /// Refreshes the eligibility byte of `id` from PeerState and applies the
  /// live/online diff to the candidate index. Call after ANY mutation of
  /// live, online, or hosted; redundant calls are cheap no-ops.
  void RefreshElig(PeerId id) {
    const PeerState& p = peers_[id];
    const uint8_t was = elig_[id];
    const uint8_t cur = static_cast<uint8_t>(
        (p.live ? kEligLive : 0) | (p.online ? kEligOnline : 0) |
        (p.hosted >= options_.quota_blocks ? kEligQuotaFull : 0));
    elig_[id] = cur;
    if (IsObserverId(id)) return;  // observers are never candidates
    const uint8_t flip = was ^ cur;
    if ((flip & (kEligLive | kEligOnline)) == 0) return;
    if ((flip & kEligLive) != 0) {
      if ((cur & kEligLive) != 0) {
        CandInsert(id, (cur & kEligOnline) != 0);
      } else {
        CandRemove(id);
      }
    } else if ((cur & kEligLive) != 0) {
      CandSetOnline(id, (cur & kEligOnline) != 0);
    }
  }
  // DETLINT: hot-path-end
  std::vector<PeerId> cand_index_;
  std::vector<uint32_t> cand_pos_;
  uint32_t cand_online_ = 0;
  std::vector<uint8_t> elig_;
  // join_round lane: the only PeerState field the accept path of the
  // sampling loop still needs (candidate age). Observers never appear as
  // candidates, so the lane holds plain join rounds, not EffectiveJoin.
  std::vector<sim::Round> join_lane_;

  // Per-round stability-score memo. Safe because the only input of a score
  // that changes - monitor history (RecordConnect/Disconnect/Join/Departure)
  // - mutates only in the adjustment/churn phases, which run strictly before
  // the repairs phase that computes scores; within one repairs phase a
  // peer's score is constant.
  std::vector<sim::Round> score_round_;  // round the memo entry is valid for
  std::vector<double> score_val_;

  // Episode scratch, reused so steady-state repairs never allocate.
  std::vector<core::Candidate> scratch_pool_;
  std::vector<uint32_t> scratch_chosen_;

  PoolStats pool_stats_;

  // Transfer scheduling (null in instant mode). The directory adapter gives
  // the scheduler a read-only view of online state and partner links.
  class TransferDirectory : public transfer::PeerDirectory {
   public:
    explicit TransferDirectory(const BackupNetwork* net) : net_(net) {}
    bool Online(transfer::PeerId id) const override {
      return net_->peers_[id].live && net_->peers_[id].online;
    }
    void AppendSources(transfer::PeerId owner,
                       std::vector<transfer::PeerId>* out) const override {
      for (const Link& link : net_->partners_[owner]) out->push_back(link.peer);
    }

   private:
    const BackupNetwork* net_;
  };
  std::unique_ptr<transfer::TransferScheduler> transfer_;
  std::vector<transfer::TransferCompletion> transfer_done_;  // Tick scratch.

  monitor::AvailabilityMonitor monitor_;
  metrics::Collector collector_;
};

}  // namespace backup
}  // namespace p2p

#endif  // P2P_BACKUP_NETWORK_H_
