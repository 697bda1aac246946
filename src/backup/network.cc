#include "backup/network.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"
#include "transfer/link.h"
#include "util/logging.h"

namespace p2p {
namespace backup {
namespace {

// Distinct RNG stream purposes (arbitrary fixed ids; see Engine::Stream).
constexpr uint64_t kChurnStream = 0x11;
constexpr uint64_t kPlacementStream = 0x22;

// Loss-rate EMA time constant for the adaptive and proactive policies.
constexpr double kLossRateTau = 14 * sim::kRoundsPerDay;

// Archive size for the transfer scheduler's cost model (paper 2.2.4:
// "a typical data amount of 128 MB per archive").
constexpr uint64_t kArchiveBytes = 128ull << 20;

}  // namespace

namespace {

// Id slots that must be reserved above num_peers so every scheduled join
// wave finds a fresh slot (exited slots are never reused).
uint32_t TotalScheduledJoins(const std::vector<PopulationAdjustment>& workload) {
  uint64_t joins = 0;
  for (const PopulationAdjustment& adj : workload) joins += adj.joins;
  P2P_CHECK(joins <= UINT32_MAX);
  return static_cast<uint32_t>(joins);
}

}  // namespace

BackupNetwork::BackupNetwork(sim::Engine* engine,
                             const churn::ProfileSet* profiles,
                             const SystemOptions& options,
                             std::vector<PopulationAdjustment> workload)
    : engine_(engine),
      profiles_(profiles),
      options_(options),
      normal_slots_(options.num_peers + TotalScheduledJoins(workload)),
      next_join_slot_(options.num_peers),
      workload_(std::move(workload)),
      acceptance_(options.acceptance_horizon),
      churn_rng_(engine->Stream(kChurnStream)),
      place_rng_(engine->Stream(kPlacementStream)),
      monitor_(normal_slots_ + kMaxObservers),
      collector_(normal_slots_ + kMaxObservers) {
  const util::Status valid = options.Validate();
  if (!valid.ok()) {
    P2P_LOG_ERROR("invalid SystemOptions: %s", valid.ToString().c_str());
  }
  P2P_CHECK(valid.ok());
  for (size_t i = 1; i < workload_.size(); ++i) {
    P2P_CHECK(workload_[i - 1].at <= workload_[i].at);  // round-sorted
  }
  const int n_total = options.k + options.m;
  core::StrategyEnv env;
  env.k = options.k;
  env.n = n_total;
  env.repair_threshold = options.repair_threshold;
  env.acceptance_horizon = options.acceptance_horizon;
  auto policy = core::MakePolicy(options.policy, env);
  auto selection = core::MakeSelection(options.selection);
  auto estimator = core::MakeEstimator(options.estimator, env);
  // Validate() above vetted the specs against the registry; MakePolicy /
  // MakeEstimator can still reject a cross-parameter check once contextual
  // defaults resolve against this run's options, so name the reason before
  // dying.
  if (!policy.ok()) {
    P2P_LOG_ERROR("policy spec '%s': %s", options.policy.ToString().c_str(),
                  policy.status().ToString().c_str());
  }
  if (!estimator.ok()) {
    P2P_LOG_ERROR("estimator spec '%s': %s",
                  options.estimator.ToString().c_str(),
                  estimator.status().ToString().c_str());
  }
  P2P_CHECK(policy.ok());
  P2P_CHECK(selection.ok());
  P2P_CHECK(estimator.ok());
  policy_ = std::move(*policy);
  selection_ = std::move(*selection);
  estimator_ = std::move(*estimator);
  flag_level_ = policy_->FlagLevel(options.k, n_total);

  if (!options_.transfer_link.empty()) {
    const util::Result<transfer::LinkProfile> link =
        transfer::FindLinkProfile(options_.transfer_link);
    P2P_CHECK(link.ok());  // Validate() vetted the name above
    transfer_ = std::make_unique<transfer::TransferScheduler>(
        *link, normal_slots_ + kMaxObservers, kArchiveBytes, options_.k,
        options_.m);
  }

  peers_.resize(normal_slots_);
  // Partnership rows (README "Hot path"), one per id, observers included.
  // Placement stops at episode_target <= n, so an owner holds at most n
  // partners, all distinct normal peers. A host holds at most quota_blocks
  // normal clients - TryPlaceBlock never lets hosted pass the quota, and
  // ghost quota only shrinks the room - plus at most one block per
  // observer, the only blocks allowed past the quota; AddObserver widens
  // the host rows by one for each. Both widths are clamped by the
  // population, so no geometry can outgrow the id space.
  const size_t id_space = size_t{normal_slots_} + kMaxObservers;
  const size_t n_blocks =
      static_cast<size_t>(options.k) + static_cast<size_t>(options.m);
  partners_.Allocate(id_space, std::min<size_t>(n_blocks, normal_slots_));
  clients_.Allocate(id_space,
                    std::min<size_t>(static_cast<size_t>(options.quota_blocks),
                                     normal_slots_));
  // Hot-path lanes and scratch (README "Hot path"): all-zero eligibility is
  // correct for the not-yet-live slots peers_.resize() just created, and -1
  // marks every score-memo entry invalid (rounds start at 0).
  visible_.assign(id_space, 0);
  elig_.assign(normal_slots_ + kMaxObservers, 0);
  join_lane_.assign(normal_slots_ + kMaxObservers, 0);
  score_round_.assign(normal_slots_ + kMaxObservers, -1);
  score_val_.assign(normal_slots_ + kMaxObservers, 0.0);
  // Eligible-candidate index: empty until BootstrapPopulation below inserts
  // the initial members via RefreshElig. Reserved to the id-space bound so
  // CandInsert never reallocates - the zero-allocation episode guarantee
  // (hotpath_alloc_test) extends to index maintenance.
  cand_pos_.assign(normal_slots_, kCandAbsent);
  cand_index_.reserve(normal_slots_);

  BootstrapPopulation();
  engine_->AddRoundHook([this](sim::Round now) { OnRound(now); });
}

void BackupNetwork::BootstrapPopulation() {
  for (PeerId id = 0; id < options_.num_peers; ++id) {
    InitPeer(id, 0);
  }
}

size_t BackupNetwork::AddObserver(const std::string& name, sim::Round frozen_age) {
  P2P_CHECK(engine_->now() == 0);
  P2P_CHECK(collector_.observers().size() < kMaxObservers);
  // Room for this observer's one block per host. No round has run, so no
  // block is placed yet and the empty client store can be re-sized.
  clients_.Allocate(clients_.rows(), clients_.width() + 1);
  const PeerId id = static_cast<PeerId>(peers_.size());
  peers_.emplace_back();
  PeerState& p = peers_.back();
  p.live = true;
  p.frozen_age = frozen_age;
  p.online = true;
  p.needs_repair = true;
  RefreshElig(id);  // observers are never candidates, but the lane mirrors
                    // every id so CheckInvariants stays uniform
  monitor_.RecordJoin(id, 0);
  monitor_.RecordConnect(id, 0);
  EnqueueRepair(id);
  return collector_.AddObserver(name, frozen_age);
}

void BackupNetwork::InitPeer(PeerId id, sim::Round now) {
  PeerState& p = peers_[id];
  const uint32_t incarnation = p.incarnation;  // bumped by DepartPeer
  p = PeerState();
  p.incarnation = incarnation;
  p.live = true;
  ++live_count_;
  p.profile = profiles_->SampleIndex(churn_rng_);
  p.join_round = now;
  visible_[id] = 0;

  const churn::Profile& profile = (*profiles_)[p.profile];
  // A departure the run never reaches (an unlimited lifetime included)
  // keeps departure_round at kNever.
  const sim::Round lifetime = profile.lifetime->Sample(churn_rng_);
  if (ScheduleAfter(&departures_, now, lifetime, Event{id, incarnation, 0})) {
    p.departure_round = now + lifetime;
  }

  // A fresh peer starts online (the user just installed / reinstalled).
  p.online = true;
  monitor_.RecordJoin(id, now);
  monitor_.RecordConnect(id, now);
  const sim::Round on_len = profile.sessions.SampleOnline(churn_rng_);
  p.next_toggle = now + on_len;
  ScheduleAfter(&toggles_, now, on_len, Event{id, incarnation, p.next_toggle});

  collector_.PeerEntered(metrics::AgeCategory::kNewcomer);
  ScheduleAfter(&category_events_, now, metrics::NextBoundary(0),
                Event{id, incarnation, 0});

  // The initial placement is "a repair where d = n" (paper 3.2).
  p.needs_repair = true;
  collector_.OnRepairFlagged(id, now);
  EnqueueRepair(id);

  join_lane_[id] = now;
  RefreshElig(id);
}

void BackupNetwork::DepartPeer(PeerId id, sim::Round now, bool replace) {
  PeerState& p = peers_[id];
  if (transfer_ && p.transfer_pending) {
    // The machine is gone; its queued transfer dies with it.
    transfer_->Cancel(id);
    p.transfer_pending = false;
  }
  --live_count_;
  collector_.OnDeparture(id, CategoryAt(id, now));
  monitor_.RecordDeparture(id, now);

  // The machine is gone: every block it hosted disappears now.
  SeverAsHost(id, now);

  // Its own backup: partners learn of the departure and free the space -
  // immediately in the paper, after a grace period as future work.
  if (options_.departure_grace > 0 && !IsObserverId(id)) {
    // Sever the metadata now but keep the hosts' quota consumed ("ghost
    // quota") until the grace period elapses.
    while (!partners_[id].empty()) {
      const uint32_t last = partners_[id].size() - 1;
      const PeerId host = partners_[id][last].peer;
      ScheduleAfter(&quota_releases_, now, options_.departure_grace,
                    Event{host, peers_[host].incarnation, 0});
      RemovePartnerAt(id, last, /*release_quota=*/false);
    }
  } else {
    SeverAsOwner(id);
  }

  ++p.incarnation;  // invalidates every scheduled event of the old peer
  if (!replace) {
    // Workload exit: the slot stays vacant (dead slots are skipped by the
    // candidate sampler and are never reused).
    const uint32_t incarnation = p.incarnation;
    p = PeerState();
    p.incarnation = incarnation;
    visible_[id] = 0;
    RefreshElig(id);
    return;
  }
  InitPeer(id, now);  // immediate replacement (paper 4.1)
}

void BackupNetwork::ApplyAdjustment(const PopulationAdjustment& adj,
                                    sim::Round now) {
  if (adj.exits > 0) {
    // A correlated departure wave: `exits` distinct live peers chosen
    // uniformly (partial Fisher-Yates over the live slot list, driven by
    // the churn stream so runs stay reproducible). Local vector: DepartPeer
    // clobbers the shared scratch buffers.
    std::vector<PeerId> live;
    live.reserve(static_cast<size_t>(live_count_));
    for (PeerId id = 0; id < normal_slots_; ++id) {
      if (peers_[id].live) live.push_back(id);
    }
    P2P_CHECK(adj.exits <= live.size());
    // Batch-select then act: DepartPeer(replace=false) draws no churn
    // randomness, so shuffling the whole prefix first consumes the stream
    // exactly like the historical interleaved select/depart loop.
    churn_rng_->ShufflePrefix(&live, adj.exits);
    for (uint32_t i = 0; i < adj.exits; ++i) {
      DepartPeer(live[i], now, /*replace=*/false);
    }
  }
  for (uint32_t i = 0; i < adj.joins; ++i) {
    P2P_CHECK(next_join_slot_ < normal_slots_);
    InitPeer(next_join_slot_++, now);
  }
}

void BackupNetwork::OnRound(sim::Round now) {
  TRACE_SCOPE("round");
  {
    TRACE_SCOPE("round/adjustments");
    while (workload_next_ < workload_.size() &&
           workload_[workload_next_].at <= now) {
      ApplyAdjustment(workload_[workload_next_], now);
      ++workload_next_;
    }
  }
  {
    TRACE_SCOPE("round/churn");
    departures_.DrainInto(now,
                          [&](const Event& e) { ProcessDeparture(e, now); });
    toggles_.DrainInto(now, [&](const Event& e) { ProcessToggle(e, now); });
    timeouts_.DrainInto(now, [&](const Event& e) { ProcessTimeout(e, now); });
    quota_releases_.DrainInto(now, [&](const Event& e) {
      if (peers_[e.id].incarnation == e.incarnation &&
          peers_[e.id].hosted > 0) {
        --peers_[e.id].hosted;
        RefreshElig(e.id);
      }
    });
    category_events_.DrainInto(
        now, [&](const Event& e) { ProcessCategory(e, now); });
  }
  if (transfer_) {
    TRACE_SCOPE("round/transfers");
    ProcessTransfers(now);
  }
  {
    TRACE_SCOPE("round/repairs");
    ProcessRepairs(now);
  }
  {
    TRACE_SCOPE("round/tick");
    collector_.OnRoundTick(now);
  }
}

// DETLINT: hot-path-begin
void BackupNetwork::ProcessToggle(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation || p.next_toggle != now || IsObserverId(e.id)) {
    return;  // stale
  }
  const churn::Profile& profile = (*profiles_)[p.profile];
  sim::Round session_len = 0;
  if (p.online) {
    p.online = false;
    p.offline_since = now;
    monitor_.RecordDisconnect(e.id, now);
    if (instant_visibility()) {
      // Every owner storing on this peer sees one fewer visible block.
      for (const ClientLink& c : clients_[e.id]) {
        if (--visible_[c.owner] < flag_level_) FlagForRepair(c.owner);
      }
    } else {
      // If it stays unreachable past the timeout, partners presume
      // departure: the probe runs partner_timeout rounds after the first
      // round it is missed.
      ScheduleAfter(&timeouts_, now + 1, options_.partner_timeout,
                    Event{e.id, p.incarnation, now});
    }
    session_len = profile.sessions.SampleOffline(churn_rng_);
  } else {
    p.online = true;
    p.offline_since = -1;
    monitor_.RecordConnect(e.id, now);
    if (instant_visibility()) {
      for (const ClientLink& c : clients_[e.id]) ++visible_[c.owner];
    }
    if (p.needs_repair) EnqueueRepair(e.id);
    session_len = profile.sessions.SampleOnline(churn_rng_);
  }
  p.next_toggle = now + session_len;
  RefreshElig(e.id);
  ScheduleAfter(&toggles_, now, session_len,
                Event{e.id, p.incarnation, p.next_toggle});
}
// DETLINT: hot-path-end

void BackupNetwork::ProcessDeparture(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation || p.departure_round != now) return;
  DepartPeer(e.id, now);
}

void BackupNetwork::ProcessTimeout(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation) return;   // departed meanwhile
  if (p.online || p.offline_since != e.stamp) return;  // reconnected since
  // Unreachable for more than partner_timeout rounds: every owner storing on
  // this peer writes the blocks off and will repair.
  collector_.OnTimeout(static_cast<int64_t>(clients_[e.id].size()));
  SeverAsHost(e.id, now);
}

void BackupNetwork::ProcessCategory(const Event& e, sim::Round now) {
  PeerState& p = peers_[e.id];
  if (p.incarnation != e.incarnation) return;
  const sim::Round age = now - p.join_round;
  const metrics::AgeCategory from = metrics::CategoryOf(age - 1);
  const metrics::AgeCategory to = metrics::CategoryOf(age);
  if (from != to) collector_.PeerAdvanced(from, to);
  ScheduleAfter(&category_events_, p.join_round, metrics::NextBoundary(age),
                Event{e.id, e.incarnation, 0});
}

// DETLINT: hot-path-begin
void BackupNetwork::AddPartnership(PeerId owner, PeerId host) {
  const sim::Round now = engine_->now();
  P2P_CHECK(now <= UINT32_MAX);  // Link::formed is 32 bits
  partners_.Append(owner, Link{host, clients_[host].size(),
                               static_cast<uint32_t>(now)});
  clients_.Append(host, ClientLink{owner, partners_[owner].size() - 1});
  PeerState& h = peers_[host];
  if (!IsObserverId(owner)) {
    ++h.hosted;
    h.newest_client_join = std::max(h.newest_client_join, join_lane_[owner]);
  } else {
    ++h.observer_clients;
  }
  RefreshElig(host);  // hosted may have crossed the quota boundary
  if (instant_visibility() && h.online) ++visible_[owner];
}

void BackupNetwork::RemovePartnerAt(PeerId owner, uint32_t index,
                                    bool release_quota) {
  const Link link = partners_[owner][index];
  const PeerId host = link.peer;
  const uint32_t j = link.back;
  const bool observer = IsObserverId(owner);
  // Observer-owned partnerships are excluded from the lifetime probe, like
  // every other observer-side measurement.
  if (!observer) collector_.OnPartnershipEnded(engine_->now() - link.formed);
  // Swap-remove the twin on the host side.
  if (j + 1 != clients_[host].size()) {
    const ClientLink moved = clients_[host].back();
    clients_.At(host, j) = moved;
    partners_.At(moved.owner, moved.back).back = j;
  }
  clients_.PopBack(host);
  // Swap-remove on the owner side.
  if (index + 1 != partners_[owner].size()) {
    const Link moved = partners_[owner].back();
    partners_.At(owner, index) = moved;
    clients_.At(moved.peer, moved.back).back = index;
  }
  partners_.PopBack(owner);
  PeerState& h = peers_[host];
  if (!observer) {
    if (release_quota && h.hosted > 0) --h.hosted;
    if (join_lane_[owner] >= h.newest_client_join) {
      h.newest_client_join = -2;  // stale; recomputed lazily on demand
    }
  } else if (h.observer_clients > 0) {
    --h.observer_clients;
  }
  RefreshElig(host);  // hosted may have crossed back under the quota
  if (instant_visibility() && h.online && visible_[owner] > 0) {
    --visible_[owner];
  }
}
// DETLINT: hot-path-end

void BackupNetwork::SeverAsHost(PeerId host, sim::Round now) {
  scratch_owners_.clear();
  while (!clients_[host].empty()) {
    const ClientLink c = clients_[host].back();
    scratch_owners_.push_back(c.owner);
    RemovePartnerAt(c.owner, c.back);
  }
  for (PeerId owner : scratch_owners_) OnBlocksLost(owner, 1, now);
}

void BackupNetwork::SeverAsOwner(PeerId owner) {
  while (!partners_[owner].empty()) {
    RemovePartnerAt(owner, partners_[owner].size() - 1);
  }
}

void BackupNetwork::OnBlocksLost(PeerId owner, int count, sim::Round now) {
  PeerState& p = peers_[owner];
  BumpLossRate(owner, count, now);
  if (!instant_visibility()) {
    // Written-off blocks are gone for good: below k the archive cannot be
    // decoded any more.
    const int alive = static_cast<int>(partners_[owner].size());
    if (p.backed_up && alive < options_.k) {
      HandleArchiveLoss(owner, now);
      return;
    }
  }
  if (VisibleBasis(owner) < flag_level_ || p.episode_active) FlagForRepair(owner);
}

int BackupNetwork::VisibleBasis(PeerId id) const {
  return instant_visibility() ? visible_[id]
                              : static_cast<int>(partners_[id].size());
}

sim::Round BackupNetwork::EffectiveJoin(PeerId id) const {
  const PeerState& p = peers_[id];
  return IsObserverId(id) ? engine_->now() - p.frozen_age : p.join_round;
}

sim::Round BackupNetwork::MarketAge(PeerId id) const {
  // Normal peers read the dense join lane (the quota market's hot loop
  // calls this once per client); observers keep their frozen age.
  const sim::Round age = IsObserverId(id) ? peers_[id].frozen_age
                                          : engine_->now() - join_lane_[id];
  return std::min(age, options_.acceptance_horizon);
}

sim::Round BackupNetwork::YoungestClientJoin(PeerId host) {
  PeerState& h = peers_[host];
  if (h.newest_client_join == -2) {
    h.newest_client_join = -1;
    for (const ClientLink& c : clients_[host]) {
      if (!IsObserverId(c.owner)) {
        h.newest_client_join =
            std::max(h.newest_client_join, join_lane_[c.owner]);
      }
    }
  }
  sim::Round youngest = h.newest_client_join;
  if (h.observer_clients > 0) {
    for (const ClientLink& c : clients_[host]) {
      if (IsObserverId(c.owner)) {
        youngest = std::max(youngest, EffectiveJoin(c.owner));
      }
    }
  }
  return youngest;
}

// DETLINT: hot-path-begin
bool BackupNetwork::TryEvictYoungestClient(PeerId host, sim::Round newer_than,
                                           sim::Round now) {
  const LinkRows<ClientLink>::Row cl = clients_[host];
  uint32_t best = UINT32_MAX;
  sim::Round best_age = newer_than;  // the victim must be strictly younger
  for (uint32_t j = 0; j < cl.size(); ++j) {
    const sim::Round a = MarketAge(cl[j].owner);
    if (a < best_age) {
      best_age = a;
      best = j;
    }
  }
  if (best == UINT32_MAX) return false;
  const ClientLink victim = cl[best];
  RemovePartnerAt(victim.owner, victim.back);
  OnBlocksLost(victim.owner, 1, now);
  return true;
}
// DETLINT: hot-path-end

bool BackupNetwork::TryPlaceBlock(PeerId owner, PeerId host, sim::Round now) {
  PeerState& h = peers_[host];
  if (h.hosted >= options_.quota_blocks) {
    if (!options_.quota_market) return false;
    const sim::Round owner_age = MarketAge(owner);
    if (IsObserverId(owner)) {
      // Observers must experience the same market a real peer of their
      // frozen age would, but their phantom blocks must not displace real
      // ones: admissible only when an eviction would have been possible.
      const sim::Round youngest =
          std::min(engine_->now() - YoungestClientJoin(host),
                   options_.acceptance_horizon);
      if (youngest >= owner_age) return false;
      AddPartnership(owner, host);
      return true;
    }
    while (h.hosted >= options_.quota_blocks) {
      if (!TryEvictYoungestClient(host, owner_age, now)) return false;
    }
  }
  AddPartnership(owner, host);
  return true;
}

int BackupNetwork::EvictOfflinePartners(PeerId owner, int count) {
  int evicted = 0;
  for (uint32_t i = partners_[owner].size(); i-- > 0;) {
    if (evicted >= count) break;
    if (!peers_[partners_[owner][i].peer].online) {
      RemovePartnerAt(owner, i);
      ++evicted;
    }
  }
  return evicted;
}

void BackupNetwork::HandleArchiveLoss(PeerId owner, sim::Round now) {
  PeerState& p = peers_[owner];
  if (transfer_ && p.transfer_pending) {
    // The archive the transfer was rebuilding no longer decodes; the fresh
    // initial placement below enqueues a new job when it completes.
    transfer_->Cancel(owner);
    p.transfer_pending = false;
  }
  if (IsObserverId(owner)) {
    collector_.OnObserverLoss(owner - normal_slots_);
  } else {
    collector_.OnLoss(CategoryAt(owner, now));
  }
  // The network copy is unrecoverable; the owner rebuilds the backup from
  // its local data: drop what is left and start a fresh initial placement.
  p.backed_up = false;
  p.episode_active = false;
  SeverAsOwner(owner);
  FlagForRepair(owner);
}

void BackupNetwork::FlagForRepair(PeerId id) {
  PeerState& p = peers_[id];
  // Observers are measurement instruments: like the category accounting,
  // the episode probes (time-to-repair, vulnerability) exclude them, so
  // adding an observer never moves a reported system metric.
  if (!p.needs_repair && !IsObserverId(id)) {
    collector_.OnRepairFlagged(id, engine_->now());
  }
  p.needs_repair = true;
  if (p.online) EnqueueRepair(id);
}

void BackupNetwork::EnqueueRepair(PeerId id) {
  PeerState& p = peers_[id];
  if (p.in_repair_queue) return;
  p.in_repair_queue = true;
  repair_queue_.push_back(id);
}

void BackupNetwork::ProcessRepairs(sim::Round now) {
  scratch_queue_.clear();
  scratch_queue_.swap(repair_queue_);
  engine_->ShuffleForRound(&scratch_queue_);
  for (PeerId id : scratch_queue_) {
    PeerState& p = peers_[id];
    p.in_repair_queue = false;
    if (!p.needs_repair) continue;
    if (!p.online) continue;  // re-enqueued on reconnect
    RunRepair(id, now);
  }
}

void BackupNetwork::RunRepair(PeerId id, sim::Round now) {
  TRACE_SCOPE("repair/run");
  PeerState& p = peers_[id];
  const int n = options_.k + options_.m;

  // A transfer job for the previous episode is still moving bytes on the
  // link; further degradation is absorbed when the job completes (the
  // completion handler re-evaluates and re-flags).
  if (p.transfer_pending) return;

  // "The peer must first download k blocks to be able to decode the
  // original data": with fewer than k blocks reachable, the repair fails
  // and the archive is lost (paper 4.2.1 discussion of figure 2).
  if (instant_visibility() && p.backed_up && visible_[id] < options_.k) {
    HandleArchiveLoss(id, now);
  }

  if (!p.episode_active) {
    TRACE_SCOPE("repair/evaluate");
    const int basis = VisibleBasis(id);
    // Initial placements always target full redundancy; a policy verdict
    // below may lower the target for maintenance repairs.
    p.episode_target = n;
    if (p.backed_up) {
      core::MaintenanceContext ctx;
      ctx.k = options_.k;
      ctx.n = n;
      ctx.alive = basis;
      ctx.partner_loss_rate = ReadLossRate(id, now);
      ctx.rounds_since_repair =
          p.last_repair < 0 ? sim::kNever : now - p.last_repair;
      const core::MaintenanceDecision decision = policy_->Evaluate(ctx);
      if (!decision.trigger) {
        // Recovered above the trigger level (e.g. partners came back
        // online) before the repair started: nothing to do.
        p.needs_repair = false;
        if (!IsObserverId(id)) collector_.OnRepairCleared(id, now);
        return;
      }
      // Honor the policy's redundancy verdict (adaptive-redundancy moves
      // it with the loss rate; every fixed-target policy returns n).
      p.episode_target = std::clamp(decision.restore_to, options_.k, n);
      if (instant_visibility()) {
        // Write the missing blocks off: the repair REPLACES the partners
        // that were unreachable when it was triggered ("replace the blocks
        // which have disappeared"; meta-data is updated accordingly).
        EvictOfflinePartners(id, n);
      }
    }
    // A peer that is not yet backed up always proceeds: the initial
    // placement is mandatory regardless of policy.
    p.episode_active = true;
    p.episode_placed = 0;
    if (IsObserverId(id)) {
      TRACE_COUNTER("repair/observer_episodes", 1);
      collector_.OnObserverRepair(id - normal_slots_);
    } else {
      TRACE_COUNTER("repair/episodes", 1);
      collector_.OnRepairStart(CategoryAt(id, now), p.episode_target - basis);
    }
  }

  const int needed =
      p.episode_target - static_cast<int>(partners_[id].size());
  if (needed > 0) {
    TRACE_SCOPE("repair/place");
    // Member scratch, not locals: a steady-state episode must not allocate
    // (both vectors keep their high-water capacity across episodes).
    BuildPool(id, needed, &scratch_pool_);
    scratch_chosen_.clear();
    selection_->Choose(&scratch_pool_, needed, place_rng_, &scratch_chosen_);
    int64_t placed = 0;
    for (uint32_t host : scratch_chosen_) {
      if (TryPlaceBlock(id, host, now)) ++placed;
    }
    collector_.OnUpload(placed);
    p.episode_placed += static_cast<int>(placed);
  }

  if (static_cast<int>(partners_[id].size()) >= p.episode_target) {
    p.episode_active = false;
    if (transfer_ && !IsObserverId(id)) {
      // Placement chose the hosts; the bytes still have to move on the
      // link. The repair flag (and the vulnerability window) clears only
      // when the scheduler reports the job's last byte.
      p.transfer_pending = true;
      transfer_->Enqueue(id, p.incarnation, /*initial=*/!p.backed_up,
                         p.episode_placed, now);
      return;
    }
    p.needs_repair = false;
    if (!IsObserverId(id)) collector_.OnRepairCleared(id, now, /*initial=*/!p.backed_up);
    p.last_repair = now;
    p.backed_up = true;
    // The refreshed set may still sit under the trigger level (newly placed
    // partners can be offline until the upload completes): re-evaluate next
    // round rather than waiting for a further loss event.
    if (VisibleBasis(id) < flag_level_) FlagForRepair(id);
  } else {
    // Partial placement: keep trying in subsequent rounds.
    EnqueueRepair(id);
  }
}

void BackupNetwork::ProcessTransfers(sim::Round now) {
  transfer_done_.clear();
  const TransferDirectory directory(this);
  transfer_->Tick(now, directory, &transfer_done_);
  const transfer::TickSample& sample = transfer_->last_tick();
  if (sample.capacity_bytes > 0.0) {
    // Only rounds with uplink demand feed the utilization probe; idle
    // rounds say nothing about contention.
    collector_.OnUplinkSample(sample.used_bytes, sample.capacity_bytes);
  }
  for (const transfer::TransferCompletion& completion : transfer_done_) {
    // Cancel() on departure / archive loss makes stale completions
    // impossible, but the incarnation check keeps the event pattern uniform.
    if (peers_[completion.owner].incarnation != completion.incarnation) {
      continue;
    }
    OnTransferComplete(completion, now);
  }
}

void BackupNetwork::OnTransferComplete(
    const transfer::TransferCompletion& completion, sim::Round now) {
  TRACE_SCOPE("transfer/complete");
  PeerState& p = peers_[completion.owner];
  p.transfer_pending = false;
  p.needs_repair = false;
  collector_.OnRepairCleared(completion.owner, now, completion.initial);
  if (!completion.initial) {
    // The download phase of a maintenance job is exactly a restore: the k
    // blocks needed to decode the archive crossed the owner's downlink.
    collector_.OnRestore(completion.download_rounds);
  }
  p.last_repair = now;
  p.backed_up = true;
  // The world may have degraded while the bytes moved: re-evaluate rather
  // than waiting for a further loss event.
  if (VisibleBasis(completion.owner) < flag_level_) {
    FlagForRepair(completion.owner);
  }
}

// DETLINT: hot-path-begin
int BackupNetwork::BuildPool(PeerId owner, int needed,
                             std::vector<core::Candidate>* pool) {
  TRACE_SCOPE("repair/pool");
  pool->clear();
  const int target_pool = kPoolFactor * needed;
  const int64_t max_draws = int64_t{kDrawBudget} * target_pool;
  const sim::Round now = engine_->now();
  const sim::Round owner_age = AgeOf(owner);
  const sim::Round owner_market_age = MarketAge(owner);  // round-constant
  pool->reserve(static_cast<size_t>(target_pool));

  // Sample without replacement straight off the eligible-candidate index:
  // a draw lands on a live - and, in timeout mode, online - peer by
  // construction, so the dup/not-live/offline rejects of the historical
  // rejection sampler cannot occur and the draw budget scales with the
  // eligible set, not the population. Instant mode admits offline
  // candidates because "the upload of generated blocks can be done later
  // as new partners become available" (paper 3.1) - its lane is the whole
  // index - while timeout mode draws only from the online prefix, where an
  // offline partner would start timing out immediately.
  //
  // The draw is a segment-aware partial Fisher-Yates: one UniformBounded
  // over the ids not yet taken, with each taken id compacted to the front
  // of its own segment so the [0, cand_online_) partition invariant
  // survives the shuffle (the index is a set; the reordering itself is
  // harmless). The owner and its current partners are pre-taken - swapped
  // into the taken prefix of their segment before the first draw - so a
  // draw can never land on them and no per-draw exclusion check runs; the
  // quota market and the acceptance function are the only per-draw filters.
  // Every remaining candidate is equally likely at every step, which is
  // exactly the distribution the rejection sampler produced over the same
  // non-excluded set (PoolIndexTest locks the statistical identity). The
  // acceptance draws interleave after each surviving candidate as before.
  // Counters accumulate in locals and flush once per episode.
  const uint32_t online_total = cand_online_;
  const uint32_t offline_total =
      instant_visibility()
          ? static_cast<uint32_t>(cand_index_.size()) - cand_online_
          : 0;
  uint32_t online_taken = 0;
  uint32_t offline_taken = 0;
  int64_t pre_excluded = 0;
  const auto pre_take = [&](PeerId id) {
    if (id >= normal_slots_) return;  // observer owner: never in the index
    const uint32_t pos = cand_pos_[id];
    if (pos == kCandAbsent) return;  // dead: not in the index
    if (pos < cand_online_) {
      CandSwap(pos, online_taken++);
      ++pre_excluded;
    } else if (offline_total != 0) {
      CandSwap(pos, cand_online_ + offline_taken++);
      ++pre_excluded;
    }  // offline partner in timeout mode: outside the drawn lane anyway
  };
  pre_take(owner);
  for (const Link& link : partners_[owner]) pre_take(link.peer);
  uint32_t remaining =
      (online_total - online_taken) + (offline_total - offline_taken);
  const uint8_t* const elig = elig_.data();
  const sim::Round* const join_lane = join_lane_.data();
  util::Rng* const rng = place_rng_;
  const bool use_acceptance = options_.use_acceptance;
  const bool quota_market = options_.quota_market;
  int64_t draws = 0, rej_quota_full = 0, rej_acceptance = 0, accepted = 0;

  int pool_count = 0;
  while (pool_count < target_pool && remaining > 0 && draws < max_draws) {
    ++draws;
    const uint32_t u = static_cast<uint32_t>(rng->UniformBounded(remaining));
    --remaining;
    PeerId c;
    if (u < online_total - online_taken) {
      CandSwap(online_taken + u, online_taken);
      c = cand_index_[online_taken++];
    } else {
      const uint32_t off = u - (online_total - online_taken);
      CandSwap(cand_online_ + offline_taken + off,
               cand_online_ + offline_taken);
      c = cand_index_[cand_online_ + offline_taken++];
    }
    if ((elig[c] & kEligQuotaFull) != 0) {
      // Full hosts stay in the market for peers older than their youngest
      // client (tit-for-tat displacement).
      if (!quota_market) {
        ++rej_quota_full;
        continue;
      }
      const sim::Round youngest = std::min(now - YoungestClientJoin(c),
                                           options_.acceptance_horizon);
      if (youngest >= owner_market_age) {
        ++rej_quota_full;
        continue;
      }
    }
    const sim::Round cand_age = now - join_lane[c];
    if (use_acceptance && !acceptance_.MutualAccept(owner_age, cand_age, rng)) {
      ++rej_acceptance;
      continue;
    }
    ++accepted;
    ++pool_count;
    pool->push_back(core::Candidate{c, cand_age, 0.0});
  }
  pool_stats_.draws += draws;
  pool_stats_.index_partner_excluded += pre_excluded;
  pool_stats_.reject_quota_full += rej_quota_full;
  pool_stats_.reject_acceptance += rej_acceptance;
  pool_stats_.accepted += accepted;
  if (remaining == 0 && pool_count < target_pool) {
    ++pool_stats_.index_exhausted;  // the whole lane was drawn and filtered
  }
  // One monitor snapshot pass per episode scores the whole pool: the
  // estimator ranks by what the monitoring protocol can actually answer
  // (age, recent uptime). Scores are memoized per (peer, round): every
  // monitor event lands in the adjustment/churn phases that run strictly
  // before this repairs phase, so a peer pooled by many repairing owners in
  // one round is scored once.
  {
    TRACE_SCOPE("repair/score");
    // Age-only scoring: an estimator that never reads availability is
    // scored without the monitor's window search.
    const bool reads_availability = estimator_->reads_availability();
    for (core::Candidate& cand : *pool) {
      if (score_round_[cand.id] == now) {
        ++pool_stats_.score_memo_hits;
        cand.score = score_val_[cand.id];
        continue;
      }
      ++pool_stats_.score_evals;
      cand.score = estimator_->StabilityScore(
          reads_availability
              ? monitor_.Observe(cand.id, monitor_.history_window(), now)
              : monitor_.ObserveAge(cand.id, now));
      score_round_[cand.id] = now;
      score_val_[cand.id] = cand.score;
    }
  }
  return static_cast<int>(pool->size());
}
// DETLINT: hot-path-end

void BackupNetwork::BumpLossRate(PeerId id, int events, sim::Round now) {
  PeerState& p = peers_[id];
  const double decay =
      std::exp(-static_cast<double>(now - p.loss_rate_at) / kLossRateTau);
  p.loss_rate =
      p.loss_rate * decay + static_cast<double>(events) / kLossRateTau;
  p.loss_rate_at = now;
}

double BackupNetwork::ReadLossRate(PeerId id, sim::Round now) const {
  const PeerState& p = peers_[id];
  return p.loss_rate *
         std::exp(-static_cast<double>(now - p.loss_rate_at) / kLossRateTau);
}

sim::Round BackupNetwork::AgeOf(PeerId id) const {
  const PeerState& p = peers_[id];
  if (IsObserverId(id)) return p.frozen_age;
  return engine_->now() - p.join_round;
}

metrics::AgeCategory BackupNetwork::CategoryAt(PeerId id, sim::Round now) const {
  return metrics::CategoryOf(now - peers_[id].join_round);
}

BackupNetwork::PopulationStats BackupNetwork::ComputePopulationStats() const {
  PopulationStats s;
  for (PeerId id = 0; id < normal_slots_; ++id) {
    if (!peers_[id].live) continue;
    s.mean_partners += static_cast<double>(partners_[id].size());
    s.mean_visible += static_cast<double>(visible_[id]);
    s.mean_hosted += static_cast<double>(peers_[id].hosted);
    s.online_fraction += peers_[id].online ? 1.0 : 0.0;
    s.backed_up += peers_[id].backed_up ? 1 : 0;
  }
  const double p = live_count_ > 0 ? static_cast<double>(live_count_) : 1.0;
  s.mean_partners /= p;
  s.mean_visible /= p;
  s.mean_hosted /= p;
  s.online_fraction /= p;
  return s;
}

BackupNetwork::PartnerSetStats BackupNetwork::ComputePartnerStats(
    PeerId owner) const {
  PartnerSetStats s;
  s.count = static_cast<int>(partners_[owner].size());
  if (s.count == 0) return s;
  for (const Link& link : partners_[owner]) {
    const PeerState& host = peers_[link.peer];
    s.mean_nominal_availability += (*profiles_)[host.profile].availability;
    s.mean_age_days +=
        sim::RoundsToDays(engine_->now() - host.join_round);
    if (host.profile < s.profile_counts.size()) {
      ++s.profile_counts[host.profile];
    }
  }
  s.mean_nominal_availability /= s.count;
  s.mean_age_days /= s.count;
  return s;
}

void BackupNetwork::CheckInvariants() const {
  const int n = options_.k + options_.m;
  std::vector<int> hosted_check(peers_.size(), 0);
  int64_t live_check = 0;
  for (PeerId o = 0; o < peers_.size(); ++o) {
    if (!peers_[o].live) {
      // Vacant slot (reserved for a future join or emptied by a mass exit):
      // no memberships of any kind may linger.
      P2P_CHECK(partners_[o].empty());
      P2P_CHECK(clients_[o].empty());
      P2P_CHECK(!peers_[o].online);
      P2P_CHECK(peers_[o].hosted == 0);
      P2P_CHECK(visible_[o] == 0);
      continue;
    }
    if (!IsObserverId(o)) ++live_check;
    P2P_CHECK(static_cast<int>(partners_[o].size()) <= n);
    if (instant_visibility()) {
      int visible_check = 0;
      for (const Link& link : partners_[o]) {
        if (peers_[link.peer].online) ++visible_check;
      }
      P2P_CHECK(visible_[o] == visible_check);
    }
    for (uint32_t i = 0; i < partners_[o].size(); ++i) {
      const Link& link = partners_[o][i];
      P2P_CHECK(link.peer < normal_slots_);  // hosts are normal peers
      P2P_CHECK(peers_[link.peer].live);     // ...and members right now
      P2P_CHECK(link.back < clients_[link.peer].size());
      const ClientLink& twin = clients_[link.peer][link.back];
      P2P_CHECK(twin.owner == o && twin.back == i);
      if (!IsObserverId(o)) ++hosted_check[link.peer];
    }
    // Distinctness: no host appears twice for one owner.
    std::vector<PeerId> hosts;
    hosts.reserve(partners_[o].size());
    for (const Link& link : partners_[o]) hosts.push_back(link.peer);
    std::sort(hosts.begin(), hosts.end());
    P2P_CHECK(std::adjacent_find(hosts.begin(), hosts.end()) == hosts.end());
  }
  P2P_CHECK(live_check == live_count_);
  // The SoA hot-path lanes must mirror PeerState exactly (RefreshElig is
  // called at every mutation site; a miss here means a site was forgotten).
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const PeerState& p = peers_[id];
    const uint8_t want = static_cast<uint8_t>(
        (p.live ? kEligLive : 0) | (p.online ? kEligOnline : 0) |
        (p.hosted >= options_.quota_blocks ? kEligQuotaFull : 0));
    P2P_CHECK(elig_[id] == want);
    if (p.live && !IsObserverId(id)) P2P_CHECK(join_lane_[id] == p.join_round);
  }
  // Eligible-candidate index oracle: the index must hold every live normal
  // peer exactly once with the online partition boundary exact and the
  // position map inverting the array; dead and observer ids must be absent.
  // RefreshElig maintains it by O(1) diffs at every transition site - a
  // miss here means a transition escaped the diff.
  P2P_CHECK(cand_pos_.size() == normal_slots_);
  P2P_CHECK(cand_index_.size() <= normal_slots_);  // reserve() bound holds
  P2P_CHECK(cand_online_ <= cand_index_.size());
  uint32_t live_normal_check = 0;
  for (PeerId id = 0; id < normal_slots_; ++id) {
    const uint32_t pos = cand_pos_[id];
    if (peers_[id].live) {
      ++live_normal_check;
      P2P_CHECK(pos < cand_index_.size());
      P2P_CHECK(cand_index_[pos] == id);
      P2P_CHECK((pos < cand_online_) == peers_[id].online);
    } else {
      P2P_CHECK(pos == kCandAbsent);
    }
  }
  P2P_CHECK(cand_index_.size() == live_normal_check);
  // Transfer bookkeeping: the pending flag must mirror the scheduler's
  // queue exactly, and a pending job pins the owner in the flagged,
  // episode-closed state until completion.
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const PeerState& p = peers_[id];
    if (transfer_ == nullptr) {
      P2P_CHECK(!p.transfer_pending);
      continue;
    }
    P2P_CHECK(p.transfer_pending == transfer_->HasJob(id));
    if (p.transfer_pending) {
      P2P_CHECK(p.live && !IsObserverId(id));
      P2P_CHECK(!p.episode_active);
      P2P_CHECK(p.needs_repair);
    }
  }
  for (PeerId h = 0; h < peers_.size(); ++h) {
    if (options_.departure_grace == 0) {
      P2P_CHECK(peers_[h].hosted == hosted_check[h]);
    } else {
      P2P_CHECK(peers_[h].hosted >= hosted_check[h]);  // ghost quota allowed
    }
    P2P_CHECK(peers_[h].hosted <= options_.quota_blocks ||
              options_.quota_blocks == 0);
  }
}

}  // namespace backup
}  // namespace p2p
