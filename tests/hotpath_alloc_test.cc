// Verifies the allocation-free claim of the repair hot path (README "Hot
// path"): once the simulated world is warm - every scratch buffer and
// calendar-queue node arena at its high-water capacity; partnership rows
// are fixed slots allocated before the first round - repair episodes run
// without touching the heap. The test overrides the global allocator for
// this binary, warms a paper-profile world, then drives the hot path both
// directly (HotPathProbe, strict zero) and through whole engine rounds
// (bounded residual that must not scale with episodes or draws). It also
// holds the partnership store to its sizing bounds through join/exit
// storms.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "backup/hotpath_probe.h"
#include "backup/network.h"
#include "backup/options.h"
#include "churn/profile.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "util/rng.h"

// Sanitizer builds own the allocator: ASan interposes malloc for poisoning
// and quarantine, TSan for happens-before tracking, and both allocate
// internally on paths that re-enter this binary's operator new. Overriding
// the global allocator under them both fights the interceptors and skews
// the counts with sanitizer-internal traffic, so the override and the
// allocation-count assertions compile out; the structural assertions
// (capacity identity, invariants) still run. GCC defines __SANITIZE_*
// macros; clang exposes __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2P_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define P2P_ALLOC_COUNTING_DISABLED 1
#endif
#endif

#if defined(P2P_ALLOC_COUNTING_DISABLED)
#define P2P_SKIP_IF_NO_ALLOC_COUNTING() \
  GTEST_SKIP() << "allocation counting disabled under ASan/TSan (the "      \
                  "sanitizer owns the allocator); structural suites still " \
                  "cover this path"
#else
#define P2P_SKIP_IF_NO_ALLOC_COUNTING() \
  do {                                  \
  } while (false)
#endif

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

#if !defined(P2P_ALLOC_COUNTING_DISABLED)
void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
#endif  // !defined(P2P_ALLOC_COUNTING_DISABLED)

}  // namespace

#if !defined(P2P_ALLOC_COUNTING_DISABLED)
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // !defined(P2P_ALLOC_COUNTING_DISABLED)

namespace p2p {
namespace backup {
namespace {

// Paper churn profiles at a population small enough for a CI-speed run but
// large enough that the measurement windows are dense in episodes.
SystemOptions WarmOptions() {
  SystemOptions opts;
  opts.num_peers = 400;
  opts.k = 16;
  opts.m = 16;
  opts.repair_threshold = 24;
  opts.quota_blocks = 48;
  return opts;
}

// Runs `engine` until round `upto`; the world is "warm" once initial
// placement plus a few hundred churned rounds have pushed every reusable
// buffer to its working-set size.
void WarmUp(sim::Engine* engine, sim::Round upto) {
  while (engine->now() < upto && engine->Step()) {
  }
}

PeerId FindRepairablePeer(const BackupNetwork& network, PeerId after) {
  for (PeerId id = after; id < network.options().num_peers; ++id) {
    if (network.IsLive(id) && network.IsOnline(id) && network.IsBackedUp(id) &&
        network.AliveBlocks(id) > 12) {
      return id;
    }
  }
  ADD_FAILURE() << "no repairable peer found";
  return 0;
}

TEST(HotPathAllocTest, BuildPoolAndSelectionAreAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = churn::ProfileSet::Paper();
  sim::EngineOptions eopts;
  eopts.seed = 7;
  eopts.end_round = 500;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  WarmUp(&engine, 400);

  HotPathProbe probe(&network);
  std::vector<uint32_t> chosen;
  chosen.reserve(32);
  // One warm call fixes the scratch-pool capacity for this episode size.
  PeerId owner = FindRepairablePeer(network, 0);
  probe.BuildPool(owner, 8);
  probe.Choose(8, &chosen);

  g_allocs.store(0);
  g_counting.store(true);
  int64_t pooled = 0;
  for (int i = 0; i < 200; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    pooled += probe.BuildPool(owner, 8);
    chosen.clear();
    probe.Choose(8, &chosen);
  }
  g_counting.store(false);
  ASSERT_GT(pooled, 1000);
  // The tentpole claim, strict: sampling + scoring + ranking never allocate.
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(HotPathAllocTest, SteadyStateEpisodesAreAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = churn::ProfileSet::Paper();
  sim::EngineOptions eopts;
  eopts.seed = 11;
  eopts.end_round = 500;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  WarmUp(&engine, 400);

  HotPathProbe probe(&network);
  // Warm pass: a few full episodes (sever -> repair) settle any capacity
  // that organic churn left below this episode shape's working set.
  PeerId owner = 0;
  for (int i = 0; i < 30; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    probe.SeverPartners(owner, 10);
    probe.RunRepair(owner);
  }

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 40; ++i) {
    owner = FindRepairablePeer(network, (owner + 1) % 300);
    probe.SeverPartners(owner, 10);
    probe.RunRepair(owner);
  }
  g_counting.store(false);
  // Strictly zero: partnership rows are fixed-capacity slots of the flat
  // store allocated at construction, so no placement can grow a container.
  EXPECT_EQ(g_allocs.load(), 0);
  network.CheckInvariants();
}

// Observers added to the storm world below.
constexpr int kStormObservers = 8;

// Runs a join/exit storm with observers in `visibility` mode, checking
// invariants every round, and returns {max partner row, max client row}.
std::pair<uint32_t, uint32_t> StormRowHighWater(VisibilityModel visibility,
                                                size_t* partner_width,
                                                size_t* client_width) {
  const auto profiles = churn::ProfileSet::Paper();
  sim::EngineOptions eopts;
  eopts.seed = 17;
  eopts.end_round = 900;
  sim::Engine engine(eopts);
  SystemOptions opts = WarmOptions();
  opts.visibility = visibility;
  std::vector<PopulationAdjustment> workload;
  workload.push_back(PopulationAdjustment{200, 200, 0});
  workload.push_back(PopulationAdjustment{350, 0, 250});
  workload.push_back(PopulationAdjustment{500, 300, 0});
  workload.push_back(PopulationAdjustment{700, 0, 300});
  BackupNetwork network(&engine, &profiles, opts, workload);
  // Observer blocks are the only ones a host takes past its quota.
  for (int i = 0; i < kStormObservers; ++i) {
    network.AddObserver("obs", static_cast<sim::Round>(i) * 24);
  }
  HotPathProbe probe(&network);
  *partner_width = probe.partner_row_width();
  *client_width = probe.client_row_width();
  uint32_t max_partners = 0;
  uint32_t max_clients = 0;
  while (engine.Step()) {
    network.CheckInvariants();
    for (PeerId id = 0; id < network.total_ids(); ++id) {
      if (!network.IsLive(id)) continue;
      max_partners =
          std::max(max_partners, static_cast<uint32_t>(network.AliveBlocks(id)));
      max_clients = std::max(max_clients, probe.ClientCount(id));
    }
  }
  return {max_partners, max_clients};
}

TEST(HotPathAllocTest, PartnershipRowsStayWithinCapacityThroughStorms) {
  // The store's widths are protocol bounds, not heuristics: an owner holds
  // at most n partners in both visibility modes, and a host at most its
  // quota of normal clients plus one block per observer that exists (not
  // per observer a network could hold). A storm of join waves and mass
  // exits, with observers pushing full hosts past their quota, must fill
  // rows up to those bounds and never past them (Append aborts on
  // overflow; CheckInvariants re-checks the partner bound and every
  // cross-index every round).
  const SystemOptions opts = WarmOptions();
  const uint32_t n = static_cast<uint32_t>(opts.k + opts.m);
  for (VisibilityModel visibility :
       {VisibilityModel::kTimeoutPresumed, VisibilityModel::kInstantOnline}) {
    SCOPED_TRACE(VisibilityModelName(visibility));
    size_t partner_width = 0;
    size_t client_width = 0;
    const auto [max_partners, max_clients] =
        StormRowHighWater(visibility, &partner_width, &client_width);
    EXPECT_EQ(partner_width, n);
    EXPECT_EQ(client_width,
              static_cast<size_t>(opts.quota_blocks) + kStormObservers);
    EXPECT_EQ(max_partners, n);  // owners reach full redundancy...
    EXPECT_GE(max_clients, static_cast<uint32_t>(opts.quota_blocks));
    EXPECT_LE(max_clients, client_width);  // ...and hosts fill their quota
  }
}

TEST(HotPathAllocTest, IndexMaintenanceNeverReallocates) {
  // The eligible-candidate index is reserved to the id-space bound at
  // construction, so CandInsert/CandRemove/CandSwap - including a mass exit
  // that empties a third of it and a join wave that refills it - never touch
  // the heap. Capacity identity across the storm is the witness: a single
  // reallocation anywhere would change it.
  const auto profiles = churn::ProfileSet::Paper();
  sim::EngineOptions eopts;
  eopts.seed = 13;
  eopts.end_round = 900;
  sim::Engine engine(eopts);
  std::vector<PopulationAdjustment> workload;
  workload.push_back(PopulationAdjustment{300, 0, 150});
  workload.push_back(PopulationAdjustment{500, 150, 0});
  workload.push_back(PopulationAdjustment{700, 0, 100});
  BackupNetwork network(&engine, &profiles, WarmOptions(), workload);
  const size_t cap_at_birth = network.candidate_index().capacity();
  ASSERT_GE(cap_at_birth, 400u + 150u);  // reserve() covers every join slot
  WarmUp(&engine, 400);

  // The alloc-counted probe episodes of the tests above plus this storm
  // cover the index end to end: sampling swaps in BuildPool (counted
  // strictly zero there) and maintenance swaps here.
  while (engine.Step()) {
  }
  EXPECT_EQ(network.candidate_index().capacity(), cap_at_birth);
  network.CheckInvariants();
}

TEST(HotPathAllocTest, WarmCalendarQueueCycleIsAllocationFree) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  // The shape of session toggles: a fixed set of events, each rescheduled
  // 1-200 rounds ahead when it fires, so rounds fill unevenly and every
  // ring slot sees a different event count on every lap. Each drained node
  // is recycled before its callback schedules the successor, so the node
  // arena never outgrows the pending count and the ring never outgrows the
  // farthest offset: once warm, schedule and drain allocate nothing.
  struct Ev {
    uint32_t id;
    uint32_t fired;
  };
  constexpr uint32_t kEvents = 2000;
  util::Rng rng(5);
  sim::CalendarQueue<Ev> q(8);
  for (uint32_t id = 0; id < kEvents; ++id) {
    q.Schedule(rng.UniformInt(0, 199), Ev{id, 0});
  }
  sim::Round now = 0;
  int64_t drained = 0;
  const auto run = [&](sim::Round rounds) {
    for (const sim::Round end = now + rounds; now < end; ++now) {
      q.DrainInto(now, [&](Ev& e) {
        ++drained;
        q.Schedule(now + rng.UniformInt(1, 200), Ev{e.id, e.fired + 1});
      });
    }
  };
  run(1000);  // warm: the ring has grown to cover 200 rounds ahead

  g_allocs.store(0);
  g_counting.store(true);
  run(5000);
  g_counting.store(false);
  ASSERT_GT(drained, int64_t{5000} * kEvents / 200);
  EXPECT_EQ(q.size(), kEvents);
  EXPECT_EQ(q.ring_slots(), 256u);
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(HotPathAllocTest, RoundLoopAllocationsDoNotScaleWithEpisodes) {
  P2P_SKIP_IF_NO_ALLOC_COUNTING();
  const auto profiles = churn::ProfileSet::Paper();
  sim::EngineOptions eopts;
  eopts.seed = 7;
  eopts.end_round = 1400;
  sim::Engine engine(eopts);
  BackupNetwork network(&engine, &profiles, WarmOptions());
  // Warm well past the initial-placement storm, so every scratch buffer
  // and calendar-queue node arena has reached its working-set size.
  WarmUp(&engine, 1100);

  const int64_t episodes_before = network.metrics().repairs();
  const int64_t draws_before = network.pool_stats().draws;
  g_allocs.store(0);
  g_counting.store(true);
  while (engine.Step()) {
  }
  g_counting.store(false);

  const int64_t episodes = network.metrics().repairs() - episodes_before;
  const int64_t draws = network.pool_stats().draws - draws_before;
  // The window must actually exercise the hot path...
  ASSERT_GT(episodes, 50);
  ASSERT_GT(draws, 1000);
  // ...without per-episode or per-draw heap traffic. The calendar queues
  // recycle their nodes, so the residual is the availability monitor's
  // alone: a session-history deque chunk every few dozen disconnects of a
  // peer, and a fresh history per replacement peer. That is 244
  // allocations in these 300 rounds, under one per round, and orders of
  // magnitude under draws.
  const int64_t allocs = g_allocs.load();
  EXPECT_LT(allocs, 300) << "episodes=" << episodes << " draws=" << draws;
  EXPECT_LT(allocs, draws / 25) << "episodes=" << episodes;
  network.CheckInvariants();
}

}  // namespace
}  // namespace backup
}  // namespace p2p
