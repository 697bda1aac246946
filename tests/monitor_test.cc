// Availability monitor tests: the queries the backup protocol relies on,
// the estimator snapshot API, and the prefix-summed window accounting
// (checked against a brute-force per-round oracle).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/availability_monitor.h"
#include "util/rng.h"

namespace p2p {
namespace monitor {
namespace {

TEST(MonitorTest, OnlineStateTracksEvents) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(0, 10);
  EXPECT_FALSE(mon.IsOnline(0));
  mon.RecordConnect(0, 10);
  EXPECT_TRUE(mon.IsOnline(0));
  mon.RecordDisconnect(0, 20);
  EXPECT_FALSE(mon.IsOnline(0));
}

TEST(MonitorTest, LastSeenAndAge) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(1, 5);
  mon.RecordConnect(1, 5);
  EXPECT_EQ(mon.LastSeen(1, 8), 8);  // online now
  mon.RecordDisconnect(1, 9);
  EXPECT_EQ(mon.LastSeen(1, 30), 9);
  EXPECT_EQ(mon.Age(1, 30), 25);
}

TEST(MonitorTest, AvailabilityOverWindow) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 50);   // online [0, 50)
  mon.RecordConnect(0, 75);      // online [75, 100)
  const double avail = mon.AvailabilityOver(0, 100, 100);
  EXPECT_NEAR(avail, (50 + 25) / 100.0, 1e-9);
}

TEST(MonitorTest, AvailabilityIgnoresHistoryBeyondWindow) {
  AvailabilityMonitor mon(4);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 10);  // old session
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 50, 100), 0.0);
}

TEST(MonitorTest, OngoingSessionCounted) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 90);
  EXPECT_NEAR(mon.AvailabilityOver(0, 20, 100), 0.5, 1e-9);  // online 10 of 20
}

TEST(MonitorTest, PresumedDepartureAfterTimeout) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 10);
  EXPECT_FALSE(mon.PresumedDeparted(0, 24, 20));  // only 10 rounds silent
  EXPECT_TRUE(mon.PresumedDeparted(0, 24, 40));   // 30 rounds silent
  mon.RecordConnect(0, 41);
  EXPECT_FALSE(mon.PresumedDeparted(0, 24, 60));  // back online
}

TEST(MonitorTest, TrueDepartureIsFinal) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDeparture(0, 5);
  EXPECT_TRUE(mon.PresumedDeparted(0, 1000, 6));
  EXPECT_FALSE(mon.IsOnline(0));
}

TEST(MonitorTest, RejoinResetsHistory) {
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDeparture(0, 50);
  mon.RecordJoin(0, 100);  // id recycled
  EXPECT_EQ(mon.Age(0, 110), 10);
  EXPECT_FALSE(mon.PresumedDeparted(0, 24, 110));
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 100, 110), 0.0);
}

TEST(MonitorTest, WindowClampedToHistoryBound) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  // Query for more than the retention window clamps to 100 rounds: the peer
  // was online for the 50 rounds that exist, out of a 100-round window.
  EXPECT_NEAR(mon.AvailabilityOver(0, 10'000, 50), 0.5, 1e-9);
}

TEST(MonitorTest, IdRecyclingFullyResetsHistory) {
  // A departed id handed to a fresh peer must carry nothing over: not the
  // age, not the last-seen stamp, not a single session of availability.
  AvailabilityMonitor mon(2);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 30);
  mon.RecordConnect(0, 40);
  mon.RecordDeparture(0, 80);

  mon.RecordJoin(0, 100);  // id recycled for a brand-new machine
  EXPECT_EQ(mon.Age(0, 100), 0);
  EXPECT_EQ(mon.Age(0, 150), 50);
  EXPECT_FALSE(mon.IsOnline(0));
  EXPECT_EQ(mon.LastSeen(0, 150), -1);  // never seen online
  EXPECT_FALSE(mon.PresumedDeparted(0, 1000, 150));
  EXPECT_DOUBLE_EQ(mon.AvailabilityOver(0, 100, 150), 0.0);
  const auto fresh = mon.Observe(0, 100, 150);
  EXPECT_EQ(fresh.age, 50);
  EXPECT_DOUBLE_EQ(fresh.availability, 0.0);

  // The new incarnation accumulates availability from scratch: 20 online
  // rounds out of the 100-round window, none inherited from the old peer.
  mon.RecordConnect(0, 160);
  mon.RecordDisconnect(0, 180);
  EXPECT_NEAR(mon.AvailabilityOver(0, 100, 200), 0.2, 1e-12);
}

TEST(MonitorTest, ObserveReportsAgeAndAvailability) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  mon.RecordDisconnect(0, 60);

  const auto offline = mon.Observe(0, 100, 100);
  EXPECT_EQ(offline.age, 100);
  EXPECT_NEAR(offline.availability, 0.6, 1e-12);
  EXPECT_EQ(mon.LastSeen(0, 100), 60);

  mon.RecordConnect(0, 110);
  const auto online = mon.Observe(0, 100, 120);
  EXPECT_EQ(online.age, 120);
  EXPECT_EQ(mon.LastSeen(0, 120), 120);  // online right now
  // Window (20, 120]: online [20, 60) and [110, 120).
  EXPECT_NEAR(online.availability, 0.5, 1e-12);
}

TEST(MonitorTest, ObserveFreshAfterEvents) {
  AvailabilityMonitor mon(2, /*history_window=*/100);
  mon.RecordJoin(0, 0);
  mon.RecordConnect(0, 0);
  // Repeat queries in one round agree, and an event between them shows up
  // in the next answer.
  EXPECT_NEAR(mon.Observe(0, 50, 50).availability, 1.0, 1e-12);
  EXPECT_NEAR(mon.Observe(0, 50, 50).availability, 1.0, 1e-12);
  mon.RecordDisconnect(0, 50);
  EXPECT_EQ(mon.LastSeen(0, 50), 50);
  // A different window in the same round gives its own answer.
  mon.RecordConnect(0, 75);
  EXPECT_NEAR(mon.Observe(0, 100, 100).availability, 0.75, 1e-12);
  EXPECT_NEAR(mon.Observe(0, 25, 100).availability, 1.0, 1e-12);
}

TEST(MonitorTest, PrefixSummedWindowsMatchBruteForceOracle) {
  // Random session histories, queried at random times over random windows:
  // the binary-search-plus-prefix-sum fast path must agree exactly with a
  // per-round recount of the same schedule.
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const sim::Round history_window = 50 + rng.UniformInt(0, 400);
    AvailabilityMonitor mon(1, history_window);
    std::vector<bool> online_at;  // oracle: round -> was peer online
    mon.RecordJoin(0, 0);
    sim::Round now = 0;
    bool online = false;
    for (int event = 0; event < 60; ++event) {
      now += 1 + rng.UniformInt(0, 60);
      if (online) {
        mon.RecordDisconnect(0, now);
      } else {
        mon.RecordConnect(0, now);
      }
      while (static_cast<sim::Round>(online_at.size()) < now) {
        online_at.push_back(online);
      }
      online = !online;

      const sim::Round window = 1 + rng.UniformInt(0, now + 10);
      const sim::Round effective = std::min(window, history_window);
      int64_t expect = 0;
      for (sim::Round r = std::max<sim::Round>(0, now - effective); r < now;
           ++r) {
        if (online_at[static_cast<size_t>(r)]) ++expect;
      }
      const double got = mon.AvailabilityOver(0, window, now);
      ASSERT_NEAR(got,
                  static_cast<double>(expect) / static_cast<double>(effective),
                  1e-12)
          << "trial=" << trial << " now=" << now << " window=" << window;
    }
  }
}

}  // namespace
}  // namespace monitor
}  // namespace p2p
