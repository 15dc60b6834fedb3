#include "s3/sim/load_state.h"

#include <gtest/gtest.h>

#include "s3/util/rng.h"
#include "testing/mini.h"

namespace s3::sim {
namespace {

TEST(ApLoadTracker, StartsEmpty) {
  const ApLoadTracker t(testing::mini_network(4));
  EXPECT_EQ(t.num_aps(), 4u);
  EXPECT_EQ(t.total_stations(), 0u);
  for (ApId a = 0; a < 4; ++a) {
    EXPECT_EQ(t.station_count(a), 0u);
    EXPECT_DOUBLE_EQ(t.demand_mbps(a), 0.0);
    EXPECT_DOUBLE_EQ(t.capacity_mbps(a), 20.0);
    EXPECT_DOUBLE_EQ(t.headroom_mbps(a), 20.0);
  }
}

TEST(ApLoadTracker, AssociateAndDisconnect) {
  ApLoadTracker t(testing::mini_network(2));
  t.associate(100, 0, 7, 1.5);
  t.associate(101, 0, 8, 2.5);
  t.associate(102, 1, 9, 4.0);
  EXPECT_EQ(t.station_count(0), 2u);
  EXPECT_DOUBLE_EQ(t.demand_mbps(0), 4.0);
  EXPECT_DOUBLE_EQ(t.headroom_mbps(0), 16.0);
  EXPECT_EQ(t.total_stations(), 3u);

  t.disconnect(100, 0);
  EXPECT_EQ(t.station_count(0), 1u);
  EXPECT_DOUBLE_EQ(t.demand_mbps(0), 2.5);
}

TEST(ApLoadTracker, ForEachStation) {
  ApLoadTracker t(testing::mini_network(2));
  t.associate(1, 0, 10, 1.0);
  t.associate(2, 0, 11, 2.0);
  double demand_sum = 0.0;
  std::set<UserId> users;
  t.for_each_station(0, [&](const ActiveStation& st) {
    demand_sum += st.demand_mbps;
    users.insert(st.user);
  });
  EXPECT_DOUBLE_EQ(demand_sum, 3.0);
  EXPECT_EQ(users, (std::set<UserId>{10, 11}));
}

TEST(ApLoadTracker, RejectsDuplicateSessionOnAp) {
  ApLoadTracker t(testing::mini_network(2));
  t.associate(1, 0, 10, 1.0);
  EXPECT_THROW(t.associate(1, 0, 10, 1.0), std::invalid_argument);
}

TEST(ApLoadTracker, RejectsUnknownDisconnect) {
  ApLoadTracker t(testing::mini_network(2));
  EXPECT_THROW(t.disconnect(99, 0), std::invalid_argument);
  t.associate(1, 0, 10, 1.0);
  EXPECT_THROW(t.disconnect(1, 1), std::invalid_argument);  // wrong AP
}

TEST(ApLoadTracker, RejectsOutOfRangeAp) {
  ApLoadTracker t(testing::mini_network(2));
  EXPECT_THROW(t.associate(1, 5, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(t.demand_mbps(5), std::invalid_argument);
  EXPECT_THROW(t.station_count(5), std::invalid_argument);
}

TEST(ApLoadTracker, CopyIsIndependent) {
  ApLoadTracker t(testing::mini_network(1));
  t.associate(1, 0, 0, 1.0);
  ApLoadTracker copy = t;
  copy.associate(2, 0, 1, 2.0);
  EXPECT_EQ(t.station_count(0), 1u);
  EXPECT_EQ(copy.station_count(0), 2u);
}

/// Station visitation order of every AP.
std::vector<std::vector<UserId>> station_orders(const ApLoadTracker& t) {
  std::vector<std::vector<UserId>> orders(t.num_aps());
  for (ApId a = 0; a < t.num_aps(); ++a) {
    t.for_each_station(
        a, [&](const ActiveStation& st) { orders[a].push_back(st.user); });
  }
  return orders;
}

TEST(ApLoadTracker, VisitsStationsInAssociationOrder) {
  // S3Selector sums C(AP) in for_each_station order, so that order is
  // part of every placement: the survivors, in the order of the
  // associate calls that placed them, whatever the session ids.
  ApLoadTracker t(testing::mini_network(2));
  util::Rng rng(11);
  std::vector<std::vector<std::pair<std::size_t, UserId>>> want(2);
  for (UserId u = 0; u < 300; ++u) {
    const std::size_t id = (u + 1) * 0x9e3779b97f4a7c15ULL;  // scattered
    const ApId ap = static_cast<ApId>(rng.index(2));
    t.associate(id, ap, u, 1.0);
    want[ap].emplace_back(id, u);
    if (u % 3 == 2) {
      auto& on = want[rng.index(2)];
      if (on.empty()) continue;
      const std::size_t i = rng.index(on.size());
      t.disconnect(on[i].first, static_cast<ApId>(&on - want.data()));
      on.erase(on.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (ApId a = 0; a < 2; ++a) {
    std::vector<UserId> order;
    for (const auto& [id, user] : want[a]) order.push_back(user);
    std::vector<UserId> got;
    t.for_each_station(
        a, [&](const ActiveStation& st) { got.push_back(st.user); });
    EXPECT_EQ(got, order) << "ap " << a;
  }
  EXPECT_GT(t.total_stations(), 150u);
}

TEST(ApLoadTracker, CopyKeepsStationOrderInStep) {
  // Replicas copy engines, trackers included, and must then place as
  // the source does: a copy visits each AP's stations in the source's
  // order, now and after the same later associate/disconnect calls.
  ApLoadTracker source(testing::mini_network(3));
  util::Rng rng(7);
  std::vector<std::pair<std::size_t, ApId>> live;
  std::size_t sessions = 0;
  auto random_op = [&](ApLoadTracker& a, ApLoadTracker* b) {
    if (live.empty() || rng.bernoulli(0.7)) {
      // Scattered ids spread the stations over many buckets.
      const std::size_t id = ++sessions * 0x9e3779b97f4a7c15ULL;
      const ApId ap = static_cast<ApId>(rng.index(3));
      const UserId user = static_cast<UserId>(sessions);
      a.associate(id, ap, user, 1.0);
      if (b != nullptr) b->associate(id, ap, user, 1.0);
      live.emplace_back(id, ap);
    } else {
      const std::size_t i = rng.index(live.size());
      a.disconnect(live[i].first, live[i].second);
      if (b != nullptr) b->disconnect(live[i].first, live[i].second);
      live[i] = live.back();
      live.pop_back();
    }
  };
  for (int i = 0; i < 200; ++i) random_op(source, nullptr);

  ApLoadTracker copy = source;
  ASSERT_EQ(station_orders(copy), station_orders(source));
  for (int i = 0; i < 600; ++i) {
    random_op(source, &copy);
    ASSERT_EQ(station_orders(copy), station_orders(source)) << "op " << i;
  }
  EXPECT_GT(source.total_stations(), 100u);
}

/// Every AP's stations as (user, demand bits), in visiting order.
template <typename Loads>
std::vector<std::vector<std::pair<UserId, double>>> stations_of(
    const Loads& loads, std::size_t aps) {
  std::vector<std::vector<std::pair<UserId, double>>> out(aps);
  for (ApId a = 0; a < aps; ++a) {
    loads.for_each_station(a, [&](const ActiveStation& st) {
      out[a].emplace_back(st.user, st.demand_mbps);
    });
  }
  return out;
}

TEST(BatchOverlay, ReadsAsACopiedTrackerGivenTheSameAssociates) {
  // LLF and S3 read a batch's state through the overlay instead of a
  // copy of the tracker: every read must return the copy's doubles
  // bit for bit, and for_each_station must visit in the copy's order.
  constexpr std::size_t kAps = 5;
  util::Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    ApLoadTracker committed(testing::mini_network(kAps));
    std::vector<std::pair<std::size_t, ApId>> live;
    for (std::size_t id = 1; id <= 60; ++id) {
      const ApId ap = static_cast<ApId>(rng.index(kAps));
      committed.associate(id * 7919, ap, static_cast<UserId>(id),
                          rng.uniform(0.01, 3.0));
      live.emplace_back(id * 7919, ap);
      if (rng.bernoulli(0.3)) {
        const std::size_t i = rng.index(live.size());
        committed.disconnect(live[i].first, live[i].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    ApLoadTracker copy = committed;
    BatchOverlay overlay(committed);
    for (std::size_t pick = 0; pick < 12; ++pick) {
      const ApId ap = static_cast<ApId>(rng.index(kAps));
      const auto user = static_cast<UserId>(1000 + pick);
      const double demand = rng.uniform(0.01, 3.0);
      copy.associate(5000 + pick, ap, user, demand);
      overlay.add(ap, user, demand);
      for (ApId a = 0; a < kAps; ++a) {
        EXPECT_EQ(overlay.demand_mbps(a), copy.demand_mbps(a));
        EXPECT_EQ(overlay.headroom_mbps(a), copy.headroom_mbps(a));
        EXPECT_EQ(overlay.station_count(a), copy.station_count(a));
      }
      ASSERT_EQ(stations_of(overlay, kAps), stations_of(copy, kAps))
          << "trial " << trial << " pick " << pick;
    }
  }
}

TEST(ApLoadTracker, FloatingPointDustClamped) {
  ApLoadTracker t(testing::mini_network(1));
  t.associate(1, 0, 0, 0.1);
  t.associate(2, 0, 1, 0.2);
  t.disconnect(1, 0);
  t.disconnect(2, 0);
  EXPECT_GE(t.demand_mbps(0), 0.0);
  EXPECT_EQ(t.station_count(0), 0u);
}

TEST(ApLoadTracker, HeadroomTracksCapacity) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 1;
  layout.ap_capacity_mbps = 10.0;
  ApLoadTracker t{wlan::make_campus(layout)};
  t.associate(1, 0, 0, 7.0);
  EXPECT_DOUBLE_EQ(t.headroom_mbps(0), 3.0);
  t.associate(2, 0, 1, 5.0);
  EXPECT_DOUBLE_EQ(t.headroom_mbps(0), -2.0);  // oversubscribed
}

}  // namespace
}  // namespace s3::sim
