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

TEST(ApLoadTracker, CopyKeepsStationOrderInStep) {
  // S3Selector sums C(AP) in for_each_station order and reads either
  // the caller's tracker or a copy of it, so a copy must visit each
  // AP's stations in the source's order, now and after the same later
  // associate/disconnect calls (rehashes included).
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
  EXPECT_GT(source.total_stations(), 100u);  // grew through rehashes
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
