#include "s3/core/baselines.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "s3/util/rng.h"
#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::mini_network;

sim::Arrival arrival(std::vector<ApId> candidates, double demand = 1.0,
                     UserId user = 0) {
  sim::Arrival a;
  a.session_index = 0;
  a.user = user;
  a.controller = 0;
  a.demand_mbps = demand;
  a.candidates = std::move(candidates);
  return a;
}

TEST(LlfSelector, PicksLeastDemand) {
  const auto net = mini_network(3);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 0, 10, 5.0);
  loads.associate(2, 1, 11, 2.0);
  loads.associate(3, 2, 12, 8.0);
  LlfSelector llf(LoadMetric::kDemand);
  EXPECT_EQ(llf.select_one(arrival({0, 1, 2}), loads), 1u);
}

TEST(LlfSelector, PicksLeastStations) {
  const auto net = mini_network(3);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 0, 10, 0.1);
  loads.associate(2, 0, 11, 0.1);
  loads.associate(3, 1, 12, 9.0);  // heavy but single station
  LlfSelector llf(LoadMetric::kStations);
  EXPECT_EQ(llf.select_one(arrival({0, 1}), loads), 1u);
}

TEST(LlfSelector, RestrictedToCandidates) {
  const auto net = mini_network(3);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 2, 10, 0.0);  // AP 2 would win but is not audible
  LlfSelector llf;
  const ApId chosen = llf.select_one(arrival({0, 1}), loads);
  EXPECT_TRUE(chosen == 0 || chosen == 1);
}

TEST(LlfSelector, TieBreaksBySecondaryThenId) {
  const auto net = mini_network(3);
  sim::ApLoadTracker loads(net);
  // Equal demand on APs 1 and 2, but AP 2 has fewer stations.
  loads.associate(1, 1, 10, 2.0);
  loads.associate(2, 1, 11, 2.0);
  loads.associate(3, 2, 12, 4.0);
  LlfSelector llf(LoadMetric::kDemand);
  EXPECT_EQ(llf.select_one(arrival({1, 2}), loads), 2u);
  // Full tie -> lowest AP id.
  sim::ApLoadTracker empty(net);
  EXPECT_EQ(llf.select_one(arrival({2, 0, 1}), empty), 0u);
}

TEST(LlfSelector, BatchSeesOwnPlacements) {
  const auto net = mini_network(2);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (std::size_t i = 0; i < 4; ++i) {
    sim::Arrival a = arrival({0, 1}, 1.0, static_cast<UserId>(i));
    a.session_index = i;
    batch.push_back(a);
  }
  LlfSelector llf;
  const auto chosen = llf.place_batch({batch}, loads).placements;
  // Alternates between the two APs: 2 each.
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 0u), 2);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 1u), 2);
}

// ---- place_batch against the scratch-copy loop ----------------------
//
// Before the overlay, every baseline placed a batch by associating each
// pick into a scratch copy of the tracker. That loop is the reference:
// LLF's overlay must pick exactly what it picked, and RSSI and random,
// which read no loads, must pick and draw exactly as it did.

/// The scratch-copy loop: each pick is associated into a copy of
/// `loads`, so later picks see earlier ones.
std::vector<ApId> scratch_copy_batch(sim::ApSelector& policy,
                                     std::span<const sim::Arrival> batch,
                                     const sim::ApLoadTracker& loads) {
  sim::ApLoadTracker scratch = loads;
  std::vector<ApId> out;
  for (const sim::Arrival& a : batch) {
    const ApId ap = policy.select_one(a, scratch);
    scratch.associate(a.session_index, ap, a.user, a.demand_mbps);
    out.push_back(ap);
  }
  return out;
}

/// Demands whose sums depend on the order of addition
/// ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)), with repeats and 0 so that
/// loads tie.
constexpr double kDemands[] = {0.0, 0.1, 0.2, 0.3, 0.3, 0.5, 1.0};

struct BatchCase {
  sim::ApLoadTracker loads;
  std::vector<sim::Arrival> arrivals;
};

/// Up to 3 committed stations per AP, then a burst of 1-12 arrivals
/// whose candidates come from one pool of 1-4 APs, so that picks pile
/// onto shared APs.
BatchCase random_case(const wlan::Network& net, util::Rng& rng) {
  BatchCase c{sim::ApLoadTracker(net), {}};
  std::size_t session = 0;
  const auto demand = [&] { return kDemands[rng.index(std::size(kDemands))]; };
  for (ApId ap = 0; ap < net.num_aps(); ++ap) {
    for (std::size_t n = rng.index(4); n > 0; --n) {
      c.loads.associate(session, ap, static_cast<UserId>(session), demand());
      ++session;
    }
  }
  std::vector<ApId> pool(net.num_aps());
  std::iota(pool.begin(), pool.end(), ApId{0});
  std::shuffle(pool.begin(), pool.end(), rng.engine());
  pool.resize(1 + rng.index(4));
  for (std::size_t n = 1 + rng.index(12); n > 0; --n) {
    sim::Arrival a = arrival({}, demand(), static_cast<UserId>(session));
    a.session_index = session++;
    a.candidates = pool;
    std::shuffle(a.candidates.begin(), a.candidates.end(), rng.engine());
    a.candidates.resize(1 + rng.index(pool.size()));
    c.arrivals.push_back(std::move(a));
  }
  return c;
}

/// Arrivals 100, 101, ... with the given demands, all on `candidates`.
std::vector<sim::Arrival> burst(std::vector<ApId> candidates,
                                std::vector<double> demands) {
  std::vector<sim::Arrival> out;
  for (const double d : demands) {
    sim::Arrival a = arrival(candidates, d, static_cast<UserId>(out.size()));
    a.session_index = 100 + out.size();
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<ApId> llf_batch(LoadMetric metric,
                            const std::vector<sim::Arrival>& batch,
                            const sim::ApLoadTracker& loads) {
  LlfSelector llf(metric);
  const std::vector<ApId> got = llf.place_batch({batch}, loads).placements;
  EXPECT_EQ(got, scratch_copy_batch(llf, batch, loads));
  return got;
}

TEST(LlfBatchDifferential, MatchesScratchCopyOnSeededBursts) {
  const auto net = mini_network(6);
  util::Rng rng(2013);
  for (int trial = 0; trial < 3000; ++trial) {
    const BatchCase c = random_case(net, rng);
    for (const LoadMetric metric : {LoadMetric::kDemand, LoadMetric::kStations}) {
      LlfSelector llf(metric);
      ASSERT_EQ(llf.place_batch({c.arrivals}, c.loads).placements,
                scratch_copy_batch(llf, c.arrivals, c.loads))
          << "trial " << trial << ", metric " << static_cast<int>(metric);
    }
  }
}

TEST(LlfBatchDifferential, DemandBreaksEqualStationCounts) {
  const auto net = mini_network(2);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 0, 10, 1.0);
  loads.associate(2, 1, 11, 2.0);
  // 1:1 stations, 1.0 < 2.0 -> AP 0; then 1 < 2 stations -> AP 1; then
  // 2:2 stations, 6.0 > 2.5 Mbit/s -> AP 1.
  EXPECT_EQ(llf_batch(LoadMetric::kStations, burst({0, 1}, {5.0, 0.5, 1.0}),
                      loads),
            (std::vector<ApId>{0, 1, 1}));
}

TEST(LlfBatchDifferential, ApIdBreaksEqualLoads) {
  const auto net = mini_network(3);
  const sim::ApLoadTracker empty(net);
  for (const LoadMetric metric : {LoadMetric::kDemand, LoadMetric::kStations}) {
    EXPECT_EQ(llf_batch(metric, burst({2, 0, 1}, {1.0, 1.0, 1.0, 1.0}), empty),
              (std::vector<ApId>{0, 1, 2, 0}));
  }
}

TEST(LlfBatchDifferential, SumsDemandsInArrivalOrder) {
  const auto net = mini_network(2);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 0, 10, 0.1);
  loads.associate(2, 1, 11, 0.3);
  loads.associate(3, 1, 12, 0.3);
  loads.associate(4, 1, 13, 0.0);
  // AP 1 holds 0.3 + 0.3 + 0.0 == 0.6 Mbit/s on 3 stations. Two picks
  // forced onto AP 0 bring it to 3 stations and (0.1 + 0.2) + 0.3 ==
  // 0.6000000000000001, so the free arrival goes to AP 1. Summing the
  // batch first (0.1 + (0.2 + 0.3) == 0.6) would tie, and AP 0 would
  // win on its id.
  std::vector<sim::Arrival> batch = burst({0}, {0.2, 0.3});
  batch.push_back(burst({0, 1}, {1.0}).front());
  batch.back().session_index = 102;
  EXPECT_EQ(llf_batch(LoadMetric::kDemand, batch, loads),
            (std::vector<ApId>{0, 0, 1}));
}

TEST(BatchDifferential, RssiAndRandomPickAndDrawAsTheScratchCopyDid) {
  const auto net = mini_network(6);
  util::Rng rng(42);
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    const BatchCase c = random_case(net, rng);
    StrongestRssiSelector rssi;
    ASSERT_EQ(rssi.place_batch({c.arrivals}, c.loads).placements,
              scratch_copy_batch(rssi, c.arrivals, c.loads))
        << "trial " << trial;
    RandomSelector batched(trial);
    RandomSelector looped(trial);
    ASSERT_EQ(batched.place_batch({c.arrivals}, c.loads).placements,
              scratch_copy_batch(looped, c.arrivals, c.loads))
        << "trial " << trial;
    ASSERT_EQ(batched.state_digest(), looped.state_digest())
        << "trial " << trial;
  }
}

TEST(StrongestRssiSelector, PicksFirstCandidate) {
  const auto net = mini_network(2);
  sim::ApLoadTracker loads(net);
  loads.associate(1, 1, 9, 19.0);  // load is irrelevant to RSSI policy
  StrongestRssiSelector rssi;
  EXPECT_EQ(rssi.select_one(arrival({1, 0}), loads), 1u);
}

TEST(RandomSelector, StaysInCandidatesAndCoversThem) {
  const auto net = mini_network(4);
  sim::ApLoadTracker loads(net);
  RandomSelector rnd(7);
  std::set<ApId> seen;
  for (int i = 0; i < 200; ++i) {
    const ApId c = rnd.select_one(arrival({1, 2, 3}), loads);
    EXPECT_TRUE(c == 1 || c == 2 || c == 3);
    seen.insert(c);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Selectors, EmptyCandidatesRejected) {
  const auto net = mini_network(1);
  sim::ApLoadTracker loads(net);
  LlfSelector llf;
  StrongestRssiSelector rssi;
  RandomSelector rnd(1);
  EXPECT_THROW(llf.select_one(arrival({}), loads), std::invalid_argument);
  EXPECT_THROW(rssi.select_one(arrival({}), loads), std::invalid_argument);
  EXPECT_THROW(rnd.select_one(arrival({}), loads), std::invalid_argument);
}

TEST(Selectors, Names) {
  LlfSelector llf;
  StrongestRssiSelector rssi;
  RandomSelector rnd(1);
  EXPECT_EQ(llf.name(), "LLF");
  EXPECT_EQ(rssi.name(), "RSSI");
  EXPECT_EQ(rnd.name(), "random");
}

}  // namespace
}  // namespace s3::core
