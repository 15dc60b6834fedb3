#include "s3/wlan/radio.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace s3::wlan {
namespace {

TEST(RadioModel, RssiDecreasesWithDistance) {
  RadioModel radio;
  ApConfig ap;
  ap.pos = {0, 0};
  double prev = radio.rssi_dbm(ap, {1, 0});
  for (double d = 2.0; d <= 64.0; d *= 2.0) {
    const double cur = radio.rssi_dbm(ap, {d, 0});
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(RadioModel, ClampsBelowReferenceDistance) {
  RadioModel radio;
  ApConfig ap;
  ap.pos = {0, 0};
  // At or inside 1 m the path loss is the reference loss.
  EXPECT_DOUBLE_EQ(radio.rssi_dbm(ap, {0, 0}),
                   ap.tx_power_dbm - radio.reference_loss_db);
  EXPECT_DOUBLE_EQ(radio.rssi_dbm(ap, {0.5, 0}),
                   radio.rssi_dbm(ap, {0, 0}));
}

TEST(RadioModel, LogDistanceFormula) {
  RadioModel radio;
  radio.path_loss_exponent = 3.0;
  radio.reference_loss_db = 40.0;
  ApConfig ap;
  ap.pos = {0, 0};
  ap.tx_power_dbm = 20.0;
  EXPECT_NEAR(radio.rssi_dbm(ap, {10, 0}), 20.0 - 40.0 - 30.0, 1e-9);
  EXPECT_NEAR(radio.rssi_dbm(ap, {100, 0}), 20.0 - 40.0 - 60.0, 1e-9);
}

TEST(CandidateAps, SortedStrongestFirst) {
  const Network net = make_campus({});
  RadioModel radio;
  const BuildingConfig& b = net.building(0);
  const Position at{b.origin.x + 5.0, b.origin.y + 5.0};
  const auto cands = candidate_aps(net, radio, 0, at);
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(radio.rssi_dbm(net.ap(cands[i - 1]), at),
              radio.rssi_dbm(net.ap(cands[i]), at));
  }
}

TEST(CandidateAps, AllAboveThreshold) {
  const Network net = make_campus({});
  RadioModel radio;
  const BuildingConfig& b = net.building(2);
  const Position at{b.origin.x + 20.0, b.origin.y + 15.0};
  const auto cands = candidate_aps(net, radio, 2, at);
  if (cands.size() > 1) {
    for (ApId a : cands) {
      EXPECT_GE(radio.rssi_dbm(net.ap(a), at),
                radio.association_threshold_dbm);
    }
  }
}

TEST(CandidateAps, SameBuildingOnlyByDefault) {
  const Network net = make_campus({});
  RadioModel radio;
  const BuildingConfig& b = net.building(1);
  const Position at{b.origin.x + 10.0, b.origin.y + 10.0};
  for (ApId a : candidate_aps(net, radio, 1, at)) {
    EXPECT_EQ(net.ap(a).building, 1u);
  }
}

TEST(CandidateAps, OrphanFallsBackToStrongestInBuilding) {
  const Network net = make_campus({});
  RadioModel radio;
  radio.association_threshold_dbm = 0.0;  // nothing is audible
  const BuildingConfig& b = net.building(0);
  const Position at{b.origin.x + 1.0, b.origin.y + 1.0};
  const auto cands = candidate_aps(net, radio, 0, at);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(net.ap(cands[0]).building, 0u);
}

TEST(CandidateAps, CrossBuildingWhenAllowed) {
  CampusLayout layout;
  layout.campus_pitch_m = 20.0;  // buildings nearly touching
  const Network net = make_campus(layout);
  RadioModel radio;
  radio.same_building_only = false;
  radio.association_threshold_dbm = -90.0;
  const BuildingConfig& b = net.building(0);
  const Position at{b.origin.x + b.width_m - 1.0, b.origin.y + 1.0};
  bool cross = false;
  for (ApId a : candidate_aps(net, radio, 0, at)) {
    if (net.ap(a).building != 0u) cross = true;
  }
  EXPECT_TRUE(cross);
}

TEST(StrongestAp, IsNearestOnUniformGrid) {
  const Network net = make_campus({});
  RadioModel radio;
  // Stand exactly on an AP: that AP must win.
  const ApConfig& target = net.ap(5);
  EXPECT_EQ(strongest_ap(net, radio, target.building, target.pos), target.id);
}

TEST(CandidateAps, ThresholdShrinksSet) {
  const Network net = make_campus({});
  RadioModel loose, tight;
  loose.association_threshold_dbm = -80.0;
  tight.association_threshold_dbm = -55.0;
  const BuildingConfig& b = net.building(0);
  const Position at{b.origin.x + 30.0, b.origin.y + 20.0};
  EXPECT_GE(candidate_aps(net, loose, 0, at).size(),
            candidate_aps(net, tight, 0, at).size());
}

// ---- the building walk against a scan of the whole network ---------

/// candidate_aps as a scan over every AP of the network, the reference
/// for the walk over Network::aps_of_building.
std::vector<ApId> scan_whole_network(const Network& net,
                                     const RadioModel& radio,
                                     BuildingId building, const Position& at) {
  std::vector<std::pair<double, ApId>> heard;  // (-rssi, id)
  ApId fallback = kInvalidAp;
  double fallback_rssi = 0.0;
  for (const ApConfig& ap : net.aps()) {
    if (radio.same_building_only && ap.building != building) continue;
    const double rssi = radio.rssi_dbm(ap, at);
    if (ap.building == building &&
        (fallback == kInvalidAp || rssi > fallback_rssi)) {
      fallback = ap.id;
      fallback_rssi = rssi;
    }
    if (rssi >= radio.association_threshold_dbm) {
      heard.emplace_back(-rssi, ap.id);
    }
  }
  if (heard.empty()) return {fallback};
  std::sort(heard.begin(), heard.end());  // strongest first, then by id
  std::vector<ApId> out;
  for (const auto& [neg_rssi, id] : heard) out.push_back(id);
  return out;
}

/// Three buildings whose AP ids interleave (AP i is in building i % 3),
/// with uneven transmit powers, so no building's APs form a contiguous
/// id range.
Network interleaved_network() {
  std::vector<BuildingConfig> buildings;
  std::vector<ControllerConfig> controllers;
  for (BuildingId b = 0; b < 3; ++b) {
    buildings.push_back({b, {50.0 * b, 0.0}, 60.0, 40.0});
    controllers.push_back({b, b, "ctrl-" + std::to_string(b)});
  }
  std::vector<ApConfig> aps;
  for (ApId i = 0; i < 14; ++i) {
    ApConfig a;
    a.id = i;
    a.building = i % 3;
    a.controller = a.building;
    a.pos = {buildings[a.building].origin.x + 4.0 * i, 3.0 * (i % 5)};
    a.tx_power_dbm = 14.0 + (i % 4) * 2.0;
    aps.push_back(a);
  }
  return Network(std::move(buildings), std::move(controllers), std::move(aps));
}

std::vector<Network> walk_networks() {
  std::vector<Network> nets;
  nets.push_back(make_campus({}));
  CampusLayout touching;
  touching.campus_pitch_m = 20.0;  // neighbours overlap
  touching.aps_per_building = 7;
  nets.push_back(make_campus(touching));
  nets.push_back(interleaved_network());
  return nets;
}

std::vector<RadioModel> walk_radios() {
  std::vector<RadioModel> radios(5);
  radios[1].same_building_only = false;
  radios[2].same_building_only = false;
  radios[2].association_threshold_dbm = -90.0;
  radios[3].association_threshold_dbm = 0.0;  // nothing audible
  radios[4].same_building_only = false;
  radios[4].association_threshold_dbm = 0.0;
  return radios;
}

TEST(CandidateAps, BuildingWalkMatchesWholeNetworkScan) {
  std::mt19937_64 rng(20130708);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const Network& net : walk_networks()) {
    for (const BuildingConfig& b : net.buildings()) {
      std::vector<Position> at;
      for (int i = 0; i < 40; ++i) {
        // Inside the building.
        at.push_back({b.origin.x + unit(rng) * b.width_m,
                      b.origin.y + unit(rng) * b.depth_m});
        // On one of its four edges.
        const double along = unit(rng);
        switch (i % 4) {
          case 0:
            at.push_back({b.origin.x + along * b.width_m, b.origin.y});
            break;
          case 1:
            at.push_back(
                {b.origin.x + along * b.width_m, b.origin.y + b.depth_m});
            break;
          case 2:
            at.push_back({b.origin.x, b.origin.y + along * b.depth_m});
            break;
          default:
            at.push_back(
                {b.origin.x + b.width_m, b.origin.y + along * b.depth_m});
        }
        // Far outside it, in any direction.
        const double angle = unit(rng) * 6.283185307179586;
        const double range = 200.0 + unit(rng) * 5000.0;
        at.push_back({b.origin.x + range * std::cos(angle),
                      b.origin.y + range * std::sin(angle)});
      }
      for (const RadioModel& radio : walk_radios()) {
        for (const Position& p : at) {
          ASSERT_EQ(candidate_aps(net, radio, b.id, p),
                    scan_whole_network(net, radio, b.id, p))
              << "building " << b.id << " at (" << p.x << ", " << p.y
              << "), same_building_only " << radio.same_building_only
              << ", threshold " << radio.association_threshold_dbm;
        }
      }
    }
  }
}

TEST(CandidateAps, ApsOfBuildingPartitionTheNetworkInAscendingOrder) {
  for (const Network& net : walk_networks()) {
    std::vector<int> listed(net.num_aps(), 0);
    for (const BuildingConfig& b : net.buildings()) {
      const auto own = net.aps_of_building(b.id);
      EXPECT_FALSE(own.empty());
      EXPECT_TRUE(std::is_sorted(own.begin(), own.end()));
      EXPECT_EQ(std::adjacent_find(own.begin(), own.end()), own.end());
      for (const ApId a : own) {
        EXPECT_EQ(net.ap(a).building, b.id);
        ++listed[a];
      }
    }
    EXPECT_EQ(std::count(listed.begin(), listed.end(), 1),
              static_cast<std::ptrdiff_t>(net.num_aps()));
  }
  const Network net = make_campus({});
  EXPECT_THROW((void)net.aps_of_building(
                   static_cast<BuildingId>(net.num_buildings())),
               std::invalid_argument);
}

TEST(CandidateAps, OverflowingDistanceFallsBackToFirstApOfBuilding) {
  // A finite position far enough away that the distance overflows to
  // inf: every RSSI is -inf, and the station still gets its building's
  // first AP.
  const Position far{1e200, 1e200};
  for (const Network& net : walk_networks()) {
    for (const RadioModel& radio : walk_radios()) {
      for (const BuildingConfig& b : net.buildings()) {
        const std::vector<ApId> cands = candidate_aps(net, radio, b.id, far);
        ASSERT_EQ(cands.size(), 1u);
        EXPECT_EQ(cands.front(), net.aps_of_building(b.id).front());
      }
    }
  }
}

}  // namespace
}  // namespace s3::wlan
