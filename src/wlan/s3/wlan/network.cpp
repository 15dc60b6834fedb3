#include "s3/wlan/network.h"

#include <cmath>
#include <string>
#include <utility>

namespace s3::wlan {

double distance(const Position& a, const Position& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(std::vector<BuildingConfig> buildings,
                 std::vector<ControllerConfig> controllers,
                 std::vector<ApConfig> aps)
    : buildings_(std::move(buildings)),
      controllers_(std::move(controllers)),
      aps_(std::move(aps)) {
  S3_REQUIRE(!buildings_.empty(), "Network: no buildings");
  S3_REQUIRE(!controllers_.empty(), "Network: no controllers");
  S3_REQUIRE(!aps_.empty(), "Network: no APs");

  // Ids must be dense and positional.
  for (std::size_t i = 0; i < buildings_.size(); ++i) {
    S3_REQUIRE(buildings_[i].id == i, "Network: building ids must be dense");
  }
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    S3_REQUIRE(controllers_[i].id == i, "Network: controller ids must be dense");
    S3_REQUIRE(controllers_[i].building < buildings_.size(),
               "Network: controller references unknown building");
  }
  domain_aps_.resize(controllers_.size());
  building_aps_.resize(buildings_.size());
  building_controller_.assign(buildings_.size(), kInvalidController);
  for (const ControllerConfig& c : controllers_) {
    S3_REQUIRE(building_controller_[c.building] == kInvalidController,
               "Network: more than one controller per building");
    building_controller_[c.building] = c.id;
  }
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    const ApConfig& a = aps_[i];
    S3_REQUIRE(a.id == i, "Network: ap ids must be dense");
    S3_REQUIRE(a.controller < controllers_.size(),
               "Network: ap references unknown controller");
    S3_REQUIRE(a.building < buildings_.size(),
               "Network: ap references unknown building");
    S3_REQUIRE(a.capacity_mbps > 0.0, "Network: ap capacity must be positive");
    domain_aps_[a.controller].push_back(a.id);
    building_aps_[a.building].push_back(a.id);
  }
  for (std::size_t c = 0; c < domain_aps_.size(); ++c) {
    S3_REQUIRE(!domain_aps_[c].empty(),
               "Network: controller domain " + std::to_string(c) + " has no APs");
  }
}

Network make_campus(const CampusLayout& layout) {
  S3_REQUIRE(layout.num_buildings > 0, "make_campus: no buildings");
  S3_REQUIRE(layout.aps_per_building > 0, "make_campus: no APs per building");
  S3_REQUIRE(layout.ap_capacity_mbps > 0.0, "make_campus: bad capacity");

  std::vector<BuildingConfig> buildings;
  std::vector<ControllerConfig> controllers;
  std::vector<ApConfig> aps;

  const auto grid =
      static_cast<std::size_t>(std::ceil(std::sqrt(
          static_cast<double>(layout.num_buildings))));

  for (std::size_t b = 0; b < layout.num_buildings; ++b) {
    BuildingConfig bc;
    bc.id = static_cast<BuildingId>(b);
    bc.origin = {static_cast<double>(b % grid) * layout.campus_pitch_m,
                 static_cast<double>(b / grid) * layout.campus_pitch_m};
    bc.width_m = layout.building_width_m;
    bc.depth_m = layout.building_depth_m;
    buildings.push_back(bc);

    ControllerConfig cc;
    cc.id = static_cast<ControllerId>(b);
    cc.building = bc.id;
    cc.name = "ctrl-" + std::to_string(b);
    controllers.push_back(cc);
  }

  // APs on a near-square grid inside each building.
  const auto ap_cols = static_cast<std::size_t>(std::ceil(std::sqrt(
      static_cast<double>(layout.aps_per_building))));
  const auto ap_rows = (layout.aps_per_building + ap_cols - 1) / ap_cols;

  ApId next_ap = 0;
  for (std::size_t b = 0; b < layout.num_buildings; ++b) {
    const BuildingConfig& bc = buildings[b];
    for (std::size_t k = 0; k < layout.aps_per_building; ++k) {
      const std::size_t col = k % ap_cols;
      const std::size_t row = k / ap_cols;
      ApConfig ac;
      ac.id = next_ap++;
      ac.controller = static_cast<ControllerId>(b);
      ac.building = bc.id;
      ac.pos = {bc.origin.x + (static_cast<double>(col) + 0.5) * bc.width_m /
                                  static_cast<double>(ap_cols),
                bc.origin.y + (static_cast<double>(row) + 0.5) * bc.depth_m /
                                  static_cast<double>(ap_rows)};
      ac.capacity_mbps = layout.ap_capacity_mbps;
      aps.push_back(ac);
    }
  }
  return Network(std::move(buildings), std::move(controllers), std::move(aps));
}

}  // namespace s3::wlan
