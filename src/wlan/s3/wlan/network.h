// Assembled campus network: buildings, controller domains, APs.
//
// The Network is an immutable description shared by the trace
// generator, the replay engine and the selection policies. Dynamic
// state (who is associated where, current loads) lives in
// s3::sim::ApLoadTracker, not here.
#pragma once

#include <span>
#include <vector>

#include "s3/util/error.h"
#include "s3/wlan/access_point.h"

namespace s3::wlan {

class Network {
 public:
  Network(std::vector<BuildingConfig> buildings,
          std::vector<ControllerConfig> controllers,
          std::vector<ApConfig> aps);

  std::size_t num_buildings() const noexcept { return buildings_.size(); }
  std::size_t num_controllers() const noexcept { return controllers_.size(); }
  std::size_t num_aps() const noexcept { return aps_.size(); }

  const BuildingConfig& building(BuildingId b) const {
    S3_REQUIRE(b < buildings_.size(), "building id out of range");
    return buildings_[b];
  }
  const ControllerConfig& controller(ControllerId c) const {
    S3_REQUIRE(c < controllers_.size(), "controller id out of range");
    return controllers_[c];
  }
  const ApConfig& ap(ApId a) const {
    S3_REQUIRE(a < aps_.size(), "ap id out of range");
    return aps_[a];
  }

  std::span<const BuildingConfig> buildings() const noexcept {
    return buildings_;
  }
  std::span<const ControllerConfig> controllers() const noexcept {
    return controllers_;
  }
  std::span<const ApConfig> aps() const noexcept { return aps_; }

  /// APs in one controller domain.
  std::span<const ApId> aps_of_controller(ControllerId c) const {
    S3_REQUIRE(c < controllers_.size(), "controller id out of range");
    return domain_aps_[c];
  }

  /// APs inside one building, ascending ids.
  std::span<const ApId> aps_of_building(BuildingId b) const {
    S3_REQUIRE(b < buildings_.size(), "building id out of range");
    return building_aps_[b];
  }

  /// The (single, in this deployment) controller serving a building.
  ControllerId controller_of_building(BuildingId b) const {
    S3_REQUIRE(b < buildings_.size(), "building id out of range");
    return building_controller_[b];
  }

  ControllerId controller_of_ap(ApId a) const { return ap(a).controller; }

 private:
  std::vector<BuildingConfig> buildings_;
  std::vector<ControllerConfig> controllers_;
  std::vector<ApConfig> aps_;
  std::vector<std::vector<ApId>> domain_aps_;       // by controller
  std::vector<std::vector<ApId>> building_aps_;     // by building
  std::vector<ControllerId> building_controller_;   // by building
};

/// Parameters for the regular campus builder.
struct CampusLayout {
  std::size_t num_buildings = 8;
  std::size_t aps_per_building = 12;
  double ap_capacity_mbps = 20.0;
  double building_width_m = 60.0;
  double building_depth_m = 40.0;
  double campus_pitch_m = 120.0;  ///< spacing between building origins
};

/// Builds an SJTU-like campus: `num_buildings` buildings on a square
/// grid, one controller per building, APs on a regular grid inside each
/// building. With the paper-scale parameters (22 buildings, ~15 APs
/// each) this reproduces the trace deployment's 334-AP shape.
Network make_campus(const CampusLayout& layout);

}  // namespace s3::wlan
