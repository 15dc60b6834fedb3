// Indoor radio propagation and candidate-AP computation.
//
// By default a station associates with the strongest-RSSI AP (§I); a
// controller may instead choose any AP whose signal at the station
// clears the association threshold. The log-distance path-loss model
// here produces both the default strongest-signal choice and the
// candidate set that LLF / S3 select from.
#pragma once

#include <vector>

#include "s3/util/ids.h"
#include "s3/wlan/network.h"

namespace s3::wlan {

/// Log-distance path-loss model: rssi = tx - PL(d0) - 10 n log10(d/d0).
/// Deterministic (shadowing, if desired, is sampled by the caller and
/// added to the threshold), so candidate sets are reproducible.
struct RadioModel {
  double path_loss_exponent = 3.0;   ///< indoor with obstructions
  double reference_loss_db = 40.0;   ///< PL at d0 = 1 m, 2.4 GHz
  /// Association cutoff. With the defaults above the audible radius is
  /// ~19 m, so a station hears the handful of APs near its room, not
  /// the whole building — the controller can only choose among those,
  /// which is what makes co-leavings hurt (§III-C).
  double association_threshold_dbm = -62.0;
  /// Stations only hear APs of their own building (walls between
  /// buildings attenuate below the threshold at SJTU-like spacing).
  bool same_building_only = true;

  /// Received signal strength (dBm) of `ap` at `at`.
  double rssi_dbm(const ApConfig& ap, const Position& at) const noexcept;
};

/// APs audible from `at` (RSSI above threshold), strongest first.
/// If no AP clears the threshold, returns the single strongest AP of
/// the building so that a station indoors is never orphaned; when no
/// AP's RSSI is finite (a distance that overflows), that is the
/// building's first AP. With `same_building_only` it reads only the
/// building's APs (Network::aps_of_building). `building` must be a
/// valid id.
std::vector<ApId> candidate_aps(const Network& net, const RadioModel& radio,
                                BuildingId building, const Position& at);

/// The default 802.11 behaviour: the strongest-RSSI AP at `at`.
ApId strongest_ap(const Network& net, const RadioModel& radio,
                  BuildingId building, const Position& at);

}  // namespace s3::wlan
