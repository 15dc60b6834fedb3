#include "s3/wlan/radio.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace s3::wlan {

double RadioModel::rssi_dbm(const ApConfig& ap,
                            const Position& at) const noexcept {
  const double d = std::max(distance(ap.pos, at), 1.0);  // clamp to d0 = 1 m
  return ap.tx_power_dbm - reference_loss_db -
         10.0 * path_loss_exponent * std::log10(d);
}

std::vector<ApId> candidate_aps(const Network& net, const RadioModel& radio,
                                BuildingId building, const Position& at) {
  struct Scored {
    ApId id;
    double rssi;
  };
  std::vector<Scored> heard;
  // The fallback starts at the building's first AP at -inf dBm, so a
  // position whose distance overflows (every RSSI -inf) still gets one.
  const std::span<const ApId> own = net.aps_of_building(building);
  ApId best_in_building = own.empty() ? kInvalidAp : own.front();
  double best_rssi = -std::numeric_limits<double>::infinity();

  const auto hear = [&](const ApConfig& ap) {
    const double rssi = radio.rssi_dbm(ap, at);
    if (ap.building == building && rssi > best_rssi) {
      best_rssi = rssi;
      best_in_building = ap.id;
    }
    if (rssi >= radio.association_threshold_dbm) {
      heard.push_back({ap.id, rssi});
    }
  };
  if (radio.same_building_only) {
    for (const ApId id : own) hear(net.aps()[id]);
  } else {
    for (const ApConfig& ap : net.aps()) hear(ap);
  }
  if (heard.empty()) {
    S3_ASSERT(best_in_building != kInvalidAp,
              "candidate_aps: building without APs");
    return {best_in_building};
  }
  // s3lint: allow(det-sort-ties): total order: (rssi, id)
  std::sort(heard.begin(), heard.end(), [](const Scored& a, const Scored& b) {
    if (a.rssi != b.rssi) return a.rssi > b.rssi;
    return a.id < b.id;  // deterministic tie-break
  });
  std::vector<ApId> out;
  out.reserve(heard.size());
  for (const Scored& s : heard) out.push_back(s.id);
  return out;
}

ApId strongest_ap(const Network& net, const RadioModel& radio,
                  BuildingId building, const Position& at) {
  return candidate_aps(net, radio, building, at).front();
}

}  // namespace s3::wlan
