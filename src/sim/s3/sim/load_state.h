// Dynamic association state of the network during replay.
//
// Tracks, per AP, the set of active stations with their offered rates.
// Selection policies read this view: LLF needs per-AP aggregate load,
// S3 additionally needs the identities of associated users to evaluate
// C(AP) = Σ_{w ∈ S(AP)} θ(u, w).
#pragma once

#include <unordered_map>
#include <vector>

#include "s3/util/error.h"
#include "s3/util/ids.h"
#include "s3/wlan/network.h"

namespace s3::sim {

struct ActiveStation {
  UserId user = kInvalidUser;
  double demand_mbps = 0.0;
};

class ApLoadTracker {
 public:
  explicit ApLoadTracker(const wlan::Network& net)
      : aps_(net.num_aps()), capacity_(net.num_aps()) {
    for (const wlan::ApConfig& a : net.aps()) {
      capacity_[a.id] = a.capacity_mbps;
    }
  }

  /// Associates session `session_id` (a caller-chosen unique key).
  void associate(std::size_t session_id, ApId ap, UserId user,
                 double demand_mbps) {
    S3_REQUIRE(ap < aps_.size(), "associate: ap out of range");
    ApState& s = aps_[ap];
    const bool inserted =
        s.stations.emplace(session_id, ActiveStation{user, demand_mbps})
            .second;
    S3_REQUIRE(inserted, "associate: duplicate session id on AP");
    s.total_demand_mbps += demand_mbps;
  }

  /// Removes session `session_id` from `ap`.
  void disconnect(std::size_t session_id, ApId ap) {
    S3_REQUIRE(ap < aps_.size(), "disconnect: ap out of range");
    ApState& s = aps_[ap];
    const auto it = s.stations.find(session_id);
    S3_REQUIRE(it != s.stations.end(), "disconnect: unknown session");
    s.total_demand_mbps -= it->second.demand_mbps;
    if (s.total_demand_mbps < 0.0) s.total_demand_mbps = 0.0;  // fp dust
    s.stations.erase(it);
  }

  std::size_t station_count(ApId ap) const {
    S3_REQUIRE(ap < aps_.size(), "station_count: ap out of range");
    return aps_[ap].stations.size();
  }

  /// Aggregate offered load (Mbit/s) — the "workload" LLF compares.
  double demand_mbps(ApId ap) const {
    S3_REQUIRE(ap < aps_.size(), "demand_mbps: ap out of range");
    return aps_[ap].total_demand_mbps;
  }

  double capacity_mbps(ApId ap) const {
    S3_REQUIRE(ap < aps_.size(), "capacity_mbps: ap out of range");
    return capacity_[ap];
  }

  /// Headroom before the Definition-1 bandwidth constraint is violated.
  double headroom_mbps(ApId ap) const {
    return capacity_mbps(ap) - demand_mbps(ap);
  }

  /// Visits every active station on `ap`. Visitation order is the
  /// map's stored order: unspecified, but stable for a given
  /// insert/erase history, which replay determinism relies on.
  ///
  /// Copy-order property: a copy visits each AP's stations in the
  /// source's order, and stays in step with it under the same later
  /// associate/disconnect calls (a copied unordered_map keeps the
  /// source's buckets and node order). S3Selector sums C(AP) in this
  /// order and reads either the caller's tracker or a copy of it, so
  /// its placements depend on this.
  template <typename Fn>
  void for_each_station(ApId ap, Fn&& fn) const {
    S3_REQUIRE(ap < aps_.size(), "for_each_station: ap out of range");
    // s3lint: allow(det-unordered-iter): callers reduce commutatively
    // (validators) or consume the stable stored order consistently
    // within a run (S3Selector's batched theta sweep).
    for (const auto& [sid, st] : aps_[ap].stations) fn(st);
  }

  std::size_t num_aps() const noexcept { return aps_.size(); }

  /// Total stations currently associated anywhere.
  std::size_t total_stations() const noexcept {
    std::size_t n = 0;
    for (const ApState& s : aps_) n += s.stations.size();
    return n;
  }

 private:
  struct ApState {
    std::unordered_map<std::size_t, ActiveStation> stations;
    double total_demand_mbps = 0.0;
  };

  std::vector<ApState> aps_;
  std::vector<double> capacity_;
};

}  // namespace s3::sim
