// Dynamic association state of the network during replay.
//
// Tracks, per AP, the set of active stations with their offered rates.
// Selection policies read this view: LLF needs per-AP aggregate load,
// S3 additionally needs the identities of associated users to evaluate
// C(AP) = Σ_{w ∈ S(AP)} θ(u, w). BatchOverlay reads the same view with
// one batch's earlier picks added, without copying the tracker.
#pragma once

#include <algorithm>
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
  /// The station joins the end of the AP's list.
  void associate(std::size_t session_id, ApId ap, UserId user,
                 double demand_mbps) {
    S3_REQUIRE(ap < aps_.size(), "associate: ap out of range");
    ApState& s = aps_[ap];
    S3_REQUIRE(find(s, session_id) == s.stations.end(),
               "associate: duplicate session id on AP");
    s.stations.push_back({session_id, ActiveStation{user, demand_mbps}});
    s.total_demand_mbps += demand_mbps;
  }

  /// Removes session `session_id` from `ap`; the AP's other stations
  /// keep their order.
  void disconnect(std::size_t session_id, ApId ap) {
    S3_REQUIRE(ap < aps_.size(), "disconnect: ap out of range");
    ApState& s = aps_[ap];
    const auto it = find(s, session_id);
    S3_REQUIRE(it != s.stations.end(), "disconnect: unknown session");
    s.total_demand_mbps -= it->station.demand_mbps;
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

  /// Visits every active station on `ap` in association order: the
  /// order of the associate calls that placed the survivors. A copy
  /// visits in the source's order, and so does the same call sequence
  /// replayed into any other tracker.
  template <typename Fn>
  void for_each_station(ApId ap, Fn&& fn) const {
    S3_REQUIRE(ap < aps_.size(), "for_each_station: ap out of range");
    for (const Slot& slot : aps_[ap].stations) fn(slot.station);
  }

  std::size_t num_aps() const noexcept { return aps_.size(); }

  /// Total stations currently associated anywhere.
  std::size_t total_stations() const noexcept {
    std::size_t n = 0;
    for (const ApState& s : aps_) n += s.stations.size();
    return n;
  }

 private:
  struct Slot {
    std::size_t session;
    ActiveStation station;
  };
  /// Memory: one Slot per active station plus one vector header per AP.
  struct ApState {
    std::vector<Slot> stations;  ///< association order
    double total_demand_mbps = 0.0;
  };

  /// The AP's slot of `session_id`, or end(). A linear scan: in the
  /// full-campus replay of the benchmark's test days (seeds 42 and 7,
  /// under S3, S3-online and LLF) no AP ever held more than 40 stations
  /// at once, and the A/B runs in CHANGES.md found no regression.
  static std::vector<Slot>::iterator find(ApState& s, std::size_t session_id) {
    return std::find_if(
        s.stations.begin(), s.stations.end(),
        [&](const Slot& slot) { return slot.session == session_id; });
  }

  std::vector<ApState> aps_;
  std::vector<double> capacity_;
};

/// The committed loads plus the picks made so far in one batch, read
/// exactly as a copy of the tracker given the same associate calls
/// would be: each AP's demand starts from its committed demand and
/// adds each pick's demand in pick order (the `+=` sequence associate
/// performs), and for_each_station visits the committed stations, then
/// the batch's picks on that AP in pick order. So every comparison and
/// θ sum sees the doubles a copy would hold. LLF and S3 place batches
/// on it. Memory: one entry per pick.
class BatchOverlay {
 public:
  explicit BatchOverlay(const ApLoadTracker& committed)
      : committed_(&committed) {}

  /// Places `user` with `demand_mbps` on `ap` for the rest of the batch.
  void add(ApId ap, UserId user, double demand_mbps) {
    S3_REQUIRE(ap < committed_->num_aps(), "overlay add: ap out of range");
    picks_.push_back({ap, ActiveStation{user, demand_mbps}});
  }

  double demand_mbps(ApId ap) const {
    double demand = committed_->demand_mbps(ap);
    for (const Pick& p : picks_) {
      if (p.ap == ap) demand += p.station.demand_mbps;
    }
    return demand;
  }

  std::size_t station_count(ApId ap) const {
    std::size_t n = committed_->station_count(ap);
    for (const Pick& p : picks_) n += p.ap == ap ? 1 : 0;
    return n;
  }

  double headroom_mbps(ApId ap) const {
    return committed_->capacity_mbps(ap) - demand_mbps(ap);
  }

  template <typename Fn>
  void for_each_station(ApId ap, Fn&& fn) const {
    committed_->for_each_station(ap, fn);
    for (const Pick& p : picks_) {
      if (p.ap == ap) fn(p.station);
    }
  }

 private:
  struct Pick {
    ApId ap;
    ActiveStation station;
  };

  const ApLoadTracker* committed_;
  std::vector<Pick> picks_;  ///< pick order
};

}  // namespace s3::sim
