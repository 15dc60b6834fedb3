#include "s3/core/baselines.h"

#include <vector>

namespace s3::core {

namespace {

/// The committed loads plus the picks made so far in one batch. An AP
/// enters the overlay on its first pick with its committed demand; each
/// pick then adds its arrival's demand, in arrival order. That is the
/// sequence of `+=` ApLoadTracker::associate performs on a copy of the
/// tracker, so every comparison reads the doubles a copy would hold.
class BatchOverlay {
 public:
  explicit BatchOverlay(const sim::ApLoadTracker& committed)
      : committed_(&committed) {}

  double demand_mbps(ApId ap) const {
    const std::size_t i = slot(ap);
    return i < picked_.size() ? picked_[i].demand_mbps
                              : committed_->demand_mbps(ap);
  }

  std::size_t station_count(ApId ap) const {
    const std::size_t i = slot(ap);
    return committed_->station_count(ap) +
           (i < picked_.size() ? picked_[i].added : 0);
  }

  void add(ApId ap, double demand_mbps) {
    const std::size_t i = slot(ap);
    if (i == picked_.size()) {
      picked_.push_back({ap, 0, committed_->demand_mbps(ap)});
    }
    ++picked_[i].added;
    picked_[i].demand_mbps += demand_mbps;
  }

 private:
  struct Picked {
    ApId ap;
    std::size_t added;   ///< stations this batch placed on `ap`
    double demand_mbps;  ///< committed demand plus theirs
  };

  /// Index of `ap` in picked_, or picked_.size() when not picked yet.
  std::size_t slot(ApId ap) const {
    std::size_t i = 0;
    while (i < picked_.size() && picked_[i].ap != ap) ++i;
    return i;
  }

  const sim::ApLoadTracker* committed_;
  std::vector<Picked> picked_;  // at most one entry per distinct pick
};

}  // namespace

ApId LlfSelector::select_one(const sim::Arrival& arrival,
                             const sim::ApLoadTracker& loads) {
  return least_loaded(arrival, loads, metric_);
}

sim::BatchResult LlfSelector::place_batch(const sim::BatchRequest& request,
                                          const sim::ApLoadTracker& loads) {
  sim::BatchResult result;
  result.placements.reserve(request.arrivals.size());
  result.replayable = true;  // LLF keeps no state
  BatchOverlay overlay(loads);
  for (const sim::Arrival& a : request.arrivals) {
    const ApId ap = least_loaded_of(a.candidates, overlay, metric_);
    overlay.add(ap, a.demand_mbps);
    result.placements.push_back(ap);
  }
  return result;
}

ApId StrongestRssiSelector::select_one(const sim::Arrival& arrival,
                                       const sim::ApLoadTracker& loads) {
  (void)loads;
  S3_REQUIRE(!arrival.candidates.empty(), "RSSI: no candidates");
  return arrival.candidates.front();  // candidates are strongest-first
}

ApId RandomSelector::select_one(const sim::Arrival& arrival,
                                const sim::ApLoadTracker& loads) {
  (void)loads;
  S3_REQUIRE(!arrival.candidates.empty(), "random: no candidates");
  ++draws_;
  return arrival.candidates[rng_.index(arrival.candidates.size())];
}

}  // namespace s3::core
