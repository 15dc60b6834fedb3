#include "s3/core/baselines.h"

namespace s3::core {

ApId LlfSelector::select_one(const sim::Arrival& arrival,
                             const sim::ApLoadTracker& loads) {
  return least_loaded(arrival, loads, metric_);
}

sim::BatchResult LlfSelector::place_batch(const sim::BatchRequest& request,
                                          const sim::ApLoadTracker& loads) {
  sim::BatchResult result;
  result.placements.reserve(request.arrivals.size());
  result.replayable = true;  // LLF keeps no state
  sim::BatchOverlay overlay(loads);
  for (const sim::Arrival& a : request.arrivals) {
    const ApId ap = least_loaded_of(a.candidates, overlay, metric_);
    overlay.add(ap, a.user, a.demand_mbps);
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
