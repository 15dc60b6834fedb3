#include "s3/sim/selector.h"

namespace s3::sim {

BatchResult ApSelector::place_batch(const BatchRequest& request,
                                    const ApLoadTracker& loads) {
  BatchResult result;
  result.placements.reserve(request.arrivals.size());
  for (const Arrival& a : request.arrivals) {
    result.placements.push_back(select_one(a, loads));
  }
  return result;
}

}  // namespace s3::sim
