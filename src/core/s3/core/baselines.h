// Baseline AP-selection policies.
//
//  * LlfSelector — Least Loaded First [9], the state of the art the
//    paper measures against: a new user goes to the candidate AP with
//    the least workload (aggregate traffic, or station count).
//  * StrongestRssiSelector — the 802.11 default: strongest signal wins.
//  * RandomSelector — uniform over candidates; a sanity floor.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "s3/sim/selector.h"
#include "s3/util/rng.h"

namespace s3::core {

enum class LoadMetric : std::uint8_t {
  kDemand = 0,    ///< aggregate offered Mbit/s (traffic-load LLF)
  kStations = 1,  ///< associated-station count (user-count LLF)
};

class LlfSelector final : public sim::ApSelector {
 public:
  explicit LlfSelector(LoadMetric metric = LoadMetric::kDemand) noexcept
      : metric_(metric) {}

  std::string_view name() const override { return "LLF"; }

  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override;

  /// Places the arrivals in order, each against the committed loads
  /// plus this batch's earlier picks, so a burst spreads over its
  /// candidates. The earlier picks live in a sim::BatchOverlay; the
  /// tracker is never copied. The result is replayable.
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override;

  LoadMetric metric() const noexcept { return metric_; }

  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::make_unique<LlfSelector>(*this);
  }

 private:
  LoadMetric metric_;
};

class StrongestRssiSelector final : public sim::ApSelector {
 public:
  std::string_view name() const override { return "RSSI"; }

  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override;

  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::make_unique<StrongestRssiSelector>(*this);
  }
};

class RandomSelector final : public sim::ApSelector {
 public:
  explicit RandomSelector(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::string_view name() const override { return "random"; }

  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override;

  /// (seed, draws) pins the mt19937 stream position — two instances
  /// with equal digests produce identical future picks.
  std::uint64_t state_digest() const override {
    util::SplitMix64 mix(seed_ ^ (draws_ * 0x9e3779b97f4a7c15ULL));
    return mix.next();
  }

  /// Copies the mt19937 engine mid-stream, so the clone's future draws
  /// match the original's exactly.
  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::make_unique<RandomSelector>(*this);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t draws_ = 0;
  util::Rng rng_;
};

/// Least-loaded AP of `aps` under `metric`; ties broken by the other
/// metric, then by AP id (determinism). `Loads` is any view with
/// `demand_mbps(ap)` and `station_count(ap)`: the committed
/// ApLoadTracker, or a sim::BatchOverlay on it.
template <typename Loads>
ApId least_loaded_of(std::span<const ApId> aps, const Loads& loads,
                     LoadMetric metric) {
  S3_REQUIRE(!aps.empty(), "least_loaded: no candidates");
  // (primary, secondary) load; pairs compare lexicographically.
  const auto key = [&](ApId ap) {
    const double demand = loads.demand_mbps(ap);
    const auto stations = static_cast<double>(loads.station_count(ap));
    return metric == LoadMetric::kDemand ? std::pair(demand, stations)
                                         : std::pair(stations, demand);
  };
  ApId best = aps.front();
  std::pair<double, double> best_key = key(best);
  for (const ApId ap : aps) {
    const std::pair<double, double> cur = key(ap);
    if (cur < best_key || (cur == best_key && ap < best)) {
      best = ap;
      best_key = cur;
    }
  }
  return best;
}

/// Same, over one arrival's candidates.
inline ApId least_loaded(const sim::Arrival& arrival,
                         const sim::ApLoadTracker& loads, LoadMetric metric) {
  return least_loaded_of(arrival.candidates, loads, metric);
}

}  // namespace s3::core
