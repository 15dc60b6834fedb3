// The "online adjustment" class of load balancers (§I, §II [12]):
// periodically migrate already-associated stations from heavy APs to
// light ones. These schemes bound the achievable balance from above —
// and quantify the user-experience price S3 refuses to pay, because
// every migration drops and re-establishes a user's connection.
//
// Migration cannot be expressed as a per-session AP in a trace::Trace
// (a session may hop), so this runs its own event loop and reports
// per-slot per-AP served load directly, plus the disruption ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "s3/core/baselines.h"
#include "s3/sim/replay.h"
#include "s3/trace/trace.h"
#include "s3/util/sim_time.h"
#include "s3/wlan/network.h"
#include "s3/wlan/radio.h"

namespace s3::core {

struct RebalancerConfig {
  /// Seconds between re-balancing sweeps of every controller.
  std::int64_t sweep_period_s = 300;
  /// A station is migrated only if the move reduces the donor's load
  /// below the receiver's resulting load by at most this hysteresis
  /// (prevents ping-pong migrations of the same station).
  double hysteresis_mbps = 0.5;
  /// Cap on migrations per controller per sweep.
  std::size_t max_migrations_per_sweep = 8;
  /// Arrival policy between sweeps.
  LoadMetric arrival_metric = LoadMetric::kStations;
  wlan::RadioModel radio{};
  /// Load-averaging slot for the reported series.
  std::int64_t slot_s = 600;
};

struct RebalanceResult {
  /// Mean served load (Mbit/s) per [controller][slot * domain + k],
  /// k indexing net.aps_of_controller(controller).
  std::vector<std::vector<double>> slot_load;
  std::size_t num_slots = 0;
  util::SimTime begin;
  std::int64_t slot_s = 0;

  /// Total migrations performed.
  std::size_t migrations = 0;
  /// Migrations per user (a user's connection drops once per entry).
  std::vector<std::uint32_t> disruptions_per_user;
  /// Fraction of sessions disrupted at least once.
  double disrupted_session_fraction = 0.0;

  std::span<const double> loads(ControllerId c, std::size_t slot,
                                std::size_t domain_size) const {
    return std::span<const double>(slot_load[c])
        .subspan(slot * domain_size, domain_size);
  }
};

/// Replays `workload` with LLF arrivals plus periodic migration sweeps
/// over [begin, end) (whole workload when begin == end).
RebalanceResult simulate_with_migration(const wlan::Network& net,
                                        const trace::Trace& workload,
                                        const RebalancerConfig& config = {});

}  // namespace s3::core
