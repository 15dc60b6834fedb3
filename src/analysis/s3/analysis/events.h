// Social-event extraction from an assigned trace (§III-D).
//
//  * Encountering: two users keep connections to the same AP with a
//    temporal overlap of at least `min_encounter_overlap`.
//  * Co-leaving: two users leave the same AP within
//    `co_leave_window` of each other (and had encountered during those
//    sessions, so the conditional P(L|E) is well defined per pair).
//  * Co-coming: symmetric on the connect side (tracked for
//    completeness; S3 only consumes encounters and co-leavings).
#pragma once

#include <unordered_map>
#include <vector>

#include "s3/trace/trace.h"
#include "s3/util/ids.h"
#include "s3/util/sim_time.h"

namespace s3::analysis {

struct PairEventStats {
  std::uint32_t encounters = 0;
  std::uint32_t co_leaves = 0;
  std::uint32_t co_comings = 0;

  /// Empirical P(L(u,v) | E(u,v)).
  double co_leave_probability() const noexcept {
    return encounters > 0
               ? static_cast<double>(co_leaves) / static_cast<double>(encounters)
               : 0.0;
  }
};

using PairStatsMap =
    std::unordered_map<UserPair, PairEventStats, UserPairHash>;

/// One pair's counts, as extract_pair_events returns them.
struct PairEventEntry {
  UserPair pair;
  PairEventStats stats;
};

struct EventExtractionConfig {
  /// Co-leaving window (paper sweeps 1–30 min; 5 min is optimal, §V-B).
  util::SimTime co_leave_window = util::SimTime::from_minutes(5);
  /// Minimum same-AP overlap for an encounter.
  util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10);
  /// Co-coming window (definition symmetry).
  util::SimTime co_coming_window = util::SimTime::from_minutes(5);
};

/// Per-pair encounter / co-leave / co-come counts over the whole trace,
/// one entry per pair with at least one event, in strictly ascending
/// pair order. The trace must be fully assigned (events are defined per
/// AP).
std::vector<PairEventEntry> extract_pair_events(
    const trace::Trace& trace, const EventExtractionConfig& config = {});

/// The same counts as a hash map (for callers that look pairs up).
PairStatsMap extract_pair_stats(const trace::Trace& trace,
                                const EventExtractionConfig& config = {});

/// Per-user leaving behaviour for the Fig. 5 CDF.
struct UserLeaveStats {
  std::uint32_t leavings = 0;     ///< total disconnects
  std::uint32_t co_leavings = 0;  ///< disconnects with >=1 co-leaver

  double co_leave_fraction() const noexcept {
    return leavings > 0
               ? static_cast<double>(co_leavings) / static_cast<double>(leavings)
               : 0.0;
  }
};

/// For each user: how many of their leavings were co-leavings (another
/// user left the same AP within `window`).
std::vector<UserLeaveStats> per_user_leave_stats(const trace::Trace& trace,
                                                 util::SimTime window);

/// Per-user arrival behaviour (the co-coming side of §III-D).
struct UserArrivalStats {
  std::uint32_t arrivals = 0;
  std::uint32_t co_comings = 0;  ///< arrivals with >=1 co-arriver

  double co_coming_fraction() const noexcept {
    return arrivals > 0
               ? static_cast<double>(co_comings) / static_cast<double>(arrivals)
               : 0.0;
  }
};

/// For each user: how many of their arrivals were co-comings (another
/// user joined the same AP within `window`).
std::vector<UserArrivalStats> per_user_arrival_stats(const trace::Trace& trace,
                                                     util::SimTime window);

}  // namespace s3::analysis
