#include "s3/analysis/events.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "s3/util/error.h"

namespace s3::analysis {

namespace {

/// Session indices grouped by AP: groups in ascending AP id, connect
/// order (ascending session index) inside each group. Built by sorting
/// packed (ap, index) keys, so nothing is indexed by an AP id, whose
/// range comes from the input trace.
class ApGroups {
 public:
  explicit ApGroups(const trace::Trace& trace) {
    const auto sessions = trace.sessions();
    S3_REQUIRE(sessions.size() <= std::numeric_limits<std::uint32_t>::max(),
               "ApGroups: too many sessions");
    std::vector<std::uint64_t> keys(sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      keys[i] = (std::uint64_t{sessions[i].ap} << 32) | i;
    }
    std::sort(keys.begin(), keys.end());
    order_.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i == 0 || (keys[i] >> 32) != (keys[i - 1] >> 32)) {
        starts_.push_back(i);
      }
      order_[i] = static_cast<std::uint32_t>(keys[i]);
    }
    starts_.push_back(keys.size());
  }

  /// fn(std::span<const std::uint32_t> idx) once per AP.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t g = 0; g + 1 < starts_.size(); ++g) {
      fn(std::span<const std::uint32_t>(order_).subspan(
          starts_[g], starts_[g + 1] - starts_[g]));
    }
  }

 private:
  std::vector<std::uint32_t> order_;
  std::vector<std::size_t> starts_;
};

// Event flags of one same-AP session pair, and the width of the field.
constexpr std::uint64_t kCoCame = 1;
constexpr std::uint64_t kEncountered = 2;
constexpr std::uint64_t kCoLeft = 4;
constexpr unsigned kFlagBits = 3;

/// Calls fn(smaller user, larger user, flags) for every same-AP session
/// pair with at least one event (§III-D).
template <typename Fn>
void for_each_pair_event(const trace::Trace& trace, const ApGroups& groups,
                         const EventExtractionConfig& config, Fn&& fn) {
  const auto sessions = trace.sessions();
  groups.for_each([&](std::span<const std::uint32_t> idx) {
    for (std::size_t a = 0; a < idx.size(); ++a) {
      const trace::SessionRecord& si = sessions[idx[a]];
      for (std::size_t b = a + 1; b < idx.size(); ++b) {
        const trace::SessionRecord& sj = sessions[idx[b]];
        if (sj.connect >= si.disconnect) break;  // no further overlaps
        if (si.user == sj.user) continue;

        const std::int64_t overlap =
            std::min(si.disconnect, sj.disconnect).seconds() -
            std::max(si.connect, sj.connect).seconds();
        if (overlap <= 0) continue;

        const bool co_came =
            std::llabs(si.connect.seconds() - sj.connect.seconds()) <=
            config.co_coming_window.seconds();
        const bool encountered =
            overlap >= config.min_encounter_overlap.seconds();
        if (!co_came && !encountered) continue;  // no event: no entry

        std::uint64_t bits = co_came ? kCoCame : 0;
        if (encountered) {
          bits |= kEncountered;
          const std::int64_t left_apart =
              std::llabs(si.disconnect.seconds() - sj.disconnect.seconds());
          if (left_apart <= config.co_leave_window.seconds()) bits |= kCoLeft;
        }
        fn(std::min(si.user, sj.user), std::max(si.user, sj.user), bits);
      }
    }
  });
}

}  // namespace

std::vector<PairEventEntry> extract_pair_events(
    const trace::Trace& trace, const EventExtractionConfig& config) {
  S3_REQUIRE(trace.fully_assigned(),
             "extract_pair_events: trace must be assigned");
  S3_REQUIRE(config.co_leave_window.seconds() > 0 &&
                 config.min_encounter_overlap.seconds() > 0,
             "extract_pair_events: windows must be positive");

  // Bucket every event by its smaller user (a counting pass, then a
  // scatter pass), so each bucket is small and sorts on its own. An
  // event is (larger user << kFlagBits | bits).
  const ApGroups groups(trace);
  std::vector<std::size_t> offsets(trace.num_users() + 1, 0);
  for_each_pair_event(trace, groups, config,
                      [&](UserId u, UserId, std::uint64_t) {
                        ++offsets[u + 1];
                      });
  for (std::size_t u = 0; u < trace.num_users(); ++u) {
    offsets[u + 1] += offsets[u];
  }
  std::vector<std::uint64_t> events(offsets.back());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for_each_pair_event(trace, groups, config,
                        [&](UserId u, UserId v, std::uint64_t bits) {
                          events[cursor[u]++] =
                              (std::uint64_t{v} << kFlagBits) | bits;
                        });
  }

  std::size_t distinct = 0;
  for (std::size_t u = 0; u < trace.num_users(); ++u) {
    const auto lo = events.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi =
        events.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(lo, hi);
    for (auto it = lo; it != hi; ++it) {
      distinct += it == lo || (*it >> kFlagBits) != (it[-1] >> kFlagBits);
    }
  }

  std::vector<PairEventEntry> out;
  out.reserve(distinct);
  for (std::size_t u = 0; u < trace.num_users(); ++u) {
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const auto v = static_cast<UserId>(events[i] >> kFlagBits);
      if (i == offsets[u] || out.back().pair.b != v) {
        out.push_back({UserPair(static_cast<UserId>(u), v), {}});
      }
      PairEventStats& ps = out.back().stats;
      ps.co_comings += (events[i] & kCoCame) != 0;
      ps.encounters += (events[i] & kEncountered) != 0;
      ps.co_leaves += (events[i] & kCoLeft) != 0;
    }
  }
  return out;
}

PairStatsMap extract_pair_stats(const trace::Trace& trace,
                                const EventExtractionConfig& config) {
  const std::vector<PairEventEntry> entries =
      extract_pair_events(trace, config);
  PairStatsMap stats;
  stats.reserve(entries.size());
  for (const PairEventEntry& e : entries) stats.emplace(e.pair, e.stats);
  return stats;
}

namespace {

/// Shared sweep: for each per-AP event timeline, counts per-user events
/// and how many had a different-user companion within `window`.
/// `Select` extracts (time, user) from a session.
template <typename Select, typename Total, typename Joint>
void count_companioned_events(const trace::Trace& trace, util::SimTime window,
                              Select&& select, Total&& total,
                              Joint&& joint) {
  const auto sessions = trace.sessions();
  struct Ev {
    util::SimTime when;
    UserId user;
  };
  std::vector<Ev> events;
  ApGroups(trace).for_each([&](std::span<const std::uint32_t> idx) {
    events.clear();
    events.reserve(idx.size());
    for (std::uint32_t i : idx) {
      const auto [when, user] = select(sessions[i]);
      events.push_back({when, user});
    }
    // s3lint: allow(det-sort-ties): ties cannot reach output: each event's
    // companion test scans every event within the window on both sides
    std::sort(events.begin(), events.end(),
              [](const Ev& a, const Ev& b) { return a.when < b.when; });

    for (std::size_t i = 0; i < events.size(); ++i) {
      total(events[i].user);
      bool companioned = false;
      for (std::size_t j = i + 1; j < events.size() && !companioned; ++j) {
        if ((events[j].when - events[i].when) > window) break;
        companioned = events[j].user != events[i].user;
      }
      for (std::size_t j = i; j-- > 0 && !companioned;) {
        if ((events[i].when - events[j].when) > window) break;
        companioned = events[j].user != events[i].user;
      }
      if (companioned) joint(events[i].user);
    }
  });
}

}  // namespace

std::vector<UserLeaveStats> per_user_leave_stats(const trace::Trace& trace,
                                                 util::SimTime window) {
  S3_REQUIRE(trace.fully_assigned(),
             "per_user_leave_stats: trace must be assigned");
  S3_REQUIRE(window.seconds() > 0, "per_user_leave_stats: bad window");
  std::vector<UserLeaveStats> out(trace.num_users());
  count_companioned_events(
      trace, window,
      [](const trace::SessionRecord& s) {
        return std::pair{s.disconnect, s.user};
      },
      [&](UserId u) { ++out[u].leavings; },
      [&](UserId u) { ++out[u].co_leavings; });
  return out;
}

std::vector<UserArrivalStats> per_user_arrival_stats(const trace::Trace& trace,
                                                     util::SimTime window) {
  S3_REQUIRE(trace.fully_assigned(),
             "per_user_arrival_stats: trace must be assigned");
  S3_REQUIRE(window.seconds() > 0, "per_user_arrival_stats: bad window");
  std::vector<UserArrivalStats> out(trace.num_users());
  count_companioned_events(
      trace, window,
      [](const trace::SessionRecord& s) {
        return std::pair{s.connect, s.user};
      },
      [&](UserId u) { ++out[u].arrivals; },
      [&](UserId u) { ++out[u].co_comings; });
  return out;
}

}  // namespace s3::analysis
