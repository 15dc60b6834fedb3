#include "s3/social/presence_table.h"

#include <algorithm>

#include "s3/util/error.h"

namespace s3::social {

PresenceTable::PresenceTable(util::SimTime co_leave_window,
                             util::SimTime min_encounter_overlap)
    : co_leave_window_(co_leave_window),
      min_encounter_overlap_(min_encounter_overlap) {
  S3_REQUIRE(co_leave_window_.seconds() > 0 &&
                 min_encounter_overlap_.seconds() > 0,
             "PresenceTable: windows must be positive");
}

void PresenceTable::arrive(ApId ap, std::size_t session_index, UserId user,
                           util::SimTime when) {
  aps_[ap].present.push_back({session_index, user, when});
}

DepartureEvents PresenceTable::depart(ApId ap, std::size_t session_index,
                                      util::SimTime when) {
  DepartureEvents out;
  const auto at = aps_.find(ap);
  if (at == aps_.end()) return out;  // session predates tracking
  auto& here = at->second.present;
  const auto self = std::find_if(
      here.begin(), here.end(),
      [&](const Presence& p) { return p.session_index == session_index; });
  if (self == here.end()) return out;
  const Presence leaving = *self;
  here.erase(self);
  out.user = leaving.user;

  auto& recent = at->second.recent;
  std::erase_if(recent, [&](const Departure& d) {
    return when - d.when > co_leave_window_;
  });

  // Encounters: overlap with everyone still present (their stay covers
  // ours since `leaving.since`). Recent leavers' overlaps already
  // counted when *they* left, so only the still-present side counts
  // here — no pair is counted twice.
  for (const Presence& other : here) {
    if (other.user == leaving.user) continue;
    const util::SimTime overlap = when - std::max(other.since, leaving.since);
    if (overlap >= min_encounter_overlap_) {
      out.encountered.push_back(other.user);
    }
  }
  // Co-leavings: recent departures within the window whose shared stay
  // with us was encounter-grade, so P(L|E) stays ≤ 1 (the matching
  // encounter was counted when the other side left).
  for (const Departure& d : recent) {
    if (d.user == leaving.user) continue;
    const util::SimTime overlap = d.when - std::max(d.since, leaving.since);
    if (overlap >= min_encounter_overlap_) {
      out.co_left.push_back(d.user);
    }
  }
  recent.push_back({leaving.user, leaving.since, when});
  return out;
}

std::uint64_t PresenceTable::state_digest() const {
  std::uint64_t h = 0x70726573656e6365ULL;  // "presence"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  for (const auto& [ap, state] : aps_) {
    mix(ap);
    mix(state.present.size());
    for (const Presence& p : state.present) {
      mix(p.session_index);
      mix(p.user);
      mix(static_cast<std::uint64_t>(p.since.seconds()));
    }
    for (const Departure& d : state.recent) {
      mix(d.user);
      mix(static_cast<std::uint64_t>(d.since.seconds()));
      mix(static_cast<std::uint64_t>(d.when.seconds()));
    }
  }
  return h;
}

}  // namespace s3::social
