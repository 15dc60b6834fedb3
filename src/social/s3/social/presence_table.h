// Presence state for online social-event detection: who is on each AP
// right now, and who left recently enough to still count for
// co-leaving.
//
// The table only detects events; a departure reports the peers it met
// and LiveSocialModel::learn counts them. OnlineS3Selector owns one
// table for everything it replays. ServePipeline keeps one per domain,
// beside that domain's model under the domain lock (an AP belongs to
// exactly one domain, so presence never crosses tables). The table
// itself is single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "s3/util/ids.h"
#include "s3/util/sim_time.h"

namespace s3::social {

/// The social events one departure implies, against the departing
/// session's stay on its AP. Empty for a session the table never saw.
struct DepartureEvents {
  UserId user = kInvalidUser;
  std::vector<UserId> encountered;  ///< peers still present long enough
  std::vector<UserId> co_left;      ///< peers that left shortly before
};

class PresenceTable {
 public:
  /// Event-detection windows (paper optima, §V-B: 5-minute co-leaving,
  /// 10-minute encounters). Both must be positive.
  PresenceTable(util::SimTime co_leave_window,
                util::SimTime min_encounter_overlap);

  /// Records that `user`'s session is now present on `ap`.
  void arrive(ApId ap, std::size_t session_index, UserId user,
              util::SimTime when);

  /// Removes the session from `ap` and returns the peers its departure
  /// encountered (still present, overlap ≥ the encounter minimum) and
  /// co-left with (left within the co-leave window after an
  /// encounter-grade overlap). The session then joins `ap`'s
  /// recent-departure list for later co-leave matches.
  DepartureEvents depart(ApId ap, std::size_t session_index,
                         util::SimTime when);

  /// Fold of the presence lists and recent departures, in AP order —
  /// state a replicated controller must carry across failover. Equal
  /// for two tables that saw the same arrive/depart sequence.
  std::uint64_t state_digest() const;

 private:
  struct Presence {
    std::size_t session_index;
    UserId user;
    util::SimTime since;
  };
  struct Departure {
    UserId user;
    util::SimTime since;  ///< association start (for the overlap check)
    util::SimTime when;
  };

  struct ApState {
    std::vector<Presence> present;  ///< in arrival order
    /// In departure order, pruned past the co-leave window.
    std::vector<Departure> recent;
  };

  util::SimTime co_leave_window_;
  util::SimTime min_encounter_overlap_;
  std::map<ApId, ApState> aps_;
};

}  // namespace s3::social
