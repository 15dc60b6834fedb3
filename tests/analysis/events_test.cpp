#include "s3/analysis/events.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "s3/core/baselines.h"
#include "s3/sim/replay.h"
#include "s3/social/model_io.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::analysis {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;

/// The hash-map extraction extract_pair_events replaced, kept as the
/// reference: sessions grouped per AP in connect order, every event
/// accumulated into an unordered_map. (Grouping uses an ordered map;
/// AP visit order cannot change integer counts.)
PairStatsMap reference_extract(const trace::Trace& trace,
                               const EventExtractionConfig& config) {
  std::map<ApId, std::vector<std::size_t>> by_ap;
  const auto sessions = trace.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    by_ap[sessions[i].ap].push_back(i);
  }
  PairStatsMap stats;
  for (const auto& [ap, idx] : by_ap) {
    for (std::size_t a = 0; a < idx.size(); ++a) {
      const trace::SessionRecord& si = sessions[idx[a]];
      for (std::size_t b = a + 1; b < idx.size(); ++b) {
        const trace::SessionRecord& sj = sessions[idx[b]];
        if (sj.connect >= si.disconnect) break;
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
        if (!co_came && !encountered) continue;
        PairEventStats& ps = stats[UserPair(si.user, sj.user)];
        if (co_came) ++ps.co_comings;
        if (encountered) {
          ++ps.encounters;
          if (std::llabs(si.disconnect.seconds() - sj.disconnect.seconds()) <=
              config.co_leave_window.seconds()) {
            ++ps.co_leaves;
          }
        }
      }
    }
  }
  return stats;
}

/// extract_pair_events must list exactly the reference's pairs, with
/// equal counts, in strictly ascending pair order.
void expect_matches_reference(const trace::Trace& t,
                              const EventExtractionConfig& config) {
  const PairStatsMap want = reference_extract(t, config);
  const std::vector<PairEventEntry> got = extract_pair_events(t, config);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(got[i - 1].pair, got[i].pair) << i;
    }
    const auto it = want.find(got[i].pair);
    ASSERT_NE(it, want.end()) << got[i].pair.a << "," << got[i].pair.b;
    EXPECT_EQ(got[i].stats.encounters, it->second.encounters);
    EXPECT_EQ(got[i].stats.co_leaves, it->second.co_leaves);
    EXPECT_EQ(got[i].stats.co_comings, it->second.co_comings);
  }
}

/// A seeded campus replayed under LLF: the assigned trace `train` sees.
trace::Trace llf_trace(std::uint64_t seed, std::size_t users,
                       std::size_t days, std::size_t aps) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_users = users;
  cfg.num_days = days;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = aps;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  core::LlfSelector llf;
  return sim::replay(g.network, g.workload, llf).assigned;
}

EventExtractionConfig windows(std::int64_t co_leave_s = 300,
                              std::int64_t encounter_s = 600) {
  EventExtractionConfig cfg;
  cfg.co_leave_window = util::SimTime(co_leave_s);
  cfg.min_encounter_overlap = util::SimTime(encounter_s);
  cfg.co_coming_window = util::SimTime(co_leave_s);
  return cfg;
}

TEST(ExtractPairStats, RequiresAssignedTrace) {
  const auto t = make_trace(2, {SessionSpec{}});
  EXPECT_THROW(extract_pair_stats(t, windows()), std::invalid_argument);
}

TEST(ExtractPairStats, EncounterNeedsMinOverlap) {
  // Overlap 400 s < 600 s threshold: no encounter.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 1000, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 600, .disconnect_s = 2000, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  EXPECT_TRUE(stats.empty() ||
              stats.at(UserPair(0, 1)).encounters == 0);
}

TEST(ExtractPairStats, EncounterAndCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 100, .disconnect_s = 3700, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  const PairEventStats& ps = stats.at(UserPair(0, 1));
  EXPECT_EQ(ps.encounters, 1u);
  EXPECT_EQ(ps.co_leaves, 1u);  // left 100 s apart <= 300 s
  EXPECT_EQ(ps.co_comings, 1u);
  EXPECT_DOUBLE_EQ(ps.co_leave_probability(), 1.0);
}

TEST(ExtractPairStats, EncounterWithoutCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 7200, .ap = 0},
  });
  const auto stats = extract_pair_stats(t, windows());
  const PairEventStats& ps = stats.at(UserPair(0, 1));
  EXPECT_EQ(ps.encounters, 1u);
  EXPECT_EQ(ps.co_leaves, 0u);  // left 3600 s apart
  EXPECT_DOUBLE_EQ(ps.co_leave_probability(), 0.0);
}

TEST(ExtractPairStats, DifferentApNoEvent) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3650, .ap = 1},
  });
  const auto stats = extract_pair_stats(t, windows());
  EXPECT_TRUE(stats.empty());
}

TEST(ExtractPairStats, SameUserIgnored) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 100, .disconnect_s = 3700, .ap = 0},
  });
  EXPECT_TRUE(extract_pair_stats(t, windows()).empty());
}

TEST(ExtractPairStats, MultipleMeetingsAccumulate) {
  std::vector<SessionSpec> specs;
  for (int day = 0; day < 3; ++day) {
    const std::int64_t base = day * 86400;
    specs.push_back(SessionSpec{.user = 0, .connect_s = base,
                                .disconnect_s = base + 3600, .ap = 0});
    specs.push_back(SessionSpec{.user = 1, .connect_s = base + 50,
                                .disconnect_s = base + 3600 + (day == 2 ? 4000 : 60),
                                .ap = 0});
  }
  const auto stats = extract_pair_stats(make_trace(2, specs, 3), windows());
  const PairEventStats& ps = stats.at(UserPair(0, 1));
  EXPECT_EQ(ps.encounters, 3u);
  EXPECT_EQ(ps.co_leaves, 2u);  // third meeting: user 1 stayed on
  EXPECT_NEAR(ps.co_leave_probability(), 2.0 / 3.0, 1e-12);
}

TEST(ExtractPairStats, WindowWidthChangesCoLeaves) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 4000, .ap = 0},
  });
  // Left 400 s apart: co-leave under a 600 s window, not under 300 s.
  EXPECT_EQ(extract_pair_stats(t, windows(600)).at(UserPair(0, 1)).co_leaves,
            1u);
  EXPECT_EQ(extract_pair_stats(t, windows(300)).at(UserPair(0, 1)).co_leaves,
            0u);
}

TEST(ExtractPairStats, RejectsBadWindows) {
  const auto t = make_trace(1, {SessionSpec{.ap = 0}});
  EventExtractionConfig bad;
  bad.co_leave_window = util::SimTime(0);
  EXPECT_THROW(extract_pair_stats(t, bad), std::invalid_argument);
}

TEST(ExtractPairEvents, MatchesReferenceOnLlfCampuses) {
  EventExtractionConfig narrow;
  narrow.co_leave_window = util::SimTime(60);
  narrow.min_encounter_overlap = util::SimTime(120);
  narrow.co_coming_window = util::SimTime(30);
  EventExtractionConfig wide;
  wide.co_leave_window = util::SimTime::from_minutes(30);
  wide.min_encounter_overlap = util::SimTime(1);
  wide.co_coming_window = util::SimTime::from_minutes(30);
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const trace::Trace t = llf_trace(seed, 150, 3, 4);
    for (const EventExtractionConfig& config :
         {EventExtractionConfig{}, narrow, wide}) {
      SCOPED_TRACE(seed);
      expect_matches_reference(t, config);
    }
  }
}

TEST(ExtractPairEvents, WindowBoundariesAreInclusive) {
  // Overlap exactly min_encounter_overlap (600 s) is an encounter;
  // |Δdisconnect| exactly co_leave_window (300 s) is a co-leave;
  // |Δconnect| exactly co_coming_window (300 s) is a co-coming.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 900, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 300, .disconnect_s = 1200, .ap = 0},
  });
  const std::vector<PairEventEntry> got = extract_pair_events(t, windows());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].pair, UserPair(0, 1));
  EXPECT_EQ(got[0].stats.encounters, 1u);
  EXPECT_EQ(got[0].stats.co_leaves, 1u);
  EXPECT_EQ(got[0].stats.co_comings, 1u);
  expect_matches_reference(t, windows());

  // One second past each boundary: no event of that kind, and with
  // neither an encounter nor a co-coming, no entry at all.
  const auto apart = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 900, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 301, .disconnect_s = 1201, .ap = 0},
  });
  EXPECT_TRUE(extract_pair_events(apart, windows()).empty());
  expect_matches_reference(apart, windows());
}

TEST(ExtractPairEvents, CoLeaveNeedsAnEncounter) {
  // Came and left together, but overlapped 200 s < 600 s: a co-coming
  // only — a co-leave without an encounter would break P(L|E) <= 1.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 300, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 100, .disconnect_s = 400, .ap = 0},
  });
  const std::vector<PairEventEntry> got = extract_pair_events(t, windows());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].stats.co_comings, 1u);
  EXPECT_EQ(got[0].stats.encounters, 0u);
  EXPECT_EQ(got[0].stats.co_leaves, 0u);
}

TEST(ExtractPairEvents, UserTwiceOnOneApPairsOnlyWithOthers) {
  const auto t = make_trace(3, {
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 60, .disconnect_s = 3650, .ap = 0},
      SessionSpec{.user = 2, .connect_s = 30, .disconnect_s = 3700, .ap = 0},
  });
  const std::vector<PairEventEntry> got = extract_pair_events(t, windows());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].pair, UserPair(1, 2));
  EXPECT_EQ(got[0].stats.encounters, 2u);
  EXPECT_EQ(got[0].stats.co_leaves, 2u);
  EXPECT_EQ(got[0].stats.co_comings, 2u);
  expect_matches_reference(t, windows());
}

TEST(ExtractPairEvents, ApIdsNearTheTopOfTheRange) {
  // AP ids come from the input; grouping must not size anything by them.
  constexpr ApId kHigh = 4'000'000'000u;
  const auto t = make_trace(4, {
      SessionSpec{.user = 3, .connect_s = 0, .disconnect_s = 3600, .ap = kHigh},
      SessionSpec{.user = 0, .connect_s = 10, .disconnect_s = 3600, .ap = kHigh},
      SessionSpec{.user = 2, .connect_s = 0, .disconnect_s = 3600,
                  .ap = kInvalidAp - 1},
      SessionSpec{.user = 1, .connect_s = 20, .disconnect_s = 3620,
                  .ap = kInvalidAp - 1},
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 7},
  });
  const std::vector<PairEventEntry> got = extract_pair_events(t, windows());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].pair, UserPair(0, 3));
  EXPECT_EQ(got[1].pair, UserPair(1, 2));
  expect_matches_reference(t, windows());
}

TEST(ExtractPairEvents, TrainedModelSerializesLikeTheReferenceMap) {
  // train() feeds extract_pair_events through the sorted builder; the
  // model must write the same text and binary bytes as one assembled
  // from the reference map with the same typing.
  const trace::Trace t = llf_trace(5, 160, 4, 4);
  for (const int history_days : {0, 2}) {
    social::SocialModelConfig config;
    config.history_days = history_days;
    const social::SocialIndexModel trained =
        social::SocialIndexModel::train(t, config);

    trace::Trace window = t;
    if (history_days > 0) {
      window = t.slice(
          t.end_time() - util::SimTime::from_days(history_days), t.end_time());
    }
    const PairStatsMap map = reference_extract(window, config.events);
    ASSERT_FALSE(map.empty());
    const social::SocialIndexModel reference =
        social::SocialIndexModel::from_parts(
            trained.config(), map, trained.typing(),
            social::estimate_type_matrix(trained.typing(), map));

    std::ostringstream text_a, text_b, bin_a, bin_b;
    ASSERT_TRUE(social::write_model(text_a, trained));
    ASSERT_TRUE(social::write_model(text_b, reference));
    EXPECT_EQ(text_a.str(), text_b.str()) << history_days;
    ASSERT_TRUE(social::write_model_binary(bin_a, trained));
    ASSERT_TRUE(social::write_model_binary(bin_b, reference));
    EXPECT_EQ(bin_a.str(), bin_b.str()) << history_days;
  }
}

TEST(PerUserLeaveStats, CountsCoLeavings) {
  const auto t = make_trace(3, {
      // Users 0 and 1 leave AP 0 together; user 2 leaves AP 0 much later.
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3700, .ap = 0},
      SessionSpec{.user = 2, .connect_s = 0, .disconnect_s = 9000, .ap = 0},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].leavings, 1u);
  EXPECT_EQ(stats[0].co_leavings, 1u);
  EXPECT_EQ(stats[1].co_leavings, 1u);
  EXPECT_EQ(stats[2].leavings, 1u);
  EXPECT_EQ(stats[2].co_leavings, 0u);
  EXPECT_DOUBLE_EQ(stats[0].co_leave_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats[2].co_leave_fraction(), 0.0);
}

TEST(PerUserLeaveStats, DifferentApsDoNotCoLeave) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3600, .ap = 1},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].co_leavings, 0u);
  EXPECT_EQ(stats[1].co_leavings, 0u);
}

TEST(PerUserLeaveStats, OwnSessionsDoNotCount) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 100, .disconnect_s = 3650, .ap = 0},
  });
  const auto stats = per_user_leave_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].leavings, 2u);
  EXPECT_EQ(stats[0].co_leavings, 0u);
}

TEST(PerUserLeaveStats, ZeroLeavingsFractionIsZero) {
  const UserLeaveStats empty;
  EXPECT_DOUBLE_EQ(empty.co_leave_fraction(), 0.0);
}

TEST(PerUserArrivalStats, CountsCoComings) {
  const auto t = make_trace(3, {
      // Users 0 and 1 arrive at AP 0 within a minute; user 2 arrives
      // much later.
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 60, .disconnect_s = 5000, .ap = 0},
      SessionSpec{.user = 2, .connect_s = 7200, .disconnect_s = 9000, .ap = 0},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].arrivals, 1u);
  EXPECT_EQ(stats[0].co_comings, 1u);
  EXPECT_EQ(stats[1].co_comings, 1u);
  EXPECT_EQ(stats[2].co_comings, 0u);
  EXPECT_DOUBLE_EQ(stats[0].co_coming_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats[2].co_coming_fraction(), 0.0);
}

TEST(PerUserArrivalStats, DifferentApNoCoComing) {
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 1, .connect_s = 10, .disconnect_s = 3600, .ap = 1},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].co_comings, 0u);
  EXPECT_EQ(stats[1].co_comings, 0u);
}

TEST(PerUserArrivalStats, OwnSessionsDoNotCount) {
  const auto t = make_trace(1, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600, .ap = 0},
      SessionSpec{.user = 0, .connect_s = 30, .disconnect_s = 3700, .ap = 0},
  });
  const auto stats = per_user_arrival_stats(t, util::SimTime(300));
  EXPECT_EQ(stats[0].arrivals, 2u);
  EXPECT_EQ(stats[0].co_comings, 0u);
}

}  // namespace
}  // namespace s3::analysis
