#include "s3/core/online_s3.h"

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::mini_network;

/// The S3-online learner as OnlineS3Selector wires it: a presence table
/// detecting encounters and co-leavings, feeding a live model over the
/// single-owner pair store. The OnlineSocialModel.* cases drive it
/// directly, without placements.
struct OnlineLearner {
  explicit OnlineLearner(const social::SocialIndexModel* base,
                         OnlineS3Config config = {})
      : model(base),
        presence(config.co_leave_window, config.min_encounter_overlap) {}

  void on_associate(std::size_t session, UserId user, ApId ap,
                    util::SimTime when) {
    presence.arrive(ap, session, user, when);
  }
  void on_disconnect(std::size_t session, UserId /*user*/, ApId ap,
                     util::SimTime when) {
    model.learn(presence.depart(ap, session, when));
  }

  social::LiveSocialModel model;
  social::PresenceTable presence;
};

social::SocialIndexModel empty_model(std::size_t n, double alpha = 0.3) {
  social::SocialModelConfig cfg;
  cfg.alpha = alpha;
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(n, 0);
  typing.centroids.assign(apps::kNumCategories, 0.0);
  return social::SocialIndexModel::from_parts(cfg, social::PairStore{},
                                              std::move(typing),
                                              social::TypeCoLeaveMatrix(1));
}

TEST(OnlineSocialModel, StartsAtBaseTheta) {
  const auto base = empty_model(4);
  const social::LiveSocialModel online(&base);
  EXPECT_DOUBLE_EQ(online.theta(0, 1), base.theta(0, 1));
  EXPECT_DOUBLE_EQ(online.theta(2, 2), 0.0);
  EXPECT_EQ(online.updated_pairs(), 0u);
  EXPECT_EQ(online.num_users(), 4u);
}

TEST(OnlineSocialModel, LearnsCoLeavingPair) {
  const auto base = empty_model(4);
  OnlineLearner online(&base);
  // Users 0 and 1 share AP 3 for an hour and leave a minute apart.
  online.on_associate(100, 0, 3, util::SimTime(0));
  online.on_associate(101, 1, 3, util::SimTime(60));
  online.on_disconnect(100, 0, 3, util::SimTime(3600));
  online.on_disconnect(101, 1, 3, util::SimTime(3660));
  EXPECT_GT(online.model.updated_pairs(), 0u);
  // One encounter, one co-leave -> P(L|E) = 1.
  EXPECT_DOUBLE_EQ(online.model.theta(0, 1), 1.0);
  // Untouched pairs still answer through the base.
  EXPECT_DOUBLE_EQ(online.model.theta(2, 3), 0.0);
}

TEST(OnlineSocialModel, EncounterWithoutCoLeave) {
  const auto base = empty_model(3);
  OnlineLearner online(&base);
  online.on_associate(1, 0, 0, util::SimTime(0));
  online.on_associate(2, 1, 0, util::SimTime(0));
  online.on_disconnect(1, 0, 0, util::SimTime(3600));
  // User 1 leaves an hour later: no co-leave.
  online.on_disconnect(2, 1, 0, util::SimTime(7200));
  EXPECT_DOUBLE_EQ(online.model.theta(0, 1), 0.0);  // 1 encounter, 0 co-leaves
  EXPECT_EQ(online.model.updated_pairs(), 1u);
}

TEST(OnlineSocialModel, ShortOverlapIsNoEncounter) {
  const auto base = empty_model(3);
  OnlineLearner online(&base);
  online.on_associate(1, 0, 0, util::SimTime(0));
  online.on_associate(2, 1, 0, util::SimTime(0));
  // Only five minutes together (< 10-minute encounter threshold).
  online.on_disconnect(1, 0, 0, util::SimTime(300));
  online.on_disconnect(2, 1, 0, util::SimTime(320));
  EXPECT_EQ(online.model.updated_pairs(), 0u);
}

TEST(OnlineSocialModel, DifferentApsDoNotInteract) {
  const auto base = empty_model(3);
  OnlineLearner online(&base);
  online.on_associate(1, 0, 0, util::SimTime(0));
  online.on_associate(2, 1, 1, util::SimTime(0));
  online.on_disconnect(1, 0, 0, util::SimTime(3600));
  online.on_disconnect(2, 1, 1, util::SimTime(3610));
  EXPECT_EQ(online.model.updated_pairs(), 0u);
}

TEST(OnlineSocialModel, RepeatedEpisodesConverge) {
  const auto base = empty_model(2);
  OnlineLearner online(&base);
  // Three meetings; the pair co-leaves in two of them.
  for (int episode = 0; episode < 3; ++episode) {
    const std::int64_t t0 = episode * 86400;
    online.on_associate(episode * 2 + 0, 0, 0, util::SimTime(t0));
    online.on_associate(episode * 2 + 1, 1, 0, util::SimTime(t0));
    online.on_disconnect(episode * 2 + 0, 0, 0, util::SimTime(t0 + 3600));
    const std::int64_t gap = episode == 2 ? 7200 : 60;
    online.on_disconnect(episode * 2 + 1, 1, 0, util::SimTime(t0 + 3600 + gap));
  }
  EXPECT_NEAR(online.model.theta(0, 1), 2.0 / 3.0, 1e-12);
}

TEST(OnlineSocialModel, SeedsFromTrainedCounts) {
  // Base has 3 encounters / 3 co-leaves for the pair; one more
  // encounter without a co-leave should give 3/4.
  social::SocialModelConfig cfg;
  cfg.alpha = 0.0;
  analysis::PairStatsMap stats;
  stats[UserPair(0, 1)] = {3, 3, 0};
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(2, 0);
  const auto base = social::SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), social::TypeCoLeaveMatrix(1));

  OnlineLearner online(&base);
  online.on_associate(1, 0, 0, util::SimTime(0));
  online.on_associate(2, 1, 0, util::SimTime(0));
  online.on_disconnect(1, 0, 0, util::SimTime(3600));
  online.on_disconnect(2, 1, 0, util::SimTime(20000));  // no co-leave
  EXPECT_NEAR(online.model.theta(0, 1), 3.0 / 4.0, 1e-12);
}

TEST(OnlineSocialModel, CheckpointPersistsLiveLearning) {
  const auto base = empty_model(3, /*alpha=*/0.0);
  OnlineLearner online(&base);
  online.on_associate(1, 0, 0, util::SimTime(0));
  online.on_associate(2, 1, 0, util::SimTime(0));
  online.on_disconnect(1, 0, 0, util::SimTime(3600));
  online.on_disconnect(2, 1, 0, util::SimTime(3650));

  const social::SocialIndexModel frozen = online.model.checkpoint();
  EXPECT_DOUBLE_EQ(frozen.theta(0, 1), online.model.theta(0, 1));
  EXPECT_DOUBLE_EQ(frozen.theta(0, 1), 1.0);
  EXPECT_EQ(frozen.pair_stats().size(), 1u);
  // Typing carried over.
  EXPECT_EQ(frozen.typing().num_types, base.typing().num_types);
}

// absorb() adds what another model learned on top of the shared base:
// a pair with trained history learned in two models, a pair without
// history learned in two models, and the first absorb into an empty
// model, which copies the other's counts. The merge equals one model
// fed every event.
TEST(LiveSocialModel, AbsorbAddsEachModelsIncrements) {
  social::SocialModelConfig cfg;
  cfg.alpha = 0.0;
  analysis::PairStatsMap stats;
  stats[UserPair(0, 1)] = {3, 3, 0};
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(4, 0);
  const auto base = social::SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), social::TypeCoLeaveMatrix(1));
  const auto events = [](UserId user, std::vector<UserId> met,
                         std::vector<UserId> left) {
    social::DepartureEvents ev;
    ev.user = user;
    ev.encountered = std::move(met);
    ev.co_left = std::move(left);
    return ev;
  };

  social::LiveSocialModel a(&base);
  social::LiveSocialModel b(&base);
  social::LiveSocialModel all(&base);
  for (const auto& ev : {events(0, {1}, {1}), events(2, {3}, {3})}) {
    a.learn(ev);
    all.learn(ev);
  }
  for (const auto& ev : {events(1, {0}, {}), events(3, {2}, {})}) {
    b.learn(ev);
    all.learn(ev);
  }

  social::LiveSocialModel campus(&base);
  campus.absorb(a);
  EXPECT_EQ(campus.state_digest(), a.state_digest());
  EXPECT_EQ(campus.read_epoch(), a.read_epoch());
  campus.absorb(b);
  EXPECT_EQ(campus.state_digest(), all.state_digest());
  EXPECT_EQ(campus.read_epoch(), all.read_epoch());
  EXPECT_EQ(campus.updated_pairs(), 2u);
  EXPECT_DOUBLE_EQ(campus.theta(0, 1), 4.0 / 5.0);  // 3/3, then +1/1, +0/1
  EXPECT_DOUBLE_EQ(campus.theta(2, 3), 1.0 / 2.0);  // +1/1, +0/1

  const auto other = empty_model(4);
  EXPECT_THROW(campus.absorb(social::LiveSocialModel(&other)),
               std::invalid_argument);
}

TEST(OnlineS3Selector, BehavesLikeS3WithoutEvents) {
  const auto net = mini_network(3);
  const auto base = empty_model(4);
  OnlineS3Selector online(&net, &base);
  S3Selector frozen(&net, &base);
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 3, 2.0);
  sim::Arrival a;
  a.session_index = 0;
  a.user = 0;
  a.controller = 0;
  a.demand_mbps = 1.0;
  a.candidates = {0, 1, 2};
  EXPECT_EQ(online.select_one(a, loads), frozen.select_one(a, loads));
  EXPECT_EQ(online.name(), "S3-online");
}

TEST(OnlineSocialModel, AgreesWithOfflineExtractorExactly) {
  // The incremental detector and analysis::extract_pair_stats implement
  // the same §III-D definitions; on the same assigned trace their
  // encounter/co-leave counts must match pair for pair.
  trace::GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.num_users = 120;
  cfg.num_days = 4;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);

  core::LlfSelector llf;
  const sim::ReplayResult run = sim::replay(g.network, g.workload, llf);

  // Offline.
  analysis::EventExtractionConfig windows;
  const analysis::PairStatsMap offline =
      analysis::extract_pair_stats(run.assigned, windows);

  // Online: feed the assigned trace's association timeline.
  const auto base = empty_model(120);
  OnlineS3Config ocfg;
  ocfg.co_leave_window = windows.co_leave_window;
  ocfg.min_encounter_overlap = windows.min_encounter_overlap;
  OnlineLearner online(&base, ocfg);
  struct Ev {
    util::SimTime when;
    bool arrive;
    std::size_t idx;
  };
  std::vector<Ev> events;
  const auto sessions = run.assigned.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    events.push_back({sessions[i].connect, true, i});
    events.push_back({sessions[i].disconnect, false, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.when < b.when; });
  for (const Ev& e : events) {
    const trace::SessionRecord& s = sessions[e.idx];
    if (e.arrive) {
      online.on_associate(e.idx, s.user, s.ap, e.when);
    } else {
      online.on_disconnect(e.idx, s.user, s.ap, e.when);
    }
  }

  // Compare the encounter/co-leave ledgers (co-comings are offline-only
  // bookkeeping the online detector does not need).
  const social::SocialIndexModel check = online.model.checkpoint();
  std::size_t offline_encounter_pairs = 0;
  for (const auto& [pair, off] : offline) {
    if (off.encounters == 0) continue;
    ++offline_encounter_pairs;
    const social::PairStore::Stats* live = check.pair_stats().find(pair);
    ASSERT_NE(live, nullptr)
        << "pair " << pair.a << "," << pair.b << " missing online";
    EXPECT_EQ(live->encounters, off.encounters)
        << "pair " << pair.a << "," << pair.b;
    EXPECT_EQ(live->co_leaves, off.co_leaves)
        << "pair " << pair.a << "," << pair.b;
  }
  std::size_t online_encounter_pairs = 0;
  for (const auto& [pair, live] : check.pair_stats()) {
    if (live.encounters > 0) ++online_encounter_pairs;
  }
  EXPECT_EQ(online_encounter_pairs, offline_encounter_pairs);
}

TEST(OnlineS3Selector, EndToEndReplayLearns) {
  trace::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.num_users = 250;
  cfg.num_days = 10;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);

  // Train on a *single* day only, then let online learning absorb the
  // rest during replay of days 1..10.
  EvaluationConfig eval;
  eval.train_days = 1;
  eval.test_days = 9;
  const social::SocialIndexModel base =
      train_from_workload(world.network, world.workload, eval);

  OnlineS3Selector online(&world.network, &base);
  const trace::Trace rest = world.workload.slice(
      util::SimTime::from_days(1), util::SimTime::from_days(10));
  const sim::ReplayResult r =
      sim::replay(world.network, rest, online, eval.replay);
  EXPECT_TRUE(r.assigned.fully_assigned());
  // The live model accumulated relationships the 1-day base missed.
  EXPECT_GT(online.model().updated_pairs(), base.pair_stats().size());
}

}  // namespace
}  // namespace s3::core
