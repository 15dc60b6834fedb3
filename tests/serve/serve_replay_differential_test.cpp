// Serve ≡ replay: the live plane and S3-online replay share one learner.
//
// A sequential ServePipeline (policy "s3" over its campus-wide live
// model) and ReplayDriver::run_sequential over one shared
// OnlineS3Selector at dispatch window 0 see the same arrive/depart
// stream in the same order. Every session must land on the same AP,
// and both must end with the same number of live pairs. The campuses
// train on all but their last 2 days and replay those 2 days.

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/core/online_s3.h"
#include "s3/runtime/replay_driver.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/trace/generator.h"

namespace s3 {
namespace {

struct Campus {
  std::uint64_t seed;
  std::size_t users;
  int days;
  std::size_t buildings;
  std::size_t aps_per_building;
};

void expect_serve_places_like_replay(const Campus& c) {
  trace::GeneratorConfig gc;
  gc.seed = c.seed;
  gc.num_users = c.users;
  gc.num_days = c.days;
  gc.layout.num_buildings = c.buildings;
  gc.layout.aps_per_building = c.aps_per_building;
  const trace::GeneratedTrace world = trace::generate_campus_trace(gc);
  core::EvaluationConfig eval;
  eval.train_days = c.days - 2;
  eval.test_days = 2;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  const trace::Trace test =
      world.workload.slice(util::SimTime::from_days(c.days - 2),
                           util::SimTime::from_days(c.days));
  ASSERT_GT(test.size(), 0U);

  core::OnlineS3Selector online(&world.network, &model);
  runtime::ReplayDriverConfig rc;
  rc.replay.dispatch_window_s = 0;
  const sim::ReplayResult replayed =
      runtime::ReplayDriver(world.network, rc).run_sequential(test, online);

  // The replay's event order: by time, departures before arrivals,
  // then by session index.
  struct Event {
    util::SimTime when;
    bool arrive;
    std::size_t session;
  };
  std::vector<Event> events;
  events.reserve(2 * test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    events.push_back({test.session(i).connect, true, i});
    events.push_back({test.session(i).disconnect, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.when, a.arrive, a.session) <
           std::tie(b.when, b.arrive, b.session);
  });

  serve::ServeConfig cfg;
  cfg.policy = "s3";
  serve::ServePipeline pipeline(&world.network, &model, cfg);
  std::vector<ApId> served(test.size(), kInvalidAp);
  for (const Event& e : events) {
    const trace::SessionRecord& s = test.session(e.session);
    if (e.arrive) {
      const serve::PlaceResult r = pipeline.place(
          {e.session, s.user, s.building, s.pos, s.connect, s.demand_mbps});
      ASSERT_TRUE(r.placed) << "session " << e.session;
      served[e.session] = r.ap;
    } else {
      ASSERT_TRUE(pipeline.depart(e.session, s.disconnect))
          << "session " << e.session;
    }
  }

  std::size_t differing = 0;
  std::size_t first_diff = test.size();
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (served[i] != replayed.assigned.session(i).ap) {
      if (differing++ == 0) first_diff = i;
    }
  }
  EXPECT_EQ(differing, 0U) << "of " << test.size()
                           << " sessions; first at session " << first_diff;
  EXPECT_GT(online.model().updated_pairs(), 0U)
      << "no live learning: the comparison is vacuous";
  EXPECT_EQ(pipeline.model().updated_pairs(), online.model().updated_pairs());
}

TEST(ServeReplayDifferential, SixHundredUsersThreeBuildings) {
  expect_serve_places_like_replay({5, 600, 8, 3, 8});
}

TEST(ServeReplayDifferential, TwoHundredUsersTwoBuildings) {
  expect_serve_places_like_replay({7, 200, 5, 2, 4});
}

}  // namespace
}  // namespace s3
