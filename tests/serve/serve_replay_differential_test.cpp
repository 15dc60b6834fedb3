// Serve ≡ sharded replay: the live plane learns per domain, as
// S3-online replay does.
//
// A ServePipeline (policy "s3", one learner per domain) and
// ReplayDriver::run over core::OnlineS3Factory at dispatch window 0
// see the same arrive/depart stream. Serve runs sequentially and with
// 2 and 4 domain-affine workers; replay runs at 1, 2 and 4 threads.
// Every session must land on the same AP everywhere, and serve's live
// pair count, summed over domains, must equal the sum over replay's
// per-domain models. Each campus trains on all but its last 2 days and
// replays those 2 days, once without faults and once under two model
// outages and a clique-budget window.

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
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

/// Forwards to an OnlineS3Selector and, when the replay drops it, adds
/// its domain's live pair count to `*live_pairs`.
class LivePairsSelector final : public sim::ApSelector {
 public:
  LivePairsSelector(std::unique_ptr<sim::ApSelector> inner,
                    std::atomic<std::size_t>* live_pairs)
      : inner_(std::move(inner)), live_pairs_(live_pairs) {}
  ~LivePairsSelector() override {
    live_pairs_->fetch_add(
        static_cast<const core::OnlineS3Selector&>(*inner_)
            .model()
            .updated_pairs());
  }

  std::string_view name() const override { return inner_->name(); }
  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override {
    return inner_->select_one(arrival, loads);
  }
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override {
    return inner_->place_batch(request, loads);
  }
  void on_associate(const sim::Arrival& arrival, ApId ap) override {
    inner_->on_associate(arrival, ap);
  }
  void on_disconnect(std::size_t session_index, UserId user, ApId ap,
                     util::SimTime when) override {
    inner_->on_disconnect(session_index, user, ap, when);
  }
  bool uses_social_model() const override {
    return inner_->uses_social_model();
  }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }

 private:
  std::unique_ptr<sim::ApSelector> inner_;
  std::atomic<std::size_t>* live_pairs_;
};

class LivePairsFactory final : public sim::SelectorFactory {
 public:
  LivePairsFactory(const core::OnlineS3Factory* inner,
                   std::atomic<std::size_t>* live_pairs)
      : inner_(inner), live_pairs_(live_pairs) {}
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<sim::ApSelector> create(ControllerId domain) const override {
    return std::make_unique<LivePairsSelector>(inner_->create(domain),
                                               live_pairs_);
  }

 private:
  const core::OnlineS3Factory* inner_;
  std::atomic<std::size_t>* live_pairs_;
};

/// Two model outages and a clique-budget squeeze inside the 2 replayed
/// days, which start at `t0`.
fault::FaultPlan outage_plan(util::SimTime t0) {
  const auto at = [t0](int hours) {
    return t0 + util::SimTime::from_hours(hours);
  };
  fault::FaultPlan plan;
  plan.model_outages.push_back({at(9), at(11)});
  plan.model_outages.push_back({at(24 + 13), at(24 + 14)});
  plan.clique_squeezes.push_back({at(12), at(24 + 12), 50});
  return plan;
}

void expect_serve_places_like_replay(const Campus& c, bool with_faults) {
  trace::GeneratorConfig gc;
  gc.seed = c.seed;
  gc.num_users = c.users;
  gc.num_days = c.days;
  gc.layout.num_buildings = c.buildings;
  gc.layout.aps_per_building = c.aps_per_building;
  const trace::GeneratedTrace world = trace::generate_campus_trace(gc);
  const wlan::Network& net = world.network;
  core::EvaluationConfig eval;
  eval.train_days = c.days - 2;
  eval.test_days = 2;
  const social::SocialIndexModel model =
      core::train_from_workload(net, world.workload, eval);
  const util::SimTime t0 = util::SimTime::from_days(c.days - 2);
  const trace::Trace test =
      world.workload.slice(t0, util::SimTime::from_days(c.days));
  ASSERT_GT(test.size(), 0U);
  std::optional<fault::FaultInjector> injector;
  if (with_faults) injector.emplace(outage_plan(t0), 1);

  const core::OnlineS3Factory online(&net, &model);
  std::optional<sim::ReplayResult> replayed;
  std::size_t replay_live_pairs = 0;
  for (const unsigned threads : {1U, 2U, 4U}) {
    SCOPED_TRACE("replay threads " + std::to_string(threads));
    std::atomic<std::size_t> live_pairs{0};
    const LivePairsFactory counted(&online, &live_pairs);
    runtime::ReplayDriverConfig rc;
    rc.replay.dispatch_window_s = 0;
    rc.threads = threads;
    if (injector) rc.injector = &*injector;
    sim::ReplayResult r = runtime::ReplayDriver(net, rc).run(test, counted);
    if (!replayed) {
      replayed = std::move(r);
      replay_live_pairs = live_pairs.load();
      continue;
    }
    for (std::size_t i = 0; i < test.size(); ++i) {
      ASSERT_EQ(r.assigned.session(i).ap, replayed->assigned.session(i).ap)
          << "session " << i;
    }
    EXPECT_EQ(live_pairs.load(), replay_live_pairs);
  }
  EXPECT_GT(replay_live_pairs, 0U)
      << "no live learning: the comparison is vacuous";

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

  for (const unsigned workers : {1U, 2U, 4U}) {
    SCOPED_TRACE("serve workers " + std::to_string(workers));
    serve::ServeConfig cfg;
    cfg.policy = "s3";
    if (injector) cfg.injector = &*injector;
    serve::ServePipeline pipeline(&net, &model, cfg);
    std::vector<ApId> served(test.size(), kInvalidAp);
    std::vector<std::size_t> failures(workers, 0);
    // Worker w takes the events of domains ≡ w (mod workers), in the
    // global order: each domain sees its own stream in sequence.
    const auto worker = [&](unsigned w) {
      for (const Event& e : events) {
        const trace::SessionRecord& s = test.session(e.session);
        if (net.controller_of_building(s.building) % workers != w) continue;
        if (e.arrive) {
          const serve::PlaceResult r = pipeline.place(
              {e.session, s.user, s.building, s.pos, s.connect,
               s.demand_mbps});
          if (!r.placed) ++failures[w];
          served[e.session] = r.ap;
        } else if (!pipeline.depart(e.session, s.disconnect)) {
          ++failures[w];
        }
      }
    };
    if (workers == 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w);
      for (std::thread& t : pool) t.join();
    }
    for (unsigned w = 0; w < workers; ++w) {
      EXPECT_EQ(failures[w], 0U) << "worker " << w;
    }

    std::size_t differing = 0;
    std::size_t first_diff = test.size();
    for (std::size_t i = 0; i < test.size(); ++i) {
      if (served[i] != replayed->assigned.session(i).ap) {
        if (differing++ == 0) first_diff = i;
      }
    }
    EXPECT_EQ(differing, 0U) << "of " << test.size()
                             << " sessions; first at session " << first_diff;
    EXPECT_EQ(pipeline.model().updated_pairs(), replay_live_pairs);
    if (with_faults) {
      EXPECT_GT(pipeline.stats().fallback_placements, 0U)
          << "no model outage bit: the plan case is vacuous";
    }
  }
}

TEST(ServeReplayDifferential, SixHundredUsersThreeBuildings) {
  expect_serve_places_like_replay({5, 600, 8, 3, 8}, false);
}

TEST(ServeReplayDifferential, TwoHundredUsersTwoBuildings) {
  expect_serve_places_like_replay({7, 200, 5, 2, 4}, false);
}

TEST(ServeReplayDifferential, SixHundredUsersThreeBuildingsUnderFaultPlan) {
  expect_serve_places_like_replay({5, 600, 8, 3, 8}, true);
}

TEST(ServeReplayDifferential, TwoHundredUsersTwoBuildingsUnderFaultPlan) {
  expect_serve_places_like_replay({7, 200, 5, 2, 4}, true);
}

}  // namespace
}  // namespace s3
