// s3::serve — live pipeline and its per-domain learners.
//
// The anchor test proves the campus view adds nothing of its own: each
// domain learns from its own events, and model().merged() equals one
// LiveSocialModel fed every domain's events bit for bit.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "s3/core/evaluation.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/serve/line_protocol.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/trace/generator.h"
#include "s3/util/metrics.h"

namespace s3::serve {
namespace {

/// Small trained world shared by every test in this file.
struct World {
  trace::GeneratedTrace gen;
  social::SocialIndexModel model;

  World()
      : gen(trace::generate_campus_trace(config())),
        model(core::train_from_workload(gen.network, gen.workload, eval())) {}

  static trace::GeneratorConfig config() {
    trace::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 200;
    cfg.num_days = 5;
    cfg.layout.num_buildings = 2;
    cfg.layout.aps_per_building = 4;
    return cfg;
  }
  static core::EvaluationConfig eval() {
    core::EvaluationConfig e;
    e.train_days = 4;
    e.test_days = 1;
    return e;
  }
};

const World& world() {
  static const World w;
  return w;
}

PlaceRequest request(std::uint64_t id, UserId user, BuildingId b,
                     std::int64_t t_s, double demand = 1.0) {
  PlaceRequest req;
  req.id = id;
  req.user = user;
  req.building = b;
  const wlan::BuildingConfig& bc = world().gen.network.building(b);
  req.pos = {bc.origin.x + 5.0 + static_cast<double>(user % 7),
             bc.origin.y + 5.0 + static_cast<double>(user % 5)};
  req.when = util::SimTime::from_seconds(t_s);
  req.demand_mbps = demand;
  return req;
}

TEST(ServePipeline, PlacesAndDeparts) {
  ServeConfig cfg;
  ServePipeline p(&world().gen.network, &world().model, cfg);
  const PlaceResult r = p.place(request(1, 0, 0, 0));
  ASSERT_TRUE(r.placed);
  EXPECT_LT(r.ap, world().gen.network.num_aps());
  EXPECT_EQ(p.active_sessions(), 1U);
  EXPECT_TRUE(p.depart(1, util::SimTime::from_seconds(100)));
  EXPECT_EQ(p.active_sessions(), 0U);
  EXPECT_EQ(p.stats().placements, 1U);
  EXPECT_EQ(p.stats().departures, 1U);
}

TEST(ServePipeline, RejectsDuplicateIdAndUnknownDeparture) {
  ServePipeline p(&world().gen.network, &world().model, {});
  ASSERT_TRUE(p.place(request(7, 0, 0, 0)).placed);
  EXPECT_FALSE(p.place(request(7, 1, 0, 10)).placed);
  EXPECT_EQ(p.stats().rejected_duplicate_id, 1U);
  EXPECT_FALSE(p.depart(999, util::SimTime::from_seconds(1)));
  EXPECT_EQ(p.stats().unknown_departures, 1U);
  // The duplicate rejection must not have clobbered the live session.
  EXPECT_TRUE(p.depart(7, util::SimTime::from_seconds(20)));
}

TEST(ServePipeline, RejectsUnknownUserUnderSocialPolicy) {
  ServePipeline p(&world().gen.network, &world().model, {});
  const UserId unknown =
      static_cast<UserId>(world().model.num_users() + 5);
  EXPECT_FALSE(p.place(request(1, unknown, 0, 0)).placed);
  EXPECT_EQ(p.stats().rejected_unknown_user, 1U);
  // Baselines have no model to miss: the same user places fine.
  ServeConfig llf;
  llf.policy = "llf";
  ServePipeline q(&world().gen.network, &world().model, llf);
  EXPECT_TRUE(q.place(request(1, unknown, 0, 0)).placed);
}

// The campus view: each domain learns from its own presence table, so
// model().merged() must equal one LiveSocialModel fed every domain's
// events (one PresenceTable per domain) bit for bit — θ over all pairs,
// theta_row and the live-pair visitor. The pipeline runs the "rssi"
// policy so AP choice is deterministic and model-independent.
// model().updated_pairs() sums the domains; it must exceed the merge's
// count, i.e. some pair was learned in both domains, or the merge
// would never add two domains' counts.
TEST(ServePipeline, CampusModelMergesDomainLearners) {
  const World& w = world();
  const wlan::Network& net = w.gen.network;
  ServeConfig cfg;
  cfg.policy = "rssi";
  ServePipeline pipeline(&net, &w.model, cfg);
  ASSERT_EQ(pipeline.num_domains(), 2U);
  social::LiveSocialModel reference(&w.model);
  std::vector<social::LiveSocialModel> domain_models;
  std::vector<social::PresenceTable> presence;
  for (std::size_t d = 0; d < pipeline.num_domains(); ++d) {
    domain_models.emplace_back(&w.model);
    presence.emplace_back(cfg.co_leave_window, cfg.min_encounter_overlap);
  }

  struct Live {
    UserId user;
    ApId ap;
  };
  std::unordered_map<std::uint64_t, Live> active;
  std::uint64_t rng = 99;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  // Random arrive/depart schedule over both buildings: long stays on
  // few APs so plenty of encounter-grade overlaps and co-leavings fire.
  std::int64_t now = 0;
  std::uint64_t next_id = 1;
  for (int step = 0; step < 4000; ++step) {
    now += 30 + static_cast<std::int64_t>(next() % 90);
    const util::SimTime t = util::SimTime::from_seconds(now);
    if (active.size() > 25 || (!active.empty() && next() % 3 == 0)) {
      const auto victim =
          std::next(active.begin(),
                    static_cast<std::ptrdiff_t>(next() % active.size()));
      const ControllerId d = net.controller_of_ap(victim->second.ap);
      const social::DepartureEvents events =
          presence[d].depart(victim->second.ap, victim->first, t);
      reference.learn(events);
      domain_models[d].learn(events);
      ASSERT_TRUE(pipeline.depart(victim->first, t));
      active.erase(victim);
    } else {
      const std::uint64_t id = next_id++;
      const UserId user = static_cast<UserId>(next() % w.model.num_users());
      const BuildingId b = static_cast<BuildingId>(next() % 2);
      const PlaceResult r = pipeline.place(request(id, user, b, now));
      ASSERT_TRUE(r.placed);
      presence[net.controller_of_ap(r.ap)].arrive(r.ap, id, user, t);
      active.emplace(id, Live{user, r.ap});
    }
  }

  const social::LiveSocialModel merged = pipeline.model().merged();
  EXPECT_GT(merged.updated_pairs(), 0U)
      << "schedule produced no social events — test is vacuous";
  EXPECT_EQ(merged.updated_pairs(), reference.updated_pairs());
  EXPECT_EQ(pipeline.model().updated_pairs(),
            domain_models[0].updated_pairs() +
                domain_models[1].updated_pairs());
  EXPECT_GT(pipeline.model().updated_pairs(), merged.updated_pairs())
      << "no pair was learned in both domains — the merge adds nothing";

  const std::size_t n = w.model.num_users();
  for (UserId u = 0; u < n; ++u) {
    for (UserId v = static_cast<UserId>(u + 1); v < n; ++v) {
      ASSERT_EQ(merged.theta(u, v), reference.theta(u, v))
          << "theta mismatch at (" << u << ", " << v << ")";
    }
  }
  std::vector<UserId> vs(n);
  for (UserId v = 0; v < n; ++v) vs[v] = v;
  std::vector<double> merged_row(n);
  std::vector<double> reference_row(n);
  for (UserId u = 0; u < n; u += 17) {
    merged.theta_row(u, vs, merged_row);
    reference.theta_row(u, vs, reference_row);
    EXPECT_EQ(merged_row, reference_row) << "theta_row mismatch at u=" << u;
  }
  EXPECT_GT(merged.read_epoch(), 0U);
  EXPECT_EQ(merged.read_epoch(), reference.read_epoch());

  // Both live-pair visitors yield the same (pair, θ) sequence, one entry
  // per updated pair, each θ equal to the scalar read.
  std::vector<std::pair<UserPair, double>> merged_live;
  merged.for_each_live_theta([&](UserPair pair, double theta) {
    merged_live.emplace_back(pair, theta);
  });
  std::vector<std::pair<UserPair, double>> reference_live;
  reference.for_each_live_theta([&](UserPair pair, double theta) {
    reference_live.emplace_back(pair, theta);
  });
  EXPECT_EQ(merged_live.size(), merged.updated_pairs());
  EXPECT_EQ(merged_live, reference_live);
  for (const auto& [pair, theta] : merged_live) {
    EXPECT_EQ(theta, merged.theta(pair.a, pair.b))
        << "live θ mismatch for (" << pair.a << ", " << pair.b << ")";
  }
}

// The pipeline-level maintainer follows the campus model: the first
// snapshot seeds, later ones re-apply the live pairs without reseeding,
// and the cover always partitions the population.
TEST(ServePipeline, SocialSnapshotTracksLiveEventsIncrementally) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";  // deterministic, model-independent placements
  ServePipeline p(&w.gen.network, &w.model, cfg);

  const SocialSnapshot first = p.social_snapshot();
  EXPECT_EQ(first.users, w.model.num_users());
  EXPECT_FALSE(first.incremental);  // first query must reseed
  EXPECT_EQ(first.reseeds, 1U);
  EXPECT_GE(first.cover_version, 1U);
  // Every user sits in exactly one cover entry.
  EXPECT_LE(first.singletons + 2 * first.cliques, first.users);
  if (first.cliques > 0) {
    EXPECT_GE(first.largest, 2U);
  }

  // Long co-located stays then a joint departure: encounters and
  // co-leavings land in building 0's domain's live pairs.
  std::uint64_t id = 1;
  for (UserId u = 0; u < 24; ++u) {
    ASSERT_TRUE(p.place(request(id++, u, 0, 0)).placed);
  }
  for (std::uint64_t d = 1; d < id; ++d) {
    ASSERT_TRUE(p.depart(d, util::SimTime::from_seconds(3600)));
  }
  EXPECT_GT(p.model().updated_pairs(), 0U);

  const SocialSnapshot second = p.social_snapshot();
  EXPECT_TRUE(second.incremental);  // live pairs applied, no reseed
  EXPECT_EQ(second.reseeds, 1U);
  EXPECT_GT(second.deltas_applied, 0U);
  EXPECT_GE(second.cohesion, 0.0);
  EXPECT_GE(second.cover_version, first.cover_version);

  // Re-querying with no new events reuses every component.
  const SocialSnapshot third = p.social_snapshot();
  EXPECT_TRUE(third.incremental);
  EXPECT_EQ(third.cover_version, second.cover_version);
  EXPECT_EQ(third.components_solved, second.components_solved);
}

// Cohesion counts exactly the θ mass of clique pairs sharing an AP:
// co-locating users whose pairs the cover keeps together must move it.
TEST(ServePipeline, SocialSnapshotCohesionReflectsCoLocatedCliques) {
  const World& w = world();
  ServeConfig cfg;
  cfg.policy = "rssi";
  ServePipeline p(&w.gen.network, &w.model, cfg);
  // Everyone in the population parks at one spot in building 0: every
  // multi-member clique whose members share the chosen AP contributes
  // its full internal θ mass.
  std::uint64_t id = 1;
  for (UserId u = 0; u < w.model.num_users(); ++u) {
    PlaceRequest req = request(id++, u, 0, 0);
    req.pos = {w.gen.network.building(0).origin.x + 5.0,
               w.gen.network.building(0).origin.y + 5.0};
    ASSERT_TRUE(p.place(req).placed);
  }
  const SocialSnapshot snap = p.social_snapshot();
  if (snap.cliques > 0) {
    EXPECT_GT(snap.cohesion, 0.0)
        << "multi-member cliques exist but no co-located pair scored";
  }
}

/// What social_snapshot() must report, computed without the pipeline's
/// maintainer: the cover of a fresh CliqueMaintainer seeded by the full
/// θ sweep over the merged campus model, and cohesion summed from the
/// caller's own user → AP map, clique by clique, in the pipeline's
/// order.
struct CoverReference {
  std::size_t cliques = 0;
  std::size_t singletons = 0;
  std::size_t largest = 0;
  bool exact = true;
  double cohesion = 0.0;
};

CoverReference reference_snapshot(const ServePipeline& p,
                                  const ServeConfig& cfg,
                                  const std::vector<ApId>& ap_of) {
  social::CliqueMaintainerConfig mc;
  mc.theta_threshold = cfg.s3.theta_threshold;
  mc.clique = cfg.s3.clique;
  social::CliqueMaintainer ref(0, mc);
  ref.reset_from(p.model().merged());
  const social::CliqueCoverResult& cover = ref.cover();
  CoverReference out;
  out.exact = cover.exact;
  for (const std::vector<std::size_t>& members : cover.cliques) {
    out.largest = std::max(out.largest, members.size());
    if (members.size() < 2) {
      ++out.singletons;
      continue;
    }
    ++out.cliques;
    double sum = 0.0;
    for (std::size_t a = 0; a < members.size(); ++a) {
      const ApId ap_a = ap_of[members[a]];
      if (ap_a == kInvalidAp) continue;
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        if (ap_of[members[b]] != ap_a) continue;
        sum += ref.edge_weight(static_cast<UserId>(members[a]),
                               static_cast<UserId>(members[b]));
      }
    }
    out.cohesion += sum;
  }
  return out;
}

void expect_snapshot_matches(const SocialSnapshot& got,
                             const CoverReference& want) {
  EXPECT_EQ(got.cliques, want.cliques);
  EXPECT_EQ(got.singletons, want.singletons);
  EXPECT_EQ(got.largest, want.largest);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cohesion),
            std::bit_cast<std::uint64_t>(want.cohesion))
      << "cohesion " << got.cohesion << " vs reference " << want.cohesion;
}

/// One client's event stream: every user in `users` lives in building
/// `b`, and each step picks one of them at random, departing its
/// session if it has one and placing a new one otherwise, so no user
/// ever holds two sessions. Session ids are user + 1. `ap_of[user]`
/// tracks the AP of the user's active session (kInvalidAp when none);
/// streams over disjoint users write disjoint entries.
class SessionStream {
 public:
  SessionStream(ServePipeline& p, std::vector<UserId> users, BuildingId b,
                std::uint64_t seed, std::vector<ApId>& ap_of)
      : p_(&p), users_(std::move(users)), b_(b), rng_(seed), ap_of_(&ap_of) {}

  void step() {
    now_ += 20 + static_cast<std::int64_t>(next() % 80);
    const UserId u = users_[next() % users_.size()];
    if ((*ap_of_)[u] != kInvalidAp) {
      ASSERT_TRUE(p_->depart(u + 1, util::SimTime::from_seconds(now_)));
      (*ap_of_)[u] = kInvalidAp;
    } else {
      const PlaceResult r = p_->place(request(u + 1, u, b_, now_));
      ASSERT_TRUE(r.placed);
      (*ap_of_)[u] = r.ap;
    }
  }

 private:
  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  ServePipeline* p_;
  std::vector<UserId> users_;
  BuildingId b_;
  std::uint64_t rng_;
  std::vector<ApId>* ap_of_;
  std::int64_t now_ = 0;
};

/// Even users stream in building 0, odd users in building 1.
std::vector<UserId> users_of_building(BuildingId b) {
  std::vector<UserId> out;
  for (UserId u = b; u < world().model.num_users(); u += 2) out.push_back(u);
  return out;
}

// The maintained cover and its cohesion must equal a from-scratch
// solve over the merged model at every checkpoint, however the live
// events arrived: first from one thread, then from two threads placing
// and departing on the two buildings while a third keeps asking for
// snapshots.
TEST(ServePipeline, SocialSnapshotMatchesFromScratchCover) {
  const World& w = world();
  const ServeConfig cfg;
  {
    ServePipeline p(&w.gen.network, &w.model, cfg);
    std::vector<ApId> ap_of(w.model.num_users(), kInvalidAp);
    SessionStream s0(p, users_of_building(0), 0, 11, ap_of);
    SessionStream s1(p, users_of_building(1), 1, 23, ap_of);
    expect_snapshot_matches(p.social_snapshot(),
                            reference_snapshot(p, cfg, ap_of));
    for (int step = 1; step <= 3000; ++step) {
      s0.step();
      s1.step();
      if (step % 500 == 0) {
        SCOPED_TRACE(step);
        expect_snapshot_matches(p.social_snapshot(),
                                reference_snapshot(p, cfg, ap_of));
      }
    }
    EXPECT_GT(p.model().updated_pairs(), 0U)
        << "stream produced no social events — test is vacuous";
    EXPECT_GT(reference_snapshot(p, cfg, ap_of).cohesion, 0.0)
        << "no clique pair shares an AP — cohesion is untested";
  }
  {
    ServePipeline p(&w.gen.network, &w.model, cfg);
    std::vector<ApId> ap_of(w.model.num_users(), kInvalidAp);
    std::atomic<int> running{2};
    const auto client = [&](BuildingId b, std::uint64_t seed) {
      SessionStream s(p, users_of_building(b), b, seed, ap_of);
      for (int step = 0; step < 1500; ++step) s.step();
      running.fetch_sub(1);
    };
    std::thread c0(client, BuildingId{0}, 31);
    std::thread c1(client, BuildingId{1}, 47);
    std::thread monitor([&] {
      while (running.load() > 0) p.social_snapshot();
    });
    c0.join();
    c1.join();
    monitor.join();
    EXPECT_GT(p.model().updated_pairs(), 0U);
    expect_snapshot_matches(p.social_snapshot(),
                            reference_snapshot(p, cfg, ap_of));
  }
}

TEST(ServePipeline, ModelOutageServesFallbackAndRecovers) {
  fault::FaultPlan plan;
  plan.model_outages.push_back(
      {util::SimTime::from_seconds(100), util::SimTime::from_seconds(200)});
  const fault::FaultInjector injector(plan, 1);
  ServeConfig cfg;
  cfg.injector = &injector;
  ServePipeline p(&world().gen.network, &world().model, cfg);

  ASSERT_TRUE(p.place(request(1, 0, 0, 10)).placed);
  EXPECT_EQ(p.stats().fallback_placements, 0U);

  const PlaceResult during = p.place(request(2, 1, 0, 150));
  ASSERT_TRUE(during.placed);
  EXPECT_TRUE(during.fallback);
  EXPECT_EQ(p.stats().fallback_placements, 1U);
  EXPECT_EQ(p.domain_health(0), fault::HealthState::kDegraded);

  // After the outage the degradation hysteresis walks back to healthy.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        p.place(request(100 + static_cast<std::uint64_t>(i),
                        static_cast<UserId>(3 + i), 0, 300 + i * 10))
            .placed);
  }
  EXPECT_EQ(p.domain_health(0), fault::HealthState::kHealthy);
}

TEST(ServePipeline, DeadApsArePrunedFromCandidates) {
  // Kill every AP of building 0's controller for the whole run: an
  // arrival there has no live candidate and must be rejected.
  const wlan::Network& net = world().gen.network;
  const ControllerId dom = net.controller_of_building(0);
  fault::FaultPlan plan;
  for (const ApId ap : net.aps_of_controller(dom)) {
    plan.ap_outages.push_back(
        {ap, util::SimTime::from_seconds(0), util::SimTime::from_days(10)});
  }
  const fault::FaultInjector injector(plan, 1);
  ServeConfig cfg;
  cfg.injector = &injector;
  ServePipeline p(&net, &world().model, cfg);
  EXPECT_FALSE(p.place(request(1, 0, 0, 50)).placed);
  EXPECT_EQ(p.stats().rejected_no_candidate, 1U);
  // The other building's domain is untouched.
  EXPECT_TRUE(p.place(request(2, 0, 1, 50)).placed);
}

TEST(ServePipeline, ConcurrentPlaceDepartKeepsBooksBalanced) {
  ServePipeline p(&world().gen.network, &world().model, {});
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kOps = 300;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&p, t]() {
      const std::uint64_t base = (static_cast<std::uint64_t>(t) + 1) << 32;
      for (std::size_t i = 0; i < kOps; ++i) {
        const std::uint64_t id = base + i;
        const UserId user = static_cast<UserId>((t * 31 + i) %
                                                world().model.num_users());
        const BuildingId b = static_cast<BuildingId>(i % 2);
        const std::int64_t now = static_cast<std::int64_t>(i) * 60;
        if (p.place(request(id, user, b, now)).placed && i % 2 == 0) {
          EXPECT_TRUE(p.depart(id, util::SimTime::from_seconds(now + 30)));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const ServeStats s = p.stats();
  EXPECT_EQ(s.placements, kThreads * kOps);
  EXPECT_EQ(s.departures + p.active_sessions(), s.placements);
  EXPECT_EQ(s.rejected_duplicate_id, 0U);
  EXPECT_EQ(s.unknown_departures, 0U);
}

TEST(LineProtocol, EndToEndScript) {
  ServePipeline p(&world().gen.network, &world().model, {});
  std::istringstream in(
      "# comment\n"
      "\n"
      "arrive 1 0 0 5 5 0 1.0\n"
      "arrive 1 2 0 5 5 10 1.0\n"
      "depart 1 100\n"
      "depart 1 110\n"
      "stats\n"
      "social\n");
  std::ostringstream out;
  EXPECT_TRUE(run_line_protocol(p, in, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("place 1 "), std::string::npos);
  EXPECT_NE(text.find("place 1 reject duplicate-id"), std::string::npos);
  EXPECT_NE(text.find("gone 1\n"), std::string::npos);
  EXPECT_NE(text.find("gone 1 unknown"), std::string::npos);
  EXPECT_NE(text.find("stats placements=1 departures=1 active=0"),
            std::string::npos);
  // The social verb serves the maintained cover in one line; the first
  // query is the seeding one (incremental=0, reseeds=1).
  EXPECT_NE(text.find("social users=200 "), std::string::npos);
  EXPECT_NE(text.find(" cohesion=0.000000 "), std::string::npos);
  EXPECT_NE(text.find(" incremental=0 "), std::string::npos);
  EXPECT_NE(text.find(" reseeds=1"), std::string::npos);
}

// The reject reason is the one place() reports for this request, not
// whatever another client of the same pipeline caused meanwhile: a
// second thread keeps re-placing an active id while the protocol
// streams arrivals for an unknown user.
TEST(LineProtocol, RejectionReasonIgnoresOtherClients) {
  ServePipeline p(&world().gen.network, &world().model, {});
  ASSERT_TRUE(p.place(request(1, 0, 0, 0)).placed);
  std::atomic<bool> stop{false};
  std::thread rival([&] {
    while (!stop.load()) p.place(request(1, 1, 0, 10));
  });
  while (p.stats().rejected_duplicate_id == 0) std::this_thread::yield();

  constexpr int kArrivals = 2000;
  const UserId unknown = static_cast<UserId>(world().model.num_users() + 5);
  std::ostringstream script;
  for (int i = 0; i < kArrivals; ++i) {
    script << "arrive " << 100 + i << ' ' << unknown << " 0 5 5 20 1.0\n";
  }
  std::istringstream in(script.str());
  std::ostringstream out;
  EXPECT_TRUE(run_line_protocol(p, in, out));
  stop.store(true);
  rival.join();

  std::istringstream replies(out.str());
  std::string line;
  int answered = 0;
  while (std::getline(replies, line)) {
    EXPECT_EQ(line, "place " + std::to_string(100 + answered) +
                        " reject unknown-user");
    ++answered;
  }
  EXPECT_EQ(answered, kArrivals);
  EXPECT_GT(p.stats().rejected_duplicate_id, 0U);
}

TEST(LineProtocol, MalformedLinesReportErrorsButContinue) {
  // Every malformed class gets its own structured `err <class>` reply
  // (class always the second token, so clients can branch on it), each
  // one lands on the metrics bus, and processing continues: the valid
  // line after the garbage is still served.
  ServePipeline p(&world().gen.network, &world().model, {});
  const std::uint64_t before =
      util::metrics().counter("serve.malformed_lines")->value();
  std::istringstream in(
      "arrive nope\n"
      "arrive 7 0 0 5 5 0\n"
      "depart xyz\n"
      "depart 7\n"
      "frobnicate 1\n"
      "arrive 5 0 0 5 5 0 1.0 stray\n"
      "depart 5 100 stray\n"
      "stats stray\n"
      "social stray\n"
      "arrive 2 0 99 5 5 0 1.0\n"
      "arrive 3 4294967295 0 5 5 0 1.0\n"
      "arrive 4 0 0 5 5 0 -50\n"
      "arrive 1 0 0 1e200 1e200 0 1.0\n"
      "arrive 5 0 0 5 5 0 1.0\n");
  std::ostringstream out;
  EXPECT_FALSE(run_line_protocol(p, in, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("err malformed-arrive arrive nope"), std::string::npos);
  EXPECT_NE(text.find("err malformed-arrive arrive 7 0 0 5 5 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("err malformed-depart depart xyz"), std::string::npos);
  EXPECT_NE(text.find("err malformed-depart depart 7\n"), std::string::npos);
  EXPECT_NE(text.find("err unknown-verb frobnicate"), std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage arrive 5 0 0 5 5 0 1.0 stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage depart 5 100 stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage stats stray"),
            std::string::npos);
  EXPECT_NE(text.find("err trailing-garbage social stray"),
            std::string::npos);
  // Parsed but outside the network or the id/demand domain: a building
  // the campus lacks, the reserved invalid user id, a negative demand.
  EXPECT_NE(text.find("err out-of-range arrive 2 0 99 5 5 0 1.0\n"),
            std::string::npos);
  EXPECT_NE(text.find("err out-of-range arrive 3 4294967295 0 5 5 0 1.0\n"),
            std::string::npos);
  EXPECT_NE(text.find("err out-of-range arrive 4 0 0 5 5 0 -50\n"),
            std::string::npos);
  // A finite position whose distance overflows hears no AP and falls
  // back to its building's first AP.
  EXPECT_NE(text.find("place 1 0\n"), std::string::npos);
  EXPECT_NE(text.find("place 5 "), std::string::npos);

  // A line longer than kMaxLineBytes: one err reply echoing a short
  // prefix, then the next line is served. Once with its newline, once
  // ending the input without one; a valid arrive follows each.
  const std::string endless(3u << 20, 'x');
  {
    std::istringstream long_in(endless + "\narrive 6 0 0 5 5 0 1.0\n");
    std::ostringstream long_out;
    EXPECT_FALSE(run_line_protocol(p, long_in, long_out));
    const std::string err =
        "err line-too-long " + endless.substr(0, kEchoBytes) + "\n";
    EXPECT_EQ(long_out.str().substr(0, err.size()), err);
    EXPECT_EQ(long_out.str().rfind("place 6 "), err.size()) << long_out.str();
  }
  {
    std::istringstream long_in(endless);
    std::ostringstream long_out;
    EXPECT_FALSE(run_line_protocol(p, long_in, long_out));
    EXPECT_EQ(long_out.str(),
              "err line-too-long " + endless.substr(0, kEchoBytes) + "\n");
    std::istringstream next_in("arrive 8 0 0 5 5 0 1.0\n");
    std::ostringstream next_out;
    EXPECT_TRUE(run_line_protocol(p, next_in, next_out));
    EXPECT_EQ(next_out.str().rfind("place 8 ", 0), 0u) << next_out.str();
  }
  // A line of exactly kMaxLineBytes is read whole.
  {
    std::istringstream at_cap_in(std::string(kMaxLineBytes, 'y') + "\n");
    std::ostringstream at_cap_out;
    EXPECT_FALSE(run_line_protocol(p, at_cap_in, at_cap_out));
    EXPECT_EQ(at_cap_out.str(), "err unknown-verb " +
                                    std::string(kMaxLineBytes, 'y') + "\n");
  }

  // One err line per malformed input, mirrored on the metrics bus.
  EXPECT_EQ(util::metrics().counter("serve.malformed_lines")->value() - before,
            15u);

  // A clean script leaves the counter alone and returns true.
  std::istringstream clean_in("depart 5 100\n");
  std::ostringstream clean_out;
  EXPECT_TRUE(run_line_protocol(p, clean_in, clean_out));
  EXPECT_EQ(util::metrics().counter("serve.malformed_lines")->value() - before,
            15u);
}

/// Holds written bytes until sync(), as stdio does for a pipe;
/// `delivered` is what a reader at the other end has seen.
class HeldOutputBuf : public std::streambuf {
 public:
  HeldOutputBuf() { setp(held_.data(), held_.data() + held_.size()); }
  std::string delivered;

 protected:
  int sync() override {
    delivered.append(pbase(), pptr());
    setp(held_.data(), held_.data() + held_.size());
    return 0;
  }
  int_type overflow(int_type c) override {
    sync();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  std::array<char, 1 << 16> held_{};
};

/// Hands out one request line per refill, as a client does that waits
/// for each reply, and notes what the output had delivered by then.
class LinePerRefillBuf : public std::streambuf {
 public:
  LinePerRefillBuf(std::vector<std::string> lines, const HeldOutputBuf* out)
      : lines_(std::move(lines)), out_(out) {}
  std::vector<std::string> delivered_at_refill;

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == lines_.size()) return traits_type::eof();
    delivered_at_refill.push_back(out_->delivered);
    std::string& line = lines_[next_++];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(line[0]);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
  const HeldOutputBuf* out_;
};

TEST(LineProtocol, FlushesTiedOutputBeforeEachRead) {
  // `s3lb serve` reads std::cin, which is tied to std::cout. When stdout
  // is a pipe its writes sit in a buffer, so each reply must be flushed
  // before the driver blocks on the next request: a client that sends
  // one line and waits for its answer would otherwise wait forever.
  ServePipeline p(&world().gen.network, &world().model, {});
  HeldOutputBuf out_buf;
  LinePerRefillBuf in_buf({"arrive 21 0 0 5 5 0 1.0\n", "frobnicate\n",
                           "arrive 22 0 0 5 5 0 1.0\n"},
                          &out_buf);
  std::ostream out(&out_buf);
  std::istream in(&in_buf);
  in.tie(&out);
  EXPECT_FALSE(run_line_protocol(p, in, out));
  ASSERT_EQ(in_buf.delivered_at_refill.size(), 3u);
  EXPECT_EQ(in_buf.delivered_at_refill[0], "");
  EXPECT_EQ(in_buf.delivered_at_refill[1].rfind("place 21 ", 0), 0u);
  EXPECT_EQ(std::count(in_buf.delivered_at_refill[1].begin(),
                       in_buf.delivered_at_refill[1].end(), '\n'),
            1);
  EXPECT_EQ(in_buf.delivered_at_refill[2],
            in_buf.delivered_at_refill[1] + "err unknown-verb frobnicate\n");

  // A stream that has already failed yields no request.
  std::istringstream failed("arrive 23 0 0 5 5 0 1.0\n");
  failed.setstate(std::ios::failbit);
  std::ostringstream failed_out;
  EXPECT_TRUE(run_line_protocol(p, failed, failed_out));
  EXPECT_EQ(failed_out.str(), "");
}

}  // namespace
}  // namespace s3::serve
