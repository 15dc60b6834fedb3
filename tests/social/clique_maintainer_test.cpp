#include "s3/social/clique_maintainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "s3/check/validators.h"
#include "s3/core/evaluation.h"
#include "s3/social/live_social_model.h"
#include "s3/social/presence_table.h"
#include "s3/trace/generator.h"
#include "s3/util/rng.h"

namespace s3::social {
namespace {

/// Two covers must agree bit for bit: clique lists, exactness, and the
/// search-tree size.
void expect_bitwise_equal(const CliqueCoverResult& a,
                          const CliqueCoverResult& b) {
  ASSERT_EQ(a.cliques, b.cliques);
  ASSERT_EQ(a.exact, b.exact);
  ASSERT_EQ(a.nodes_explored, b.nodes_explored);
}

using Edge = std::tuple<UserId, UserId, double>;

/// The maintainer's edges, each once as (u, v, θ) with u < v, in
/// ascending (u, v) order.
std::vector<Edge> mirrored_edges(const CliqueMaintainer& m) {
  std::vector<Edge> out;
  for (UserId u = 0; u < m.num_users(); ++u) {
    for (const CliqueMaintainer::Neighbor& nb : m.neighbors(u)) {
      if (nb.id > u) out.emplace_back(u, nb.id, nb.weight);
    }
  }
  return out;
}

/// The cover of a fresh maintainer given `edges` in reverse order: the
/// reference a maintained cover must equal, since a cover depends only
/// on the edge set.
CliqueCoverResult fresh_cover(std::size_t users,
                              const CliqueMaintainerConfig& config,
                              const std::vector<Edge>& edges) {
  CliqueMaintainer fresh(users, config);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    fresh.set_theta(std::get<0>(*it), std::get<1>(*it), std::get<2>(*it));
  }
  return fresh.cover();
}

/// The maintainer's edge set as a dense graph over its `users` users,
/// for feeding check::validate_clique_cover.
WeightedGraph dense_view(const CliqueMaintainer& m, std::size_t users) {
  WeightedGraph g(users);
  for (const auto& [u, v, weight] : mirrored_edges(m)) g.add_edge(u, v, weight);
  return g;
}

// --- randomized differential suite ----------------------------------

/// 1e5 seeded insert/delete/re-weight ops with community structure
/// (intra-community pairs are favored, so components join and fall
/// apart constantly). The cover is compared bitwise, in runs of four
/// consecutive ops at regular intervals, against a fresh maintainer
/// given the same edges in reverse order: within a run each op lands on
/// a cover just computed, so an op that fails to clear the cache shows.
/// The final cover is validated as an exact partition (including the
/// stale-cover rule).
TEST(CliqueMaintainer, RandomChurnMatchesFromScratch) {
  constexpr std::size_t kUsers = 48;
  constexpr std::size_t kCommunity = 6;
  constexpr std::size_t kOps = 100000;
  CliqueMaintainerConfig cfg;
  cfg.theta_threshold = 0.3;
  CliqueMaintainer m(kUsers, cfg);
  util::Rng rng(20130708);  // ICDCS'13 vintage

  const auto random_pair = [&](UserId& u, UserId& v) {
    if (rng.bernoulli(0.8)) {
      // Intra-community: dense, clique-friendly neighborhoods.
      const std::size_t c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kUsers / kCommunity) - 1));
      u = static_cast<UserId>(c * kCommunity +
                              static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(kCommunity) - 1)));
      do {
        v = static_cast<UserId>(
            c * kCommunity +
            static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(kCommunity) - 1)));
      } while (v == u);
    } else {
      // Cross-community bridges: join communities, then (on decay)
      // part them again.
      u = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
      do {
        v = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
      } while (v == u);
    }
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    UserId u = 0;
    UserId v = 0;
    random_pair(u, v);
    // Uniform over [0, 0.6): roughly half the writes land above the
    // 0.3 threshold, so inserts, deletes, and re-weights all flow.
    m.set_theta(u, v, rng.uniform(0.0, 0.6));
    if (op % 977 < 4 || op + 1 == kOps) {
      expect_bitwise_equal(m.cover(),
                           fresh_cover(kUsers, cfg, mirrored_edges(m)));
    }
  }

  // The churn must actually have exercised every mutation path.
  const CliqueMaintainerStats& st = m.stats();
  EXPECT_GT(st.edges_inserted, 0u);
  EXPECT_GT(st.edges_removed, 0u);
  EXPECT_GT(st.edges_reweighted, 0u);

  // The final cover is a valid, non-stale partition of the edge set.
  const CliqueCoverResult& final_cover = m.cover();
  EXPECT_TRUE(check::validate_clique_cover(dense_view(m, kUsers),
                                           final_cover.cliques)
                  .ok());
}

TEST(CliqueMaintainer, ExactEqualReweightLeavesEverythingClean) {
  CliqueMaintainer m(4);
  m.set_theta(0, 1, 0.9);
  m.set_theta(2, 3, 0.8);
  m.cover();
  const std::uint64_t version = m.cover_version();
  const std::uint64_t solved = m.stats().components_solved;
  m.set_theta(0, 1, 0.9);  // bitwise-identical θ: must be a no-op
  m.set_theta(1, 2, 0.3);  // a non-edge staying at the threshold
  m.cover();
  m.cover();  // a repeated query serves the cached cover
  EXPECT_EQ(m.cover_version(), version);
  EXPECT_EQ(m.stats().components_solved, solved);
  EXPECT_EQ(m.stats().edges_reweighted, 0u);
  EXPECT_EQ(m.stats().cover_queries, 3u);
}

TEST(CliqueMaintainer, EveryEdgeChangeBumpsTheCoverVersion) {
  CliqueMaintainer m(4);
  m.set_theta(0, 1, 0.9);
  m.cover();  // components {0, 1}, {2}, {3}
  ASSERT_EQ(m.stats().components_solved, 3u);
  struct Step {
    UserId u;
    UserId v;
    double theta;
    std::uint64_t components;  ///< after the step
  };
  const Step steps[] = {
      {2, 3, 0.8, 2},   // crossing up: an insert
      {0, 1, 0.95, 2},  // a weight change
      {2, 3, 0.1, 3},   // crossing down: a removal
      {0, 1, std::numeric_limits<double>::quiet_NaN(), 4},  // non-finite
  };
  for (const Step& s : steps) {
    SCOPED_TRACE(testing::Message() << "(" << s.u << ", " << s.v << ") <- "
                                    << s.theta);
    const std::uint64_t version = m.cover_version();
    const std::uint64_t solved = m.stats().components_solved;
    m.set_theta(s.u, s.v, s.theta);
    m.cover();
    EXPECT_EQ(m.cover_version(), version + 1);
    // Every recompute solves every component.
    EXPECT_EQ(m.stats().components_solved - solved, s.components);
  }
  EXPECT_EQ(m.num_edges(), 0u);
  EXPECT_EQ(m.cover().cliques.size(), 4u);
}

// --- sync against a live model -------------------------------------

/// The provider's strict-threshold edges by the full θ sweep, in the
/// same order.
std::vector<Edge> swept_edges(const ThetaProvider& model) {
  std::vector<Edge> out;
  for_each_theta_edge(model, 0.3, /*strict=*/true,
                      [&out](UserId u, UserId v, double theta) {
                        out.emplace_back(u, v, theta);
                      });
  return out;
}

TEST(CliqueMaintainer, SyncAgainstFrozenModelSeedsOnceThenIdles) {
  trace::GeneratorConfig gc;
  gc.seed = 11;
  gc.num_users = 80;
  gc.num_days = 3;
  gc.layout.num_buildings = 2;
  gc.layout.aps_per_building = 4;
  const trace::GeneratedTrace world = trace::generate_campus_trace(gc);
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const SocialIndexModel base =
      core::train_from_workload(world.network, world.workload, eval);
  const LiveSocialModel model(&base);

  CliqueMaintainer m;
  EXPECT_FALSE(m.sync(model));  // first contact: seed from the base
  EXPECT_EQ(m.stats().reseeds, 1u);
  EXPECT_EQ(m.num_users(), model.num_users());
  EXPECT_EQ(mirrored_edges(m), swept_edges(model));
  EXPECT_TRUE(m.sync(model));  // no live pairs: nothing to apply
  EXPECT_EQ(m.stats().reseeds, 1u);
  EXPECT_EQ(m.stats().deltas_applied, 0u);
  EXPECT_EQ(mirrored_edges(m), swept_edges(model));

  // The mirrored edge set obeys the strict threshold rule bit for bit.
  EXPECT_GT(m.num_edges(), 0u);
  for (const auto& [u, v, weight] : mirrored_edges(m)) {
    EXPECT_EQ(weight, model.theta(u, v));
    EXPECT_GT(weight, m.config().theta_threshold);
  }
  expect_bitwise_equal(m.cover(), fresh_cover(m.num_users(), m.config(),
                                               swept_edges(model)));
}

TEST(CliqueMaintainer, SyncFollowsOnlineModelDeltas) {
  trace::GeneratorConfig gc;
  gc.seed = 5;
  gc.num_users = 60;
  gc.num_days = 3;
  gc.layout.num_buildings = 2;
  gc.layout.aps_per_building = 3;
  const trace::GeneratedTrace world = trace::generate_campus_trace(gc);
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const SocialIndexModel base =
      core::train_from_workload(world.network, world.workload, eval);

  LiveSocialModel online(&base);
  PresenceTable presence(util::SimTime::from_minutes(5),
                         util::SimTime::from_minutes(10));
  CliqueMaintainer m;
  EXPECT_FALSE(m.sync(online));
  EXPECT_EQ(mirrored_edges(m), swept_edges(online));

  // Replay the test window's sessions as live events; sync after each
  // burst must follow the live pairs without reseeding, and the
  // maintained structure must match a from-scratch sweep and solve.
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < world.workload.size() && replayed < 400; ++i) {
    const trace::SessionRecord& s = world.workload.session(i);
    presence.arrive(s.ap, i, s.user, s.connect);
    online.learn(presence.depart(s.ap, i, s.disconnect));
    ++replayed;
    if (replayed % 97 == 0) {
      EXPECT_TRUE(m.sync(online));
      EXPECT_EQ(mirrored_edges(m), swept_edges(online));
      expect_bitwise_equal(m.cover(), fresh_cover(m.num_users(), m.config(),
                                                 swept_edges(online)));
    }
  }
  EXPECT_TRUE(m.sync(online));
  EXPECT_EQ(m.stats().reseeds, 1u);
  EXPECT_GT(online.updated_pairs(), 0u);
  EXPECT_EQ(mirrored_edges(m), swept_edges(online));
  expect_bitwise_equal(m.cover(), fresh_cover(m.num_users(), m.config(),
                                               swept_edges(online)));
}

}  // namespace
}  // namespace s3::social
