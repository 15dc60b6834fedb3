#include "s3/social/clique_maintainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "s3/check/validators.h"
#include "s3/core/evaluation.h"
#include "s3/social/live_social_model.h"
#include "s3/social/presence_table.h"
#include "s3/trace/generator.h"
#include "s3/util/rng.h"

namespace s3::social {
namespace {

/// Both assemblies must agree bit for bit — clique lists, exactness,
/// and the search-tree size — or the incremental bookkeeping diverged.
void expect_bitwise_equal(const CliqueCoverResult& a,
                          const CliqueCoverResult& b) {
  ASSERT_EQ(a.cliques, b.cliques);
  ASSERT_EQ(a.exact, b.exact);
  ASSERT_EQ(a.nodes_explored, b.nodes_explored);
}

/// The maintainer's edge set as a dense graph over all users, for
/// feeding check::validate_clique_cover.
WeightedGraph dense_view(const CliqueMaintainer& m) {
  WeightedGraph g(m.num_users());
  for (UserId u = 0; u < m.num_users(); ++u) {
    for (const CliqueMaintainer::Neighbor& nb : m.neighbors(u)) {
      if (nb.id > u) g.add_edge(u, nb.id, nb.weight);
    }
  }
  return g;
}

// --- randomized differential suite ----------------------------------

/// 1e5 seeded insert/delete/re-weight ops with community structure
/// (intra-community pairs are favored, so components merge and split
/// constantly). The cover is compared bitwise against the cache-free
/// from-scratch solve at regular intervals, and validated as an exact
/// partition (including the stale-cover rule) at the end.
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
      // Cross-community bridges: merge, then (on decay) split again.
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
    if (op % 977 == 0 || op + 1 == kOps) {
      expect_bitwise_equal(m.cover(), m.solve_from_scratch());
    }
  }

  // The churn must actually have exercised every structural path.
  const CliqueMaintainerStats& st = m.stats();
  EXPECT_GT(st.edges_inserted, 0u);
  EXPECT_GT(st.edges_removed, 0u);
  EXPECT_GT(st.edges_reweighted, 0u);
  EXPECT_GT(st.component_merges, 0u);
  EXPECT_GT(st.component_splits, 0u);

  // Carve community 0 out of the graph entirely — its six users become
  // isolated singleton components next to the (densely connected)
  // remainder — then touch only the remainder: the singletons must be
  // served from cache.
  for (UserId u = 0; u < kCommunity; ++u) {
    for (UserId v = 0; v < kUsers; ++v) {
      if (v != u) m.set_theta(u, v, 0.0);
    }
  }
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());
  const std::uint64_t reused_before = m.stats().components_reused;
  m.set_theta(static_cast<UserId>(kCommunity),
              static_cast<UserId>(kCommunity + 1), 0.99);
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());
  EXPECT_GT(m.stats().components_reused, reused_before);

  // The final cover is a valid, non-stale partition of the edge set.
  const CliqueCoverResult& final_cover = m.cover();
  EXPECT_TRUE(
      check::validate_clique_cover(dense_view(m), final_cover.cliques).ok());
}

TEST(CliqueMaintainer, ExactEqualReweightLeavesEverythingClean) {
  CliqueMaintainer m(4);
  m.set_theta(0, 1, 0.9);
  m.set_theta(2, 3, 0.8);
  m.cover();
  const std::uint64_t version = m.cover_version();
  m.set_theta(0, 1, 0.9);  // bitwise-identical θ: must be a no-op
  EXPECT_EQ(m.dirty_components(), 0u);
  m.cover();
  EXPECT_EQ(m.cover_version(), version);
  EXPECT_EQ(m.stats().edges_reweighted, 0u);
}

TEST(CliqueMaintainer, CleanComponentsAreServedFromCache) {
  CliqueMaintainer m(6);
  m.set_theta(0, 1, 0.9);
  m.set_theta(2, 3, 0.8);
  m.set_theta(4, 5, 0.7);
  m.cover();
  m.set_theta(0, 1, 0.95);  // only {0, 1} goes dirty
  const std::uint64_t solved_before = m.stats().components_solved;
  const std::uint64_t reused_before = m.stats().components_reused;
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());
  EXPECT_EQ(m.stats().components_solved - solved_before, 1u);
  EXPECT_EQ(m.stats().components_reused - reused_before, 2u);
}

// --- ThetaDelta sync paths ------------------------------------------

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
  const SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);

  CliqueMaintainer m;
  EXPECT_FALSE(m.sync(model));  // first contact: reseed
  EXPECT_EQ(m.stats().reseeds, 1u);
  EXPECT_EQ(m.num_users(), model.num_users());
  EXPECT_TRUE(m.sync(model));  // frozen feed: complete and empty
  EXPECT_EQ(m.stats().reseeds, 1u);

  // The mirrored edge set obeys the strict threshold rule bit for bit.
  std::size_t edges_seen = 0;
  for (UserId u = 0; u < m.num_users(); ++u) {
    for (const CliqueMaintainer::Neighbor& nb : m.neighbors(u)) {
      if (nb.id < u) continue;
      ++edges_seen;
      EXPECT_EQ(nb.weight, model.theta(u, nb.id));
      EXPECT_GT(nb.weight, m.config().theta_threshold);
    }
  }
  EXPECT_EQ(edges_seen, m.num_edges());
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());
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

  LiveSocialModel<PairStore> online(&base);
  PresenceTable presence(util::SimTime::from_minutes(5),
                         util::SimTime::from_minutes(10));
  CliqueMaintainer m;
  EXPECT_FALSE(m.sync(online));

  // Replay the test window's sessions as live events; sync after each
  // burst must follow the feed without reseeding, and the maintained
  // structure must stay bit-identical to a from-scratch solve.
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < world.workload.size() && replayed < 400; ++i) {
    const trace::SessionRecord& s = world.workload.session(i);
    presence.arrive(s.ap, i, s.user, s.connect);
    online.learn(presence.depart(s.ap, i, s.disconnect));
    ++replayed;
    if (replayed % 97 == 0) {
      EXPECT_TRUE(m.sync(online));
      expect_bitwise_equal(m.cover(), m.solve_from_scratch());
    }
  }
  EXPECT_TRUE(m.sync(online));
  EXPECT_EQ(m.stats().reseeds, 1u);
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());

  // Spot-check the mirror against the provider's current θ.
  for (UserId u = 0; u < m.num_users(); ++u) {
    for (const CliqueMaintainer::Neighbor& nb : m.neighbors(u)) {
      if (nb.id > u) {
        EXPECT_EQ(nb.weight, online.theta(u, nb.id));
      }
    }
  }
}

/// A provider whose feed can be truncated under the consumer, per the
/// ThetaDelta retention contract.
class TruncatingProvider : public ThetaProvider {
 public:
  explicit TruncatingProvider(std::size_t n) : n_(n) {}

  double theta(UserId u, UserId v) const override {
    const auto it = thetas_.find(UserPair(u, v));
    return it == thetas_.end() ? 0.0 : it->second;
  }
  std::size_t num_users() const override { return n_; }
  std::uint64_t read_epoch() const noexcept override { return epoch_; }
  bool emits_theta_deltas() const noexcept override { return true; }
  ThetaDeltaPoll poll_theta_deltas(
      std::uint64_t cursor, std::vector<ThetaDelta>& out) const override {
    const std::uint64_t end = base_ + feed_.size();
    if (cursor < base_ || cursor > end) return ThetaDeltaPoll{end, false};
    out.insert(out.end(),
               feed_.begin() + static_cast<std::ptrdiff_t>(cursor - base_),
               feed_.end());
    return ThetaDeltaPoll{end, true};
  }

  void set(UserId u, UserId v, double theta) {
    thetas_[UserPair(u, v)] = theta;
    feed_.push_back(ThetaDelta{UserPair(u, v), theta, ++epoch_});
  }
  void truncate_log() {
    base_ += feed_.size();
    feed_.clear();
  }

 private:
  std::size_t n_;
  std::map<UserPair, double> thetas_;
  std::vector<ThetaDelta> feed_;
  std::uint64_t base_ = 0;
  std::uint64_t epoch_ = 0;
};

TEST(CliqueMaintainer, IncompletePollForcesReseed) {
  TruncatingProvider p(6);
  p.set(0, 1, 0.9);
  CliqueMaintainer m;
  EXPECT_FALSE(m.sync(p));
  EXPECT_TRUE(m.has_edge(0, 1));

  p.set(2, 3, 0.8);
  EXPECT_TRUE(m.sync(p));  // normal incremental drain
  EXPECT_TRUE(m.has_edge(2, 3));

  // Records lost behind the consumer's cursor: the poll is incomplete
  // and the maintainer must rebuild rather than trust its mirror.
  p.set(4, 5, 0.7);
  p.set(0, 1, 0.0);
  p.truncate_log();
  EXPECT_FALSE(m.sync(p));
  EXPECT_EQ(m.stats().reseeds, 2u);
  EXPECT_FALSE(m.has_edge(0, 1));
  EXPECT_TRUE(m.has_edge(4, 5));
  expect_bitwise_equal(m.cover(), m.solve_from_scratch());
}

// --- CliqueScoreCache -----------------------------------------------

TEST(CliqueScoreCache, InvalidatesPerUserAndPerVersion) {
  CliqueMaintainer m(5);
  m.set_theta(0, 1, 0.9);
  m.set_theta(3, 4, 0.8);
  CliqueScoreCache cache;
  cache.bind(m.cover(), m.cover_version());
  const auto score_all = [&] {
    double total = 0.0;
    for (std::size_t i = 0; i < m.cover().cliques.size(); ++i) {
      total += cache.score(i, [](std::size_t) { return 1.0; });
    }
    return total;
  };
  score_all();
  const std::uint64_t computed_cold = cache.recomputed();
  score_all();
  EXPECT_EQ(cache.recomputed(), computed_cold);  // all hits
  EXPECT_GT(cache.reused(), 0u);

  // One user invalidated -> exactly one clique recomputed.
  cache.invalidate_user(0);
  score_all();
  EXPECT_EQ(cache.recomputed(), computed_cold + 1);

  // A structural change bumps the version; rebinding drops everything.
  m.set_theta(1, 2, 0.7);
  cache.bind(m.cover(), m.cover_version());
  score_all();
  EXPECT_EQ(cache.recomputed(), computed_cold + 1 + m.cover().cliques.size());
}

}  // namespace
}  // namespace s3::social
