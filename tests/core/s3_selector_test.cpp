#include "s3/core/s3_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <unordered_map>

#include "s3/analysis/balance.h"
#include "s3/core/distribution_rank.h"
#include "s3/util/metrics.h"
#include "s3/util/rng.h"
#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::mini_network;

/// Model over `n` users where theta(u,v) is given by an explicit map
/// (type term zero everywhere).
social::SocialIndexModel explicit_model(
    std::size_t n,
    const std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>>&
        pair_events,
    double alpha = 0.3) {
  social::SocialModelConfig cfg;
  cfg.alpha = alpha;
  analysis::PairStatsMap stats;
  for (const auto& [u, v, enc, col] : pair_events) {
    stats[UserPair(u, v)] = {enc, col, 0};
  }
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user.assign(n, 0);
  typing.centroids.assign(apps::kNumCategories, 0.0);
  social::TypeCoLeaveMatrix matrix(1);  // T = 0
  return social::SocialIndexModel::from_parts(cfg, std::move(stats),
                                              std::move(typing),
                                              std::move(matrix));
}

sim::Arrival arrival(std::size_t session, UserId user,
                     std::vector<ApId> candidates, double demand = 1.0) {
  sim::Arrival a;
  a.session_index = session;
  a.user = user;
  a.controller = 0;
  a.demand_mbps = demand;
  a.candidates = std::move(candidates);
  return a;
}

TEST(S3Selector, ValidatesConstruction) {
  const auto net = mini_network(2);
  const auto model = explicit_model(2, {});
  EXPECT_THROW(S3Selector(nullptr, &model), std::invalid_argument);
  EXPECT_THROW(S3Selector(&net, nullptr), std::invalid_argument);
  S3Config bad;
  bad.top_fraction = 0.0;
  EXPECT_THROW(S3Selector(&net, &model, bad), std::invalid_argument);
}

TEST(S3Selector, SingleUserAvoidsStrongRelation) {
  const auto net = mini_network(3);
  // User 1 (already on AP 0) is strongly tied to arriving user 0.
  const auto model = explicit_model(2, {{0, 1, 4, 4}});  // P(L|E)=1
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 1.0);
  S3Selector s3(&net, &model);
  const ApId chosen = s3.select_one(arrival(0, 0, {0, 1, 2}), loads);
  EXPECT_NE(chosen, 0u);
}

TEST(S3Selector, NoRelationsFallsBackToLlf) {
  const auto net = mini_network(3);
  const auto model = explicit_model(4, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 5.0);
  loads.associate(101, 1, 2, 1.0);  // AP 2 is completely idle
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1, 2}), loads), 2u);
}

TEST(S3Selector, BandwidthConstraintSkipsFullAp) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 10.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {{0, 2, 4, 4}});  // tie to user 2
  sim::ApLoadTracker loads(net);
  // AP 1 holds the strongly-tied user; AP 0 is nearly full.
  loads.associate(100, 0, 1, 9.5);
  loads.associate(101, 1, 2, 1.0);
  S3Selector s3(&net, &model);
  // Social cost prefers AP 0 (no ties there), but 1 Mbps does not fit:
  // infinite cost -> AP 1 despite the relation.
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1}, 1.0), loads), 1u);
}

TEST(S3Selector, AllFullDegradesToLlf) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 5.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 4.9);
  loads.associate(101, 1, 2, 4.5);
  S3Selector s3(&net, &model);
  // Demand 2 fits nowhere; LLF picks the lighter AP 1.
  EXPECT_EQ(s3.select_one(arrival(0, 0, {0, 1}, 2.0), loads), 1u);
}

TEST(S3Selector, BatchDispersesClique) {
  const auto net = mini_network(4);
  // Users 0..3 form a clique (all pairs strongly tied).
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(4, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 4; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3}));
  }
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // Four candidates, four clique members: one per AP.
  const std::set<ApId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(S3Selector, CliqueBiggerThanCandidateSetMinimizesOverlap) {
  const auto net = mini_network(2);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(4, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 4; ++u) batch.push_back(arrival(u, u, {0, 1}));
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // Best dispersion over two APs is 2 + 2.
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 0u), 2);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 1u), 2);
}

TEST(S3Selector, BatchAvoidsExistingAssociates) {
  const auto net = mini_network(3);
  // Arriving users 0,1 strongly tied to resident users 2,3.
  const auto model =
      explicit_model(4, {{0, 1, 4, 4}, {0, 2, 4, 4}, {1, 3, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 2, 1.0);  // resident 2 on AP 0
  loads.associate(101, 1, 3, 1.0);  // resident 3 on AP 1
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}),
                                     arrival(1, 1, {0, 1, 2})};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  // User 0 must avoid AP 0 (resident friend) and user 1 must avoid
  // AP 1; they also avoid each other.
  EXPECT_NE(chosen[0], 0u);
  EXPECT_NE(chosen[1], 1u);
  EXPECT_NE(chosen[0], chosen[1]);
}

TEST(S3Selector, MixedBatchSingletonsGetLlf) {
  const auto net = mini_network(2);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 3.0);  // AP 0 loaded (resident user 1)
  // User 2 is a singleton in the batch: plain LLF -> AP 1.
  std::vector<sim::Arrival> batch = {arrival(0, 2, {0, 1})};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_EQ(chosen[0], 1u);
}

TEST(S3Selector, EmptyBatch) {
  const auto net = mini_network(2);
  const auto model = explicit_model(1, {});
  sim::ApLoadTracker loads(net);
  S3Selector s3(&net, &model);
  EXPECT_TRUE(s3.place_batch({}, loads).placements.empty());
}

TEST(S3Selector, BeamPathHandlesLargeClique) {
  // 12 members x 6 candidates = 6^12 >> enumeration_limit: the beam
  // path must still produce a near-even dispersion.
  const auto net = mini_network(6);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 12; ++u) {
    for (UserId v = u + 1; v < 12; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(12, pairs);
  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 12; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3, 4, 5}));
  }
  S3Config cfg;
  cfg.enumeration_limit = 1000;
  cfg.beam_width = 64;
  S3Selector s3(&net, &model, cfg);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  std::array<int, 6> counts{};
  for (ApId a : chosen) counts[a]++;
  for (int c : counts) EXPECT_EQ(c, 2);  // perfectly even
}

TEST(S3Selector, BalanceTieBreakPrefersLighterAps) {
  // Two tied users, three candidate APs with unequal background load.
  // All zero-overlap distributions have equal social cost; the balance
  // tie-break must put them on the two *lightest* APs.
  const auto net = mini_network(3);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 2, 2, 10.0);  // AP 2 heavily loaded (resident 2)
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}, 1.0),
                                     arrival(1, 1, {0, 1, 2}, 1.0)};
  S3Selector s3(&net, &model);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_NE(chosen[0], chosen[1]);
  EXPECT_NE(chosen[0], 2u);
  EXPECT_NE(chosen[1], 2u);
}

TEST(S3Selector, BatchDeterministic) {
  const auto net = mini_network(4);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 6; ++u) {
    for (UserId v = u + 1; v < 6; ++v) {
      if ((u + v) % 2 == 0) pairs.push_back({u, v, 4, 3});
    }
  }
  const auto model = explicit_model(6, pairs);
  sim::ApLoadTracker loads(net);
  loads.associate(100, 1, 5, 2.5);
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 5; ++u) {
    batch.push_back(arrival(u, u, {0, 1, 2, 3}, 0.5 + 0.3 * u));
  }
  S3Selector a(&net, &model), b(&net, &model);
  EXPECT_EQ(a.place_batch({batch}, loads).placements,
            b.place_batch({batch}, loads).placements);
  // Repeated invocation on the same selector is also stable (no hidden
  // state accumulates).
  EXPECT_EQ(a.place_batch({batch}, loads).placements,
            b.place_batch({batch}, loads).placements);
}

TEST(S3Selector, TopFractionBoundaryTiesIncluded) {
  // Two tied users, three candidates, one candidate pre-loaded: every
  // zero-overlap distribution costs the same, so even with a tiny
  // top_fraction the balance tie-break must still see all of them and
  // avoid the loaded AP.
  const auto net = mini_network(3);
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 2, 2, 15.0);
  std::vector<sim::Arrival> batch = {arrival(0, 0, {0, 1, 2}, 1.0),
                                     arrival(1, 1, {0, 1, 2}, 1.0)};
  S3Config cfg;
  cfg.top_fraction = 0.01;  // would keep a single distribution pre-ties
  S3Selector s3(&net, &model, cfg);
  const auto chosen = s3.place_batch({batch}, loads).placements;
  EXPECT_NE(chosen[0], 2u);
  EXPECT_NE(chosen[1], 2u);
  EXPECT_NE(chosen[0], chosen[1]);
}

TEST(S3Selector, Name) {
  const auto net = mini_network(1);
  const auto model = explicit_model(1, {});
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.name(), "S3");
}

TEST(S3Selector, StatsCountPaths) {
  const auto net = mini_network(4);
  std::vector<std::tuple<UserId, UserId, std::uint32_t, std::uint32_t>> pairs;
  for (UserId u = 0; u < 3; ++u) {
    for (UserId v = u + 1; v < 3; ++v) pairs.push_back({u, v, 4, 4});
  }
  const auto model = explicit_model(5, pairs);
  sim::ApLoadTracker loads(net);
  // Batch: a 3-clique plus two unrelated singles.
  std::vector<sim::Arrival> batch;
  for (UserId u = 0; u < 5; ++u) batch.push_back(arrival(u, u, {0, 1, 2, 3}));
  S3Selector s3(&net, &model);
  EXPECT_EQ(s3.stats().batches, 0u);
  (void)s3.place_batch({batch}, loads);
  const S3Stats& st = s3.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.cliques, 1u);
  EXPECT_EQ(st.clique_members, 3u);
  EXPECT_EQ(st.largest_clique, 3u);
  EXPECT_EQ(st.singles, 2u);
  EXPECT_EQ(st.exact_enumerations, 1u);
  EXPECT_EQ(st.beam_searches, 0u);
  EXPECT_EQ(st.bandwidth_fallbacks, 0u);
  EXPECT_EQ(st.empty_candidate_fallbacks, 0u);
  EXPECT_EQ(st.degraded_batches, 0u);
  EXPECT_EQ(st.inexact_covers, 0u);
}

TEST(S3Selector, FallbackCountersSplitFullFromEmpty) {
  // "every candidate is over capacity" and "no candidate at all" are
  // different failures: the first is a capacity event the operator can
  // provision for, the second a radio/outage event. The stats must not
  // conflate them.
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = 2;
  layout.ap_capacity_mbps = 5.0;
  const auto net = wlan::make_campus(layout);
  const auto model = explicit_model(3, {});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 4.9);
  loads.associate(101, 1, 2, 4.5);
  S3Selector s3(&net, &model);

  // Candidates present, none fits: bandwidth_fallbacks only.
  (void)s3.select_one(arrival(0, 0, {0, 1}, 2.0), loads);
  EXPECT_EQ(s3.stats().bandwidth_fallbacks, 1u);
  EXPECT_EQ(s3.stats().empty_candidate_fallbacks, 0u);

  // No candidates at all: counted, then rejected as a caller error.
  EXPECT_THROW((void)s3.select_one(arrival(1, 0, {}, 1.0), loads),
               std::invalid_argument);
  EXPECT_EQ(s3.stats().bandwidth_fallbacks, 1u);
  EXPECT_EQ(s3.stats().empty_candidate_fallbacks, 1u);
}

TEST(S3Selector, FaultControlsForceLlfFallback) {
  const auto net = mini_network(3);
  // Strong tie would normally push user 0 away from user 1's AP 0...
  const auto model = explicit_model(3, {{0, 1, 4, 4}});
  sim::ApLoadTracker loads(net);
  loads.associate(100, 0, 1, 1.0);
  loads.associate(101, 2, 2, 1.0);  // AP 1 idle, AP 0/2 loaded
  S3Selector s3(&net, &model);
  EXPECT_TRUE(s3.uses_social_model());

  // ...but with the model out the embedded LLF just takes the idle AP.
  std::vector<sim::Arrival> batch{arrival(0, 0, {0, 1, 2})};
  sim::BatchRequest request;
  request.arrivals = batch;
  request.faults.model_available = false;
  const sim::BatchResult degraded = s3.place_batch(request, loads);
  ASSERT_EQ(degraded.placements.size(), 1u);
  EXPECT_EQ(degraded.placements[0], 1u);
  EXPECT_EQ(s3.stats().degraded_batches, 1u);
  EXPECT_FALSE(degraded.full_fidelity);

  // Restoring the model restores full fidelity.
  request.faults = sim::FaultControls{};
  const sim::BatchResult healthy = s3.place_batch(request, loads);
  EXPECT_TRUE(healthy.full_fidelity);
  EXPECT_EQ(s3.stats().degraded_batches, 1u);
}

TEST(S3Selector, StateDigestTracksCommittedAssociations) {
  // No later decision reads what a batch leaves behind: S3Stats are
  // telemetry and the directives are overwritten by the next batch. So
  // healthy, degraded and budget-exhausted batches all leave the digest
  // where a replica that never called place_batch has it, while
  // stats() still counts them, and every result is replayable.
  const auto net = mini_network(3);
  const auto model =
      explicit_model(3, {{0, 1, 4, 4}, {0, 2, 4, 4}, {1, 2, 4, 4}});
  S3Selector primary(&net, &model);
  const S3Selector replica(&net, &model);
  const std::uint64_t digest = replica.state_digest();

  sim::ApLoadTracker loads(net);
  std::vector<sim::Arrival> batch{arrival(0, 0, {0, 1, 2}),
                                  arrival(1, 1, {0, 1, 2}),
                                  arrival(2, 2, {0, 1, 2})};
  sim::BatchRequest request;
  request.arrivals = batch;
  const sim::BatchResult healthy = primary.place_batch(request, loads);
  EXPECT_TRUE(healthy.full_fidelity);
  EXPECT_TRUE(healthy.replayable);
  EXPECT_EQ(primary.state_digest(), digest);

  request.faults.model_available = false;
  const sim::BatchResult degraded = primary.place_batch(request, loads);
  EXPECT_FALSE(degraded.full_fidelity);
  EXPECT_TRUE(degraded.replayable);
  EXPECT_EQ(primary.state_digest(), digest);

  request.faults = {};
  request.faults.clique_node_budget = 1;
  const sim::BatchResult exhausted = primary.place_batch(request, loads);
  EXPECT_FALSE(exhausted.full_fidelity);
  EXPECT_TRUE(exhausted.replayable);
  EXPECT_EQ(primary.state_digest(), digest);

  const S3Stats& st = primary.stats();
  EXPECT_EQ(st.batches, 3u);
  EXPECT_EQ(st.degraded_batches, 1u);
  EXPECT_EQ(st.inexact_covers, 1u);
  EXPECT_EQ(replica.stats().batches, 0u);
}

// ---- Differential test: flat search vs the level-by-level reference --
//
// The reference below is the original Algorithm 1 clique search: a
// level-by-level build over per-distribution choice vectors that
// re-hashes the added demand on every extension. S3Selector's flat
// search must reproduce it exactly: placements, S3Stats and the
// distributions counter, including every cost and β′ tie.

/// θ from a dense symmetric table; theta_row is the default scalar loop.
class TableTheta final : public social::ThetaProvider {
 public:
  explicit TableTheta(std::size_t n) : n_(n), theta_(n * n, 0.0) {}
  void set(UserId u, UserId v, double t) {
    theta_[u * n_ + v] = t;
    theta_[v * n_ + u] = t;
  }
  double theta(UserId u, UserId v) const override {
    return u == v ? 0.0 : theta_[u * n_ + v];
  }
  std::size_t num_users() const override { return n_; }

 private:
  std::size_t n_;
  std::vector<double> theta_;
};

struct ReferenceDistribution {
  std::vector<std::size_t> choice;
  double cost = 0.0;
  bool feasible = true;
  std::size_t parent = 0;  ///< position of the prefix in its level
  std::size_t position = 0;  ///< position in the final level (leaves)
};

struct ReferenceOutcome {
  std::vector<ApId> placements;
  S3Stats stats;
  std::uint64_t distributions = 0;
  std::size_t cliques = 0;  ///< cover size; the harness needs exactly 1
};

double reference_social_cost(const social::ThetaProvider& model,
                             const sim::ApLoadTracker& loads, UserId user,
                             ApId ap, double threshold) {
  double cost = 0.0;
  loads.for_each_station(ap, [&](const sim::ActiveStation& st) {
    const double th = model.theta(user, st.user);
    if (threshold < 0.0 || th > threshold) cost += th;
  });
  return cost;
}

/// One multi-member clique, placed the way S3Selector did before the
/// flat search, against `scratch` (the state with the batch's earlier
/// cliques committed). `single` serves the fallback.
void reference_clique(const wlan::Network& net,
                      const social::ThetaProvider& model,
                      const S3Config& config,
                      const std::vector<sim::Arrival>& batch,
                      const std::vector<std::size_t>& clique,
                      const sim::ApLoadTracker& scratch, S3Selector& single,
                      ReferenceOutcome& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t m = clique.size();
  const double threshold =
      config.count_weak_ties_in_cost ? -1.0 : config.theta_threshold;
  std::vector<std::vector<double>> member_base(m);
  for (std::size_t k = 0; k < m; ++k) {
    const sim::Arrival& a = batch[clique[k]];
    for (ApId ap : a.candidates) {
      member_base[k].push_back(
          reference_social_cost(model, scratch, a.user, ap, threshold));
    }
  }
  std::vector<double> theta(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double th = model.theta(batch[clique[i]].user,
                                    batch[clique[j]].user);
      theta[i * m + j] = th;
      theta[j * m + i] = th;
    }
  }

  auto extend_cost = [&](const ReferenceDistribution& d, std::size_t k,
                         std::size_t c,
                         std::unordered_map<ApId, double>& added) {
    const sim::Arrival& a = batch[clique[k]];
    const ApId ap = a.candidates[c];
    added.clear();
    for (std::size_t p = 0; p < k; ++p) {
      added[batch[clique[p]].candidates[d.choice[p]]] +=
          batch[clique[p]].demand_mbps;
    }
    if (config.respect_bandwidth &&
        scratch.headroom_mbps(ap) - added[ap] < a.demand_mbps) {
      return kInf;
    }
    double cost = member_base[k][c];
    for (std::size_t p = 0; p < k; ++p) {
      if (batch[clique[p]].candidates[d.choice[p]] == ap) {
        cost += theta[k * m + p];
      }
    }
    return cost;
  };

  double space = 1.0;
  for (std::size_t k = 0; k < m; ++k) {
    space *= static_cast<double>(batch[clique[k]].candidates.size());
    if (space > 1e18) break;
  }
  const bool exact = space <= static_cast<double>(config.enumeration_limit);
  ++(exact ? out.stats.exact_enumerations : out.stats.beam_searches);
  // Beam levels rank by (cost, parent position, candidate); leaves by
  // (cost, position in the final level), which for the exact search is
  // the lexicographic index.
  const auto node_before = [](const ReferenceDistribution& a,
                              const ReferenceDistribution& b) {
    return std::tie(a.cost, a.parent, a.choice.back()) <
           std::tie(b.cost, b.parent, b.choice.back());
  };
  const auto leaf_before = [](const ReferenceDistribution& a,
                              const ReferenceDistribution& b) {
    return std::tie(a.cost, a.position) < std::tie(b.cost, b.position);
  };
  std::vector<ReferenceDistribution> frontier{ReferenceDistribution{}};
  std::unordered_map<ApId, double> added;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t n_cand = batch[clique[k]].candidates.size();
    std::vector<ReferenceDistribution> next;
    for (std::size_t q = 0; q < frontier.size(); ++q) {
      const ReferenceDistribution& d = frontier[q];
      for (std::size_t c = 0; c < n_cand; ++c) {
        const double step = extend_cost(d, k, c, added);
        ReferenceDistribution e = d;
        e.parent = q;
        e.choice.push_back(c);
        if (step == kInf) {
          e.feasible = false;
          e.cost = kInf;
        } else if (e.feasible) {
          e.cost += step;
        }
        next.push_back(std::move(e));
      }
    }
    out.distributions += next.size();
    if (!exact && next.size() > config.beam_width) {
      std::sort(next.begin(), next.end(), node_before);
      next.resize(config.beam_width);
    }
    frontier = std::move(next);
  }

  std::vector<ReferenceDistribution> feasible;
  for (std::size_t q = 0; q < frontier.size(); ++q) {
    if (!frontier[q].feasible) continue;
    feasible.push_back(std::move(frontier[q]));
    feasible.back().position = q;
  }
  if (feasible.empty()) {
    sim::ApLoadTracker local = scratch;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::Arrival& a = batch[clique[k]];
      const ApId ap = single.select_one(a, local);
      local.associate(a.session_index, ap, a.user, a.demand_mbps);
      out.placements[clique[k]] = ap;
    }
    return;
  }

  std::sort(feasible.begin(), feasible.end(), leaf_before);
  std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             static_cast<double>(feasible.size()) * config.top_fraction)));
  while (keep < feasible.size() &&
         feasible[keep].cost <= feasible[keep - 1].cost + 1e-12) {
    ++keep;
  }
  const auto domain = net.aps_of_controller(batch[clique[0]].controller);
  std::vector<double> loads_base(domain.size());
  std::unordered_map<ApId, std::size_t> domain_index;
  for (std::size_t i = 0; i < domain.size(); ++i) {
    loads_base[i] = scratch.demand_mbps(domain[i]);
    domain_index.emplace(domain[i], i);
  }
  const ReferenceDistribution* best = &feasible.front();
  double best_beta = -1.0;
  for (std::size_t i = 0; i < keep; ++i) {
    std::vector<double> loads_tmp = loads_base;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::Arrival& a = batch[clique[k]];
      const auto it = domain_index.find(a.candidates[feasible[i].choice[k]]);
      if (it != domain_index.end()) loads_tmp[it->second] += a.demand_mbps;
    }
    const double beta = analysis::normalized_balance_index(loads_tmp);
    if (beta > best_beta) {
      best_beta = beta;
      best = &feasible[i];
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    out.placements[clique[k]] =
        batch[clique[k]].candidates[best->choice[k]];
  }
}

/// S3Selector::place_batch as it was before the flat search: the
/// tracker copied on every call, each clique committed into the copy.
ReferenceOutcome reference_place(const wlan::Network& net,
                                 const social::ThetaProvider& model,
                                 const S3Config& config,
                                 const std::vector<sim::Arrival>& batch,
                                 const sim::ApLoadTracker& loads) {
  ReferenceOutcome out;
  out.placements.assign(batch.size(), kInvalidAp);
  out.stats.batches = 1;
  const std::size_t n = out.placements.size();
  social::WeightedGraph graph(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double th = model.theta(batch[i].user, batch[j].user);
      if (th > config.theta_threshold) graph.add_edge(i, j, th);
    }
  }
  const social::CliqueCoverResult cover =
      social::clique_cover(graph, config.clique);
  out.cliques = cover.cliques.size();
  // The single-user path (select_one, shared with the code under test)
  // places singles and serves the all-infeasible fallback.
  S3Selector single(&net, &model, config);
  sim::ApLoadTracker scratch = loads;
  for (const std::vector<std::size_t>& clique : cover.cliques) {
    if (clique.size() == 1) {
      ++out.stats.singles;
      out.placements[clique[0]] = single.select_one(batch[clique[0]], scratch);
    } else {
      ++out.stats.cliques;
      out.stats.clique_members += clique.size();
      out.stats.largest_clique =
          std::max(out.stats.largest_clique, clique.size());
      reference_clique(net, model, config, batch, clique, scratch, single,
                       out);
    }
    for (const std::size_t i : clique) {
      scratch.associate(batch[i].session_index, out.placements[i],
                        batch[i].user, batch[i].demand_mbps);
    }
  }
  out.stats.bandwidth_fallbacks = single.stats().bandwidth_fallbacks;
  return out;
}

void expect_same_stats(const S3Stats& got, const S3Stats& want) {
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.singles, want.singles);
  EXPECT_EQ(got.cliques, want.cliques);
  EXPECT_EQ(got.clique_members, want.clique_members);
  EXPECT_EQ(got.largest_clique, want.largest_clique);
  EXPECT_EQ(got.exact_enumerations, want.exact_enumerations);
  EXPECT_EQ(got.beam_searches, want.beam_searches);
  EXPECT_EQ(got.bandwidth_fallbacks, want.bandwidth_fallbacks);
  EXPECT_EQ(got.empty_candidate_fallbacks, want.empty_candidate_fallbacks);
  EXPECT_EQ(got.degraded_batches, want.degraded_batches);
  EXPECT_EQ(got.inexact_covers, want.inexact_covers);
}

/// One family of random single-clique batches.
struct DiffCase {
  std::size_t aps = 6;
  double capacity = 20.0;
  std::size_t max_members = 5;
  std::size_t max_candidates = 5;
  std::size_t residents = 10;
  double max_resident_demand = 3.0;
  double min_demand = 0.2;
  double max_demand = 2.0;
  /// Zero θ to residents, one θ inside the clique, one demand: cost
  /// and β′ ties everywhere.
  bool zero_theta = false;
  /// θ drawn from {0, 0.5, 1}: frequent exact cost ties.
  bool quantized_theta = false;
  /// One member demands more than any AP holds: no feasible
  /// distribution, so the member-by-member fallback runs.
  bool oversized_member = false;
  /// Demands in tenths of a Mbit/s: sums land on the capacity, where
  /// the rounding of the added-demand sums decides feasibility.
  bool decimal_demands = false;
  /// Batch pairs drawn across the 0.3 edge threshold: covers of several
  /// cliques and singles, each placed against the earlier commits.
  bool several_cliques = false;
  S3Config config{};
};

/// Paths the flat search took over a DiffCase run.
struct DiffCoverage {
  std::size_t exact = 0;
  std::size_t beam = 0;
  std::size_t fallbacks = 0;
  std::size_t multi_clique_batches = 0;
};

DiffCoverage run_differential(const DiffCase& dc, std::uint64_t seed,
                              int trials) {
  wlan::CampusLayout layout;
  layout.num_buildings = 1;
  layout.aps_per_building = dc.aps;
  layout.ap_capacity_mbps = dc.capacity;
  const wlan::Network net = wlan::make_campus(layout);
  util::Counter* const distributions =
      util::metrics().counter("core.s3.distributions_enumerated");
  util::Rng rng(seed);
  DiffCoverage coverage;
  // Placements are compared from a fresh selector and from one warm
  // selector reused across trials (state leaking between calls would
  // show there).
  TableTheta warm_model(dc.max_members + dc.residents);
  S3Selector warm(&net, &warm_model, dc.config);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t m = 2 + rng.index(dc.max_members - 1);
    const std::size_t n = m + dc.residents;
    TableTheta model(n);
    auto draw = [&](double lo) {
      if (dc.quantized_theta) return 0.5 * static_cast<double>(rng.index(3));
      return rng.uniform(lo, 1.0);
    };
    for (UserId u = 0; u < m; ++u) {
      for (UserId v = u + 1; v < m; ++v) {
        // Every batch pair above the 0.3 edge threshold: one clique
        // (unless several_cliques).
        double th = dc.zero_theta ? 0.5 : std::max(0.31, draw(0.31));
        if (dc.several_cliques) th = draw(0.0);
        model.set(u, v, th);
      }
      for (UserId r = static_cast<UserId>(m); r < n; ++r) {
        model.set(u, r, dc.zero_theta ? 0.0 : draw(0.0));
      }
    }
    sim::ApLoadTracker loads(net);
    for (std::size_t r = 0; r < dc.residents; ++r) {
      loads.associate(1000 + r, static_cast<ApId>(rng.index(dc.aps)),
                      static_cast<UserId>(m + r),
                      dc.zero_theta ? 1.0
                                    : rng.uniform(0.1, dc.max_resident_demand));
    }
    std::vector<sim::Arrival> batch;
    for (UserId u = 0; u < m; ++u) {
      std::vector<ApId> aps(dc.aps);
      for (std::size_t a = 0; a < dc.aps; ++a) aps[a] = static_cast<ApId>(a);
      for (std::size_t a = aps.size(); a > 1; --a) {
        std::swap(aps[a - 1], aps[rng.index(a)]);
      }
      aps.resize(1 + rng.index(std::min(dc.max_candidates, dc.aps)));
      double demand = rng.uniform(dc.min_demand, dc.max_demand);
      if (dc.zero_theta) demand = 1.0;
      if (dc.decimal_demands) {
        demand = 0.1 * static_cast<double>(1 + rng.index(6));
      }
      batch.push_back(arrival(u, u, std::move(aps), demand));
    }
    if (dc.oversized_member) {
      batch[rng.index(m)].demand_mbps = dc.capacity + 1.0;
    }

    const ReferenceOutcome want =
        reference_place(net, model, dc.config, batch, loads);
    if (!dc.several_cliques) {
      EXPECT_EQ(want.cliques, 1u) << "trial " << trial;
    }

    S3Selector fresh(&net, &model, dc.config);
    const std::uint64_t before = distributions->value();
    const sim::BatchResult got = fresh.place_batch({batch}, loads);
    EXPECT_EQ(distributions->value() - before, want.distributions)
        << "trial " << trial;
    EXPECT_EQ(got.placements, want.placements) << "trial " << trial;
    expect_same_stats(fresh.stats(), want.stats);

    warm_model = model;
    EXPECT_EQ(warm.place_batch({batch}, loads).placements, want.placements)
        << "trial " << trial << " (warm selector)";

    coverage.exact += want.stats.exact_enumerations;
    coverage.beam += want.stats.beam_searches;
    coverage.fallbacks += want.stats.bandwidth_fallbacks > 0 ? 1 : 0;
    coverage.multi_clique_batches += want.cliques > 1 ? 1 : 0;
  }
  return coverage;
}

TEST(S3SelectorDifferential, ExactMatchesReference) {
  const DiffCoverage cov = run_differential(DiffCase{}, 11, 300);
  EXPECT_EQ(cov.exact, 300u);
}

TEST(S3SelectorDifferential, BeamMatchesReference) {
  DiffCase dc;
  dc.max_members = 7;
  dc.max_candidates = 4;
  dc.config.enumeration_limit = 8;
  dc.config.beam_width = 5;
  const DiffCoverage cov = run_differential(dc, 12, 300);
  EXPECT_GT(cov.beam, 200u);
}

TEST(S3SelectorDifferential, BandwidthInfeasibleMembersMatchReference) {
  // Tight APs: many prefixes break Σ w(u) ≤ W(i), in both search modes.
  DiffCase dc;
  dc.capacity = 6.0;
  dc.min_demand = 0.5;
  dc.max_demand = 3.5;
  dc.max_resident_demand = 2.0;
  dc.max_members = 6;
  (void)run_differential(dc, 13, 300);
  dc.config.enumeration_limit = 16;
  dc.config.beam_width = 4;
  const DiffCoverage cov = run_differential(dc, 14, 300);
  EXPECT_GT(cov.beam, 0u);
}

TEST(S3SelectorDifferential, DemandRoundingAtCapacityMatchesReference) {
  // 1 Mbit/s APs, demands in tenths, few candidates: members pile up
  // on shared APs and each prefix's feasibility turns on how its
  // added demand was summed.
  DiffCase dc;
  dc.capacity = 1.0;
  dc.residents = 0;
  dc.decimal_demands = true;
  dc.aps = 3;
  dc.max_candidates = 3;
  dc.max_members = 7;
  (void)run_differential(dc, 22, 400);
}

TEST(S3SelectorDifferential, AllInfeasibleFallbackMatchesReference) {
  DiffCase dc;
  dc.oversized_member = true;
  const DiffCoverage cov = run_differential(dc, 15, 200);
  EXPECT_EQ(cov.fallbacks, 200u);
  dc.config.enumeration_limit = 8;
  dc.config.beam_width = 3;
  EXPECT_EQ(run_differential(dc, 16, 200).fallbacks, 200u);
}

TEST(S3SelectorDifferential, WeakTiesInCostMatchReference) {
  DiffCase dc;
  dc.config.count_weak_ties_in_cost = true;
  (void)run_differential(dc, 17, 300);
  dc.config.enumeration_limit = 10;
  dc.config.beam_width = 6;
  (void)run_differential(dc, 18, 300);
}

TEST(S3SelectorDifferential, TopFractionBoundaryTiesMatchReference) {
  DiffCase dc;
  dc.quantized_theta = true;
  dc.max_candidates = 6;
  for (const double fraction : {0.01, 0.1, 0.3, 0.5, 1.0}) {
    dc.config.top_fraction = fraction;
    (void)run_differential(dc, 19, 120);
  }
}

TEST(S3SelectorDifferential, SeveralCliquesMatchReference) {
  // Singles and cliques of one batch, each against the earlier
  // commits: the tracker copy is made only for these batches.
  DiffCase dc;
  dc.several_cliques = true;
  dc.max_members = 8;
  dc.capacity = 8.0;
  const DiffCoverage cov = run_differential(dc, 23, 400);
  EXPECT_GT(cov.multi_clique_batches, 200u);
  dc.config.enumeration_limit = 12;
  dc.config.beam_width = 4;
  (void)run_differential(dc, 24, 200);
}

TEST(S3SelectorDifferential, ManyStationedCandidatesMatchReference) {
  // Members hear up to 12 APs that nearly all carry stations: each
  // member's C(AP) for every candidate comes from one θ row over all
  // their stations, and must equal the reference's per-AP sum.
  DiffCase dc;
  dc.aps = 12;
  dc.max_candidates = 12;
  dc.residents = 72;
  dc.max_resident_demand = 0.5;
  dc.capacity = 40.0;
  const DiffCoverage cov = run_differential(dc, 25, 150);
  EXPECT_GT(cov.exact, 0u);
  EXPECT_GT(cov.beam, 0u);
  dc.several_cliques = true;
  (void)run_differential(dc, 26, 150);
}

TEST(S3SelectorDifferential, ZeroThetaMassiveTiesMatchReference) {
  // Equal costs and equal β′ everywhere: the winner is the first
  // distribution in (cost, index) order, so this pins the tie rule.
  DiffCase dc;
  dc.zero_theta = true;
  dc.max_candidates = 6;
  dc.residents = 4;
  (void)run_differential(dc, 20, 300);
  dc.config.enumeration_limit = 30;
  dc.config.beam_width = 7;
  (void)run_differential(dc, 21, 300);
}

// ---- Property: the tie rule belongs to the order, not the input ----
//
// S3Selector selects its kept leaves and reduces beam levels with
// nth_element; the leaves and nodes may arrive in any order. Whatever
// that order, the kept set, the β′ winner and a reduced level must be
// those of a full sort under the total order followed by the boundary
// walk and the first-max β′ scan.

/// One leaf family: n leaves with unique indices, their costs and a β′
/// per index.
struct LeafSet {
  std::vector<detail::Leaf> leaves;
  std::vector<double> beta;  ///< by leaf index
};

enum class LeafFamily { kZeroTheta, kBoundaryEps, kQuantized };

LeafSet make_leaf_set(LeafFamily family, util::Rng& rng) {
  LeafSet set;
  const std::size_t n = 1 + rng.index(120);
  // Indices are a sparse increasing subset, as feasible leaves are.
  std::size_t index = rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    double cost = 0.0;
    switch (family) {
      case LeafFamily::kZeroTheta:
        break;  // every cost 0: the zero-θ family
      case LeafFamily::kBoundaryEps:
        // Costs a fraction of kCostEps apart, in chains the keep walk
        // must follow past the boundary.
        cost = 0.25 + static_cast<double>(rng.index(40)) * 0.3 *
                          detail::kCostEps;
        break;
      case LeafFamily::kQuantized:
        cost = 0.5 * static_cast<double>(rng.index(4));
        break;
    }
    set.leaves.push_back({cost, index});
    index += 1 + rng.index(3);
  }
  set.beta.resize(index);
  for (double& b : set.beta) b = 0.25 * static_cast<double>(rng.index(3));
  return set;
}

/// The reference: full sort under (cost, index), the walk across cost
/// ties at the boundary, the first leaf of largest β′.
std::pair<std::vector<std::size_t>, std::size_t> reference_keep(
    std::vector<detail::Leaf> leaves, double top_fraction,
    const std::vector<double>& beta) {
  std::sort(leaves.begin(), leaves.end(),
            [](const detail::Leaf& a, const detail::Leaf& b) {
              return std::tie(a.cost, a.index) < std::tie(b.cost, b.index);
            });
  std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             static_cast<double>(leaves.size()) * top_fraction)));
  while (keep < leaves.size() &&
         leaves[keep].cost <= leaves[keep - 1].cost + detail::kCostEps) {
    ++keep;
  }
  std::vector<std::size_t> kept;
  std::size_t winner = leaves.front().index;
  double best = -1.0;
  for (std::size_t i = 0; i < keep; ++i) {
    kept.push_back(leaves[i].index);
    if (beta[leaves[i].index] > best) {
      best = beta[leaves[i].index];
      winner = leaves[i].index;
    }
  }
  std::sort(kept.begin(), kept.end());
  return {kept, winner};
}

TEST(S3DistributionRank, KeptSetAndWinnerIgnoreInputOrder) {
  util::Rng rng(31);
  std::size_t boundary_extensions = 0;
  std::size_t beta_ties = 0;
  for (const LeafFamily family : {LeafFamily::kZeroTheta,
                                  LeafFamily::kBoundaryEps,
                                  LeafFamily::kQuantized}) {
    for (const double fraction : {0.01, 0.1, 0.3, 0.5, 1.0}) {
      for (int trial = 0; trial < 60; ++trial) {
        LeafSet set = make_leaf_set(family, rng);
        const auto [want_kept, want_winner] =
            reference_keep(set.leaves, fraction, set.beta);
        const std::size_t plain = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   static_cast<double>(set.leaves.size()) * fraction)));
        boundary_extensions += want_kept.size() > plain ? 1 : 0;
        std::size_t at_best = 0;
        for (const std::size_t i : want_kept) {
          at_best += set.beta[i] == set.beta[want_winner] ? 1 : 0;
        }
        beta_ties += at_best > 1 ? 1 : 0;
        for (int shuffle = 0; shuffle < 6; ++shuffle) {
          for (std::size_t i = set.leaves.size(); i > 1; --i) {
            std::swap(set.leaves[i - 1], set.leaves[rng.index(i)]);
          }
          std::vector<detail::Leaf> leaves = set.leaves;
          const std::size_t keep = detail::keep_cheapest(leaves, fraction);
          const std::span<const detail::Leaf> kept =
              std::span<const detail::Leaf>(leaves).first(keep);
          std::vector<std::size_t> got_kept;
          for (const detail::Leaf& leaf : kept) got_kept.push_back(leaf.index);
          std::sort(got_kept.begin(), got_kept.end());
          ASSERT_EQ(got_kept, want_kept) << "fraction " << fraction;
          const detail::Leaf& winner = detail::best_balanced(
              kept, [&](const detail::Leaf& l) { return set.beta[l.index]; });
          ASSERT_EQ(winner.index, want_winner) << "fraction " << fraction;
        }
      }
    }
  }
  // The families reach the cases the rule exists for.
  EXPECT_GT(boundary_extensions, 100u);
  EXPECT_GT(beta_ties, 100u);
}

TEST(S3DistributionRank, ReducedBeamLevelIgnoresInputOrder) {
  util::Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    // One level in generation order: parents ascending, candidates
    // ascending within a parent; few distinct costs, some infeasible.
    std::vector<detail::BeamNode> level;
    const std::size_t parents = 1 + rng.index(30);
    const std::size_t candidates = 1 + rng.index(8);
    const std::size_t first_parent = rng.index(100);
    for (std::size_t q = 0; q < parents; ++q) {
      for (std::size_t c = 0; c < candidates; ++c) {
        const bool feasible = !rng.bernoulli(0.2);
        const double cost =
            feasible ? 0.5 * static_cast<double>(rng.index(3))
                     : std::numeric_limits<double>::infinity();
        level.push_back({cost, first_parent + q, c, feasible});
      }
    }
    const std::size_t width = 1 + rng.index(level.size() + 4);
    std::vector<detail::BeamNode> want = level;
    if (want.size() > width) {
      std::sort(want.begin(), want.end(),
                [](const detail::BeamNode& a, const detail::BeamNode& b) {
                  return std::tie(a.cost, a.parent, a.candidate) <
                         std::tie(b.cost, b.parent, b.candidate);
                });
      want.resize(width);
    }
    const auto key = [](const std::vector<detail::BeamNode>& nodes) {
      std::vector<std::tuple<double, std::size_t, std::size_t>> out;
      for (const auto& n : nodes) {
        out.emplace_back(n.cost, n.parent, n.candidate);
      }
      return out;
    };
    if (level.size() <= width) {
      // A level that fits keeps generation order.
      std::vector<detail::BeamNode> got = level;
      detail::reduce_level(got, width);
      ASSERT_EQ(key(got), key(want));
      continue;
    }
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      std::vector<detail::BeamNode> got = level;
      for (std::size_t i = got.size(); i > 1; --i) {
        std::swap(got[i - 1], got[rng.index(i)]);
      }
      detail::reduce_level(got, width);
      got.resize(width);
      ASSERT_EQ(key(got), key(want)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace s3::core
