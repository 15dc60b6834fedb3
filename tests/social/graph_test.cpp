#include "s3/social/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "s3/social/social_index.h"

namespace s3::social {
namespace {

TEST(WeightedGraph, EdgesAndWeights) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 0.5);
  g.add_edge(1, 2, 0.9);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));  // undirected
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.weight(1, 0), 0.5);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(WeightedGraph, RejectsSelfLoopAndBadVertices) {
  WeightedGraph g(3);
  EXPECT_THROW(g.add_edge(1, 1, 0.5), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 3, 0.5), std::invalid_argument);
  EXPECT_THROW(g.adjacent(0, 9), std::invalid_argument);
}

TEST(WeightedGraph, InternalWeight) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 0.5);
  g.add_edge(1, 2, 0.9);
  g.add_edge(0, 2, 0.4);
  EXPECT_DOUBLE_EQ(g.internal_weight({0, 1, 2}), 1.8);
  EXPECT_DOUBLE_EQ(g.internal_weight({0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(g.internal_weight({0, 3}), 0.0);
}

TEST(WeightedGraph, IsClique) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  EXPECT_TRUE(g.is_clique({0, 1, 2}));
  EXPECT_TRUE(g.is_clique({0, 1}));
  EXPECT_TRUE(g.is_clique({3}));
  EXPECT_FALSE(g.is_clique({0, 1, 3}));
}

TEST(WeightedGraph, NeighborsSortedById) {
  WeightedGraph g(6);
  g.add_edge(4, 5, 0.9);
  g.add_edge(1, 5, 0.5);
  g.add_edge(3, 5, 0.7);
  g.add_edge(5, 0, 0.3);
  std::vector<UserId> ids;
  std::vector<double> weights;
  for (const Neighbor& nb : g.neighbors(5)) {
    ids.push_back(nb.id);
    weights.push_back(nb.weight);
  }
  EXPECT_EQ(ids, (std::vector<UserId>{0, 1, 3, 4}));
  EXPECT_EQ(weights, (std::vector<double>{0.3, 0.5, 0.7, 0.9}));
  const std::span<const Neighbor> n = g.neighbors(3);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0].id, 5u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(WeightedGraph, ReAddingAnEdgeOverwritesItsWeight) {
  WeightedGraph g(3);
  g.add_edge(0, 2, 0.4);
  g.add_edge(2, 0, 0.8);
  g.add_edge(0, 2, 0.6);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_DOUBLE_EQ(g.weight(0, 2), 0.6);
  EXPECT_DOUBLE_EQ(g.weight(2, 0), 0.6);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.0);  // not an edge
}

/// θ(0, 1) sits exactly on 0.3 and θ(1, 2) one ulp above it.
class ThresholdTheta final : public ThetaProvider {
 public:
  double theta(UserId u, UserId v) const override {
    const auto [a, b] = std::minmax(u, v);
    if (a == 0 && b == 1) return 0.3;
    if (a == 1 && b == 2) return std::nextafter(0.3, 1.0);
    return 0.0;
  }
  std::size_t num_users() const override { return 3; }
};

// Every θ graph draws an edge at θ > threshold, the paper's "edges at
// θ > 0.3": a pair exactly at the threshold gets none.
TEST(ThetaGraph, PairAtExactlyTheThresholdGetsNoEdge) {
  const ThresholdTheta theta;
  const WeightedGraph g = build_theta_graph(theta, 0.3);
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 2));
  EXPECT_EQ(g.num_edges(), 1u);

  std::vector<std::pair<UserId, UserId>> walked;
  for_each_theta_edge(theta, 0.3, [&](UserId u, UserId v, double /*th*/) {
    walked.emplace_back(u, v);
  });
  EXPECT_EQ(walked, (std::vector<std::pair<UserId, UserId>>{{1, 2}}));
}

}  // namespace
}  // namespace s3::social
