#include "s3/social/graph.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace s3::social {
namespace {

TEST(Bitset, SetResetTest) {
  Bitset b(100);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, FirstBit) {
  Bitset b(130);
  EXPECT_EQ(b.first(), 130u);  // empty -> capacity
  b.set(90);
  b.set(120);
  EXPECT_EQ(b.first(), 90u);
  b.set(5);
  EXPECT_EQ(b.first(), 5u);
}

TEST(Bitset, Intersection) {
  Bitset a(70), b(70);
  a.set(3);
  a.set(65);
  a.set(20);
  b.set(65);
  b.set(20);
  b.set(1);
  const Bitset c = a & b;
  EXPECT_EQ(c.count(), 2u);
  EXPECT_TRUE(c.test(65));
  EXPECT_TRUE(c.test(20));
  EXPECT_FALSE(c.test(3));
}

TEST(Bitset, ForEachSetVisitsBitsInAscendingOrder) {
  Bitset b(130);
  for (std::size_t i : {129u, 0u, 64u, 63u, 65u, 7u}) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 7, 63, 64, 65, 129}));

  seen.clear();
  Bitset(70).for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST(Bitset, BoundsChecked) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), std::invalid_argument);
  EXPECT_THROW(b.test(10), std::invalid_argument);
  Bitset other(11);
  EXPECT_THROW(b &= other, std::invalid_argument);
}

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

}  // namespace
}  // namespace s3::social
