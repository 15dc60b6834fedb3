#include "s3/social/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "s3/social/social_index.h"

namespace s3::social {

namespace {

/// Puts (id, weight) into a list sorted by id: appends when id is above
/// every entry, overwrites an entry with that id, inserts otherwise.
/// Returns false when it overwrote.
bool put(std::vector<Neighbor>& list, UserId id, double weight) {
  if (list.empty() || list.back().id < id) {
    list.push_back({id, weight});
    return true;
  }
  const auto it = std::lower_bound(list.begin(), list.end(), id, id_below);
  if (it->id == id) {
    it->weight = weight;
    return false;
  }
  list.insert(it, {id, weight});
  return true;
}

}  // namespace

const Neighbor* find_neighbor(std::span<const Neighbor> list, UserId id) {
  const auto it = std::lower_bound(list.begin(), list.end(), id, id_below);
  return it != list.end() && it->id == id ? &*it : nullptr;
}

WeightedGraph::WeightedGraph(std::size_t n) : adj_(n) {
  S3_REQUIRE(n < kInvalidUser, "WeightedGraph: too many vertices for UserId");
}

void WeightedGraph::add_edge(std::size_t u, std::size_t v, double weight) {
  S3_REQUIRE(u < size() && v < size(), "add_edge: vertex out of range");
  S3_REQUIRE(u != v, "add_edge: self loop");
  const bool inserted = put(adj_[u], static_cast<UserId>(v), weight);
  put(adj_[v], static_cast<UserId>(u), weight);
  if (inserted) ++num_edges_;
}

bool WeightedGraph::adjacent(std::size_t u, std::size_t v) const {
  S3_REQUIRE(u < size() && v < size(), "adjacent: vertex out of range");
  return find_neighbor(adj_[u], static_cast<UserId>(v)) != nullptr;
}

double WeightedGraph::weight(std::size_t u, std::size_t v) const {
  S3_REQUIRE(u < size() && v < size(), "weight: vertex out of range");
  const Neighbor* edge = find_neighbor(adj_[u], static_cast<UserId>(v));
  return edge != nullptr ? edge->weight : 0.0;
}

double WeightedGraph::internal_weight(
    const std::vector<std::size_t>& vertices) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (adjacent(vertices[i], vertices[j])) {
        sum += weight(vertices[i], vertices[j]);
      }
    }
  }
  return sum;
}

bool WeightedGraph::is_clique(const std::vector<std::size_t>& vertices) const {
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (!adjacent(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

void for_each_theta_edge(
    const ThetaProvider& model, double threshold,
    const std::function<void(UserId, UserId, double)>& fn) {
  const std::size_t n = model.num_users();
  if (n < 2) return;
  const auto clears = [&](double th) {
    return std::isfinite(th) && th > threshold;
  };

  // Pruned path: when the type prior alone cannot clear the threshold,
  // a pair without recorded history has θ = α·T ≤ max_type_term <
  // threshold — so only the store's recorded pairs can produce edges,
  // and the neighbor index enumerates exactly those, each once from its
  // smaller endpoint, in the dense walk's (u, v) order.
  if (const auto* indexed = dynamic_cast<const SocialIndexModel*>(&model);
      indexed != nullptr && indexed->pair_stats().has_neighbor_index() &&
      indexed->max_type_term() < threshold) {
    for (UserId u = 0; u + 1 < n; ++u) {
      for (UserId v : indexed->pair_stats().partners_above(u)) {
        const double th = indexed->theta(u, v);
        if (clears(th)) fn(u, v, th);
      }
    }
    return;
  }

  std::vector<UserId> ids(n);
  std::iota(ids.begin(), ids.end(), UserId{0});
  std::vector<double> row(n, 0.0);
  for (std::size_t u = 0; u + 1 < n; ++u) {
    const std::span<const UserId> vs =
        std::span<const UserId>(ids).subspan(u + 1);
    const std::span<double> out = std::span<double>(row).first(vs.size());
    model.theta_row(static_cast<UserId>(u), vs, out);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (clears(out[i])) fn(static_cast<UserId>(u), vs[i], out[i]);
    }
  }
}

WeightedGraph build_theta_graph(const ThetaProvider& model, double threshold) {
  WeightedGraph graph(model.num_users());
  for_each_theta_edge(model, threshold, [&](UserId u, UserId v, double th) {
    graph.add_edge(u, v, th);
  });
  return graph;
}

}  // namespace s3::social
