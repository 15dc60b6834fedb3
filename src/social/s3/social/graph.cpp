#include "s3/social/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "s3/social/social_index.h"

namespace s3::social {

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
    const ThetaProvider& model, double threshold, bool strict,
    const std::function<void(UserId, UserId, double)>& fn) {
  const std::size_t n = model.num_users();
  if (n < 2) return;
  const auto clears = [&](double th) {
    return std::isfinite(th) && (strict ? th > threshold : th >= threshold);
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
  for_each_theta_edge(model, threshold, /*strict=*/false,
                      [&](UserId u, UserId v, double th) {
                        graph.add_edge(u, v, th);
                      });
  return graph;
}

}  // namespace s3::social
