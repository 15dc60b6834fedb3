#include "s3/social/clique_maintainer.h"

#include <algorithm>
#include <cmath>

namespace s3::social {

CliqueMaintainer::CliqueMaintainer(std::size_t num_users,
                                   CliqueMaintainerConfig config)
    : config_(config) {
  S3_REQUIRE(config_.theta_threshold >= 0.0,
             "CliqueMaintainer: negative threshold");
  adj_.assign(num_users, {});
  // seeded_ stays false: the first sync() against a provider must
  // reseed — this constructor mirrors nothing.
}

void CliqueMaintainer::reset_from(const ThetaProvider& model) {
  adj_.assign(model.num_users(), {});
  num_edges_ = 0;
  cover_valid_ = false;
  for_each_theta_edge(model, config_.theta_threshold,
                      [this](UserId u, UserId v, double th) {
                        insert_edge(u, v, th);
                      });
  seeded_ = true;
  ++stats_.reseeds;
}

bool CliqueMaintainer::sync(const LiveSocialModel& model) {
  const bool seeded = seeded_ && adj_.size() == model.num_users();
  if (!seeded) reset_from(model.base());
  model.for_each_live_theta([this](UserPair pair, double theta) {
    ++stats_.deltas_applied;
    set_theta(pair.a, pair.b, theta);
  });
  return seeded;
}

void CliqueMaintainer::set_theta(UserId u, UserId v, double theta) {
  S3_REQUIRE(u < adj_.size() && v < adj_.size(),
             "CliqueMaintainer::set_theta: user out of range");
  S3_REQUIRE(u != v, "CliqueMaintainer::set_theta: self pair");
  const bool want =
      std::isfinite(theta) && theta > config_.theta_threshold;
  std::vector<Neighbor>& lu = adj_[u];
  const auto it = std::lower_bound(lu.begin(), lu.end(), v, id_below);
  const bool have = it != lu.end() && it->id == v;
  if (!have) {
    if (!want) return;
    insert_edge(u, v, theta);
    ++stats_.edges_inserted;
    cover_valid_ = false;
    return;
  }
  if (want && it->weight == theta) return;  // exact no-op: cover stays
  std::vector<Neighbor>& lv = adj_[v];
  const auto back = std::lower_bound(lv.begin(), lv.end(), u, id_below);
  S3_ASSERT(back != lv.end() && back->id == u,
            "CliqueMaintainer: asymmetric adjacency");
  if (want) {
    it->weight = theta;
    back->weight = theta;
    ++stats_.edges_reweighted;
  } else {
    lu.erase(it);
    lv.erase(back);
    --num_edges_;
    ++stats_.edges_removed;
  }
  cover_valid_ = false;
}

void CliqueMaintainer::insert_edge(UserId u, UserId v, double theta) {
  const auto put = [](std::vector<Neighbor>& list, UserId id, double w) {
    const auto it = std::lower_bound(list.begin(), list.end(), id, id_below);
    S3_ASSERT(it == list.end() || it->id != id,
              "CliqueMaintainer: duplicate edge insert");
    list.insert(it, Neighbor{id, w});
  };
  put(adj_[u], v, theta);
  put(adj_[v], u, theta);
  ++num_edges_;
}

bool CliqueMaintainer::has_edge(UserId u, UserId v) const {
  S3_REQUIRE(u < adj_.size() && v < adj_.size(),
             "CliqueMaintainer::has_edge: user out of range");
  return find_neighbor(adj_[u], v) != nullptr;
}

double CliqueMaintainer::edge_weight(UserId u, UserId v) const {
  S3_REQUIRE(u < adj_.size() && v < adj_.size(),
             "CliqueMaintainer::edge_weight: user out of range");
  const Neighbor* edge = find_neighbor(adj_[u], v);
  return edge != nullptr ? edge->weight : 0.0;
}

std::span<const CliqueMaintainer::Neighbor> CliqueMaintainer::neighbors(
    UserId u) const {
  S3_REQUIRE(u < adj_.size(), "CliqueMaintainer::neighbors: out of range");
  return adj_[u];
}

void CliqueMaintainer::solve_component(std::vector<UserId>& members) {
  ++stats_.components_solved;
  if (members.size() == 1) {
    // An isolated user is its own clique; no search runs.
    cover_.cliques.push_back({static_cast<std::size_t>(members.front())});
    return;
  }
  std::sort(members.begin(), members.end());
  // The component's induced graph in local ids. The lists ascend and the
  // local -> global map is monotonic, so edges arrive in ascending
  // (i, j) order and every add_edge appends.
  WeightedGraph g(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (const Neighbor& nb : adj_[members[i]]) {
      if (nb.id <= members[i]) continue;
      const auto it = std::lower_bound(members.begin(), members.end(), nb.id);
      S3_ASSERT(it != members.end() && *it == nb.id,
                "CliqueMaintainer: edge leaves its component");
      g.add_edge(i, static_cast<std::size_t>(it - members.begin()),
                 nb.weight);
    }
  }
  const CliqueCoverResult local = clique_cover(g, config_.clique);
  cover_.exact = cover_.exact && local.exact;
  cover_.nodes_explored += local.nodes_explored;
  for (const std::vector<std::size_t>& clique : local.cliques) {
    // The local -> global map is monotonic, so cliques stay ascending.
    std::vector<std::size_t>& global = cover_.cliques.emplace_back();
    global.reserve(clique.size());
    for (const std::size_t v : clique) global.push_back(members[v]);
  }
}

const CliqueCoverResult& CliqueMaintainer::cover() {
  ++stats_.cover_queries;
  if (cover_valid_) return cover_;
  // BFS from ascending roots: the first unvisited vertex of each
  // component is its minimum, so components are solved in
  // ascending-minimum-vertex order.
  cover_ = CliqueCoverResult{};
  std::vector<bool> visited(adj_.size(), false);
  std::vector<UserId> members;
  for (UserId root = 0; root < adj_.size(); ++root) {
    if (visited[root]) continue;
    visited[root] = true;
    members.assign(1, root);
    for (std::size_t head = 0; head < members.size(); ++head) {
      for (const Neighbor& nb : adj_[members[head]]) {
        if (visited[nb.id]) continue;
        visited[nb.id] = true;
        members.push_back(nb.id);
      }
    }
    solve_component(members);
  }
  cover_valid_ = true;
  ++cover_version_;
  return cover_;
}

}  // namespace s3::social
