#include "s3/social/clique_maintainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace s3::social {

CliqueMaintainer::CliqueMaintainer(std::size_t num_users,
                                   CliqueMaintainerConfig config)
    : config_(config) {
  S3_REQUIRE(config_.theta_threshold >= 0.0,
             "CliqueMaintainer: negative threshold");
  adj_.assign(num_users, {});
  comp_of_.resize(num_users);
  comps_.assign(num_users, Component{});
  visit_mark_.assign(num_users, 0);
  for (std::size_t v = 0; v < num_users; ++v) {
    comp_of_[v] = static_cast<std::uint32_t>(v);
    Component& c = comps_[v];
    c.members.assign(1, static_cast<UserId>(v));
    c.min_member = static_cast<UserId>(v);
    c.alive = true;
    c.dirty = true;
  }
  dirty_count_ = num_users;
  // seeded_ stays false: the first sync() against a provider must
  // reseed — this constructor mirrors nothing.
}

void CliqueMaintainer::reset_from(const ThetaProvider& model) {
  const std::size_t n = model.num_users();
  adj_.assign(n, {});
  num_edges_ = 0;
  comp_of_.resize(n);
  comps_.assign(n, Component{});
  free_slots_.clear();
  visit_mark_.assign(n, 0);
  visit_stamp_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    comp_of_[v] = static_cast<std::uint32_t>(v);
    Component& c = comps_[v];
    c.members.assign(1, static_cast<UserId>(v));
    c.min_member = static_cast<UserId>(v);
    c.alive = true;
    c.dirty = true;
  }
  dirty_count_ = n;
  assembled_valid_ = false;

  for_each_theta_edge(model, config_.theta_threshold, /*strict=*/true,
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
    if (want) {
      insert_edge(u, v, theta);
      ++stats_.edges_inserted;
    }
    return;
  }
  if (!want) {
    remove_edge(u, v);
    ++stats_.edges_removed;
    return;
  }
  if (it->weight == theta) return;  // exact no-op: nothing goes dirty
  it->weight = theta;
  std::vector<Neighbor>& lv = adj_[v];
  const auto back = std::lower_bound(lv.begin(), lv.end(), u, id_below);
  S3_ASSERT(back != lv.end() && back->id == u,
            "CliqueMaintainer: asymmetric adjacency");
  back->weight = theta;
  ++stats_.edges_reweighted;
  mark_dirty(comp_of_[u]);
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

  std::uint32_t keep = comp_of_[u];
  std::uint32_t drop = comp_of_[v];
  if (keep == drop) {
    mark_dirty(keep);
    return;
  }
  // Merge the smaller component into the larger (ties: keep the one
  // whose minimum vertex is smaller — deterministic either way, since
  // assembly orders by minimum vertex, not slot).
  if (comps_[keep].members.size() < comps_[drop].members.size() ||
      (comps_[keep].members.size() == comps_[drop].members.size() &&
       comps_[drop].min_member < comps_[keep].min_member)) {
    std::swap(keep, drop);
  }
  Component& dst = comps_[keep];
  Component& src = comps_[drop];
  for (const UserId m : src.members) comp_of_[m] = keep;
  dst.members.insert(dst.members.end(), src.members.begin(),
                     src.members.end());
  dst.min_member = std::min(dst.min_member, src.min_member);
  mark_dirty(keep);
  if (src.dirty) --dirty_count_;
  src = Component{};  // also frees the cached cover
  free_slots_.push_back(drop);
  ++stats_.component_merges;
}

void CliqueMaintainer::remove_edge(UserId u, UserId v) {
  const auto cut = [](std::vector<Neighbor>& list, UserId id) {
    const auto it = std::lower_bound(list.begin(), list.end(), id, id_below);
    S3_ASSERT(it != list.end() && it->id == id,
              "CliqueMaintainer: removing a missing edge");
    list.erase(it);
  };
  cut(adj_[u], v);
  cut(adj_[v], u);
  --num_edges_;

  const std::uint32_t c = comp_of_[u];
  if (visit_stamp_ == std::numeric_limits<std::uint32_t>::max()) {
    visit_mark_.assign(visit_mark_.size(), 0);
    visit_stamp_ = 0;
  }
  const std::uint32_t mark = ++visit_stamp_;
  std::vector<UserId> reached;
  flood(u, mark, reached);
  if (visit_mark_[v] == mark) {
    // Still connected through another path: same component, re-solve.
    mark_dirty(c);
    return;
  }

  // Split: `reached` (u's side) moves to a fresh slot, the rest stays.
  Component& old_comp = comps_[c];
  std::vector<UserId> rest;
  rest.reserve(old_comp.members.size() - reached.size());
  for (const UserId m : old_comp.members) {
    if (visit_mark_[m] != mark) rest.push_back(m);
  }
  S3_ASSERT(!rest.empty() && rest.size() + reached.size() ==
                                 old_comp.members.size(),
            "CliqueMaintainer: split lost members");

  const std::uint32_t nc = alloc_component();
  Component& new_comp = comps_[nc];
  Component& kept = comps_[c];  // re-reference: alloc may reallocate
  new_comp.members = std::move(reached);
  new_comp.min_member =
      *std::min_element(new_comp.members.begin(), new_comp.members.end());
  for (const UserId m : new_comp.members) comp_of_[m] = nc;
  kept.members = std::move(rest);
  kept.min_member =
      *std::min_element(kept.members.begin(), kept.members.end());
  mark_dirty(c);
  mark_dirty(nc);
  ++stats_.component_splits;
}

void CliqueMaintainer::mark_dirty(std::uint32_t comp) {
  assembled_valid_ = false;
  Component& c = comps_[comp];
  if (!c.dirty) {
    c.dirty = true;
    ++dirty_count_;
  }
}

std::uint32_t CliqueMaintainer::alloc_component() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(comps_.size());
    comps_.emplace_back();
  }
  Component& c = comps_[slot];
  c.alive = true;
  c.dirty = true;
  ++dirty_count_;
  return slot;
}

void CliqueMaintainer::flood(UserId root, std::uint32_t mark,
                             std::vector<UserId>& out) const {
  visit_mark_[root] = mark;
  out.push_back(root);
  for (std::size_t head = 0; head < out.size(); ++head) {
    const UserId at = out[head];
    for (const Neighbor& nb : adj_[at]) {
      if (visit_mark_[nb.id] != mark) {
        visit_mark_[nb.id] = mark;
        out.push_back(nb.id);
      }
    }
  }
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

CliqueCoverResult CliqueMaintainer::solve_component(
    const std::vector<UserId>& members) const {
  CliqueCoverResult r;
  if (members.size() == 1) {
    // Singleton fast path — shared by cover() and solve_from_scratch(),
    // so both report the identical (empty-exploration) result.
    r.cliques.push_back({static_cast<std::size_t>(members.front())});
    return r;
  }
  std::vector<UserId> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  // The component's induced graph in local ids. The lists ascend and the
  // local -> global map is monotonic, so edges arrive in ascending
  // (i, j) order and every add_edge appends.
  WeightedGraph g(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (const Neighbor& nb : adj_[sorted[i]]) {
      if (nb.id <= sorted[i]) continue;
      const auto it = std::lower_bound(sorted.begin(), sorted.end(), nb.id);
      S3_ASSERT(it != sorted.end() && *it == nb.id,
                "CliqueMaintainer: edge leaves its component");
      g.add_edge(i, static_cast<std::size_t>(it - sorted.begin()),
                 nb.weight);
    }
  }
  CliqueCoverResult local = clique_cover(g, config_.clique);
  r.exact = local.exact;
  r.nodes_explored = local.nodes_explored;
  r.cliques.reserve(local.cliques.size());
  for (const std::vector<std::size_t>& clique : local.cliques) {
    std::vector<std::size_t> global;
    global.reserve(clique.size());
    // The local -> global map is monotonic, so cliques stay ascending.
    for (const std::size_t v : clique) {
      global.push_back(static_cast<std::size_t>(sorted[v]));
    }
    r.cliques.push_back(std::move(global));
  }
  return r;
}

const CliqueCoverResult& CliqueMaintainer::cover() {
  ++stats_.cover_queries;
  if (assembled_valid_) return assembled_;
  std::vector<std::pair<UserId, std::uint32_t>> order;
  order.reserve(num_components());
  for (std::uint32_t c = 0; c < comps_.size(); ++c) {
    if (comps_[c].alive) order.emplace_back(comps_[c].min_member, c);
  }
  std::sort(order.begin(), order.end());
  assembled_ = CliqueCoverResult{};
  for (const auto& [min_member, c] : order) {
    Component& comp = comps_[c];
    if (comp.dirty) {
      comp.cover = solve_component(comp.members);
      comp.dirty = false;
      --dirty_count_;
      ++stats_.components_solved;
    } else {
      ++stats_.components_reused;
    }
    assembled_.cliques.insert(assembled_.cliques.end(),
                              comp.cover.cliques.begin(),
                              comp.cover.cliques.end());
    assembled_.exact = assembled_.exact && comp.cover.exact;
    assembled_.nodes_explored += comp.cover.nodes_explored;
  }
  assembled_valid_ = true;
  ++cover_version_;
  return assembled_;
}

CliqueCoverResult CliqueMaintainer::solve_from_scratch() const {
  // Components are rediscovered by BFS from ascending roots; the first
  // unvisited vertex of each component is its minimum, so this visits
  // components in exactly the order cover()'s assembly sorts them.
  CliqueCoverResult out;
  if (visit_stamp_ == std::numeric_limits<std::uint32_t>::max()) {
    visit_mark_.assign(visit_mark_.size(), 0);
    visit_stamp_ = 0;
  }
  const std::uint32_t mark = ++visit_stamp_;
  std::vector<UserId> members;
  for (UserId root = 0; root < adj_.size(); ++root) {
    if (visit_mark_[root] == mark) continue;
    members.clear();
    flood(root, mark, members);
    const CliqueCoverResult comp = solve_component(members);
    out.cliques.insert(out.cliques.end(), comp.cliques.begin(),
                       comp.cliques.end());
    out.exact = out.exact && comp.exact;
    out.nodes_explored += comp.nodes_explored;
  }
  return out;
}

}  // namespace s3::social
