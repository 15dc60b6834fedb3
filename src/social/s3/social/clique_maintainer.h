// θ-graph mirror and cached clique cover behind the serve `social`
// verb (ServePipeline::social_snapshot).
//
// A CliqueMaintainer mirrors a ThetaProvider's strict-threshold edge
// set as sorted sparse adjacency and caches one clique cover of it.
// Any edge insert, removal or weight change drops the cache; cover()
// on a stale cache finds the connected components by BFS from
// ascending roots, so in ascending-minimum-vertex order, and solves
// each one with clique_cover() on its induced subgraph. A clique never
// spans components, so this equals a whole-graph solve up to
// extraction order, and the cover depends only on the edge set, not on
// the order of the mutations that built it.
//
// Nothing is cached per component: behavioural groups overlap across
// a campus, so the θ graph is one giant component plus a few isolated
// users, and any change re-solves nearly all of it (DESIGN.md §16).
//
// sync() follows a LiveSocialModel: it seeds once from the trained
// base, then re-applies θ for every live pair on each call (see
// live_social_model.h for why that is the whole difference).
//
// Threading: not thread-safe. One maintainer has one owner; the serve
// pipeline guards its own with a mutex that only social_snapshot()
// takes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "s3/social/clique.h"
#include "s3/social/graph.h"
#include "s3/social/live_social_model.h"
#include "s3/social/social_index.h"
#include "s3/util/ids.h"

namespace s3::social {

struct CliqueMaintainerConfig {
  /// Edge rule: (u, v) is an edge iff θ(u,v) > theta_threshold, as in
  /// core::S3Selector's batch graph and build_theta_graph.
  double theta_threshold = 0.3;
  CliqueConfig clique{};
};

struct CliqueMaintainerStats {
  std::uint64_t edges_inserted = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t edges_reweighted = 0;
  std::uint64_t deltas_applied = 0;  ///< live-pair θ applications by sync()
  std::uint64_t components_solved = 0;  ///< every component of every recompute
  std::uint64_t cover_queries = 0;
  std::uint64_t reseeds = 0;  ///< full rebuilds via reset_from()
};

class CliqueMaintainer {
 public:
  /// A neighbour list entry; its weight is θ(u, id), strictly above the
  /// threshold.
  using Neighbor = social::Neighbor;

  CliqueMaintainer() = default;
  explicit CliqueMaintainer(std::size_t num_users,
                            CliqueMaintainerConfig config = {});

  /// Full reseed: drop everything and mirror the provider's current
  /// strict-threshold edge set (for_each_theta_edge, which walks only
  /// recorded pairs when the provider is a SocialIndexModel whose type
  /// prior cannot clear the threshold).
  void reset_from(const ThetaProvider& model);

  /// Mirrors `model`'s current strict-threshold edge set. The first
  /// call (or a population change) seeds from model.base() through
  /// reset_from; every call then re-applies θ for every live pair.
  /// Returns false when this call seeded.
  bool sync(const LiveSocialModel& model);

  /// Point mutation: θ(u, v) is now `theta`. Inserts, removes, or
  /// re-weights the edge as the strict threshold rule dictates;
  /// exact-equal re-weights are no-ops and keep the cached cover.
  void set_theta(UserId u, UserId v, double theta);

  std::size_t num_users() const noexcept { return adj_.size(); }
  const CliqueMaintainerConfig& config() const noexcept { return config_; }
  std::size_t num_edges() const noexcept { return num_edges_; }

  bool has_edge(UserId u, UserId v) const;
  /// θ(u, v) if the edge exists, else 0.0.
  double edge_weight(UserId u, UserId v) const;
  /// Neighbors of `u` in ascending id order.
  std::span<const Neighbor> neighbors(UserId u) const;

  /// The cover of the mirrored graph: cached until the next edge
  /// change, then recomputed component by component. The reference
  /// stays valid until the next mutating call.
  const CliqueCoverResult& cover();

  /// Bumps every time cover() recomputes.
  std::uint64_t cover_version() const noexcept { return cover_version_; }

  const CliqueMaintainerStats& stats() const noexcept { return stats_; }

 private:
  void insert_edge(UserId u, UserId v, double theta);
  /// Solves the component whose vertices are `members` (any order;
  /// sorted here) and appends its cliques, in global ids, to cover_.
  void solve_component(std::vector<UserId>& members);

  CliqueMaintainerConfig config_{};
  std::vector<std::vector<Neighbor>> adj_;
  std::size_t num_edges_ = 0;
  bool seeded_ = false;

  CliqueCoverResult cover_;
  bool cover_valid_ = false;
  std::uint64_t cover_version_ = 0;

  CliqueMaintainerStats stats_{};
};

}  // namespace s3::social
