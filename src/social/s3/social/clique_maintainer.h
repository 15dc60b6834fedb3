// Incremental θ-graph and clique-cover maintenance behind the serve
// `social` verb (ServePipeline::social_snapshot).
//
// A CliqueMaintainer mirrors a ThetaProvider's strict-threshold edge
// set as a sparse adjacency structure, tracks its connected
// components, and re-solves only the components whose edges crossed
// the threshold (or changed weight) since the last query — every clean
// component's cover is served from cache.
//
// The canonical cover is defined per component: components ordered by
// their minimum vertex, each solved independently with clique_cover()
// on its induced subgraph. A clique cover never spans components (no
// edges between them), so this equals a whole-graph solve up to
// extraction order — and because cover() and solve_from_scratch() both
// assemble from the same per-component solves, the incremental result
// is bitwise-identical to the from-scratch fallback by construction.
// solve_from_scratch() recomputes components by BFS and ignores every
// cache, so asserting cover() == solve_from_scratch() (the randomized
// differential suite does, at several thread counts) is a real guard
// on the dirty-set and component bookkeeping.
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
  /// Strict edge rule: (u, v) is an edge iff θ(u,v) > theta_threshold
  /// — the batch-graph rule of core::S3Selector, not build_theta_graph's
  /// inclusive one.
  double theta_threshold = 0.3;
  CliqueConfig clique{};
};

struct CliqueMaintainerStats {
  std::uint64_t edges_inserted = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t edges_reweighted = 0;
  std::uint64_t deltas_applied = 0;  ///< live-pair θ applications by sync()
  std::uint64_t component_merges = 0;
  std::uint64_t component_splits = 0;
  std::uint64_t components_solved = 0;  ///< fresh per-component solves
  std::uint64_t components_reused = 0;  ///< cache hits during assembly
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
  /// exact-equal re-weights are no-ops (no component goes dirty).
  void set_theta(UserId u, UserId v, double theta);

  std::size_t num_users() const noexcept { return adj_.size(); }
  const CliqueMaintainerConfig& config() const noexcept { return config_; }
  std::size_t num_edges() const noexcept { return num_edges_; }

  bool has_edge(UserId u, UserId v) const;
  /// θ(u, v) if the edge exists, else 0.0.
  double edge_weight(UserId u, UserId v) const;
  /// Neighbors of `u` in ascending id order.
  std::span<const Neighbor> neighbors(UserId u) const;

  /// The maintained cover: re-solves dirty components, serves the rest
  /// from cache, and assembles components in ascending-minimum-vertex
  /// order. The reference stays valid until the next mutating call.
  const CliqueCoverResult& cover();

  /// Cache-free fallback: recomputes components by BFS and solves each
  /// one fresh. Bitwise-identical to cover() whenever the incremental
  /// bookkeeping is sound.
  CliqueCoverResult solve_from_scratch() const;

  /// Bumps every time an assembled cover differs from the previous one
  /// (i.e. some component was re-solved).
  std::uint64_t cover_version() const noexcept { return cover_version_; }

  /// Components currently marked dirty (re-solved at next cover()).
  std::size_t dirty_components() const noexcept { return dirty_count_; }
  std::size_t num_components() const noexcept {
    return comps_.size() - free_slots_.size();
  }

  const CliqueMaintainerStats& stats() const noexcept { return stats_; }

 private:
  struct Component {
    std::vector<UserId> members;  ///< unsorted; sorted at solve time
    UserId min_member = kInvalidUser;
    bool alive = false;
    bool dirty = true;
    CliqueCoverResult cover;  ///< cached, global user ids
  };

  void insert_edge(UserId u, UserId v, double theta);
  void remove_edge(UserId u, UserId v);
  void mark_dirty(std::uint32_t comp);
  std::uint32_t alloc_component();
  /// BFS over the maintained adjacency from `root`, appending every
  /// reached vertex (root included) to `out` and stamping visit_mark_.
  void flood(UserId root, std::uint32_t mark, std::vector<UserId>& out) const;
  CliqueCoverResult solve_component(const std::vector<UserId>& members) const;

  CliqueMaintainerConfig config_{};
  std::vector<std::vector<Neighbor>> adj_;
  std::size_t num_edges_ = 0;

  std::vector<std::uint32_t> comp_of_;
  std::vector<Component> comps_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t dirty_count_ = 0;

  /// Stamp-based visited set for BFS (no O(n) clears per delete).
  mutable std::vector<std::uint32_t> visit_mark_;
  mutable std::uint32_t visit_stamp_ = 0;

  bool seeded_ = false;

  CliqueCoverResult assembled_;
  bool assembled_valid_ = false;
  std::uint64_t cover_version_ = 0;

  CliqueMaintainerStats stats_{};
};

}  // namespace s3::social
