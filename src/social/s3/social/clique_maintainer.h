// Incremental θ-graph and clique-cover maintenance (ROADMAP item 4).
//
// S3's placement quality comes from re-solving maximum cliques on the
// θ > threshold social graph, but per-batch churn touches only a few
// edges: rebuilding the graph and re-running Östergård from scratch on
// every query wastes almost all of its work at campus scale. A
// CliqueMaintainer mirrors a ThetaProvider's strict-threshold edge set
// as a sparse adjacency structure, tracks its connected components,
// and re-solves only the components whose edges crossed the threshold
// (or changed weight) since the last query — every clean component's
// cover is served from cache.
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
// Synchronisation with a live provider goes through the ThetaDelta
// change feed (graph.h): sync() drains poll_theta_deltas() and applies
// each record; an incomplete poll (log truncation, or a provider
// without a feed) falls back to reset_from(), the full reseed.
//
// Threading: not thread-safe. One maintainer has one owner; concurrent
// pipelines guard theirs with a mutex and rely on the feed contract to
// tolerate writers racing the reseed (re-applied deltas are
// idempotent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "s3/social/clique.h"
#include "s3/social/graph.h"
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
  std::uint64_t deltas_applied = 0;
  std::uint64_t component_merges = 0;
  std::uint64_t component_splits = 0;
  std::uint64_t components_solved = 0;  ///< fresh per-component solves
  std::uint64_t components_reused = 0;  ///< cache hits during assembly
  std::uint64_t cover_queries = 0;
  std::uint64_t reseeds = 0;  ///< full rebuilds via reset_from()
};

class CliqueMaintainer {
 public:
  struct Neighbor {
    UserId id = kInvalidUser;
    double weight = 0.0;  ///< θ(u, id), strictly above the threshold
  };

  CliqueMaintainer() = default;
  explicit CliqueMaintainer(std::size_t num_users,
                            CliqueMaintainerConfig config = {});

  /// Full reseed: drop everything and mirror the provider's current
  /// strict-threshold edge set. Also fast-forwards the feed cursor, so
  /// a following sync() resumes incrementally. The cursor is captured
  /// *before* the state is read: deltas recorded by writers racing the
  /// reseed get re-applied afterwards, which set_theta makes a no-op.
  void reset_from(const ThetaProvider& model);

  /// Drains the provider's change feed and applies every record;
  /// reseeds instead when the feed is incomplete (or on first use /
  /// population change). Returns true when served incrementally.
  bool sync(const ThetaProvider& model);

  /// Point mutation: θ(u, v) is now `theta`. Inserts, removes, or
  /// re-weights the edge as the strict threshold rule dictates;
  /// exact-equal re-weights are no-ops (no component goes dirty).
  void set_theta(UserId u, UserId v, double theta);

  /// Applies one feed record (set_theta on its pair).
  void apply(const ThetaDelta& delta);

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
  /// (i.e. some component was re-solved). Score caches key on it.
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
  mutable std::vector<UserId> bfs_queue_;

  bool seeded_ = false;
  std::uint64_t feed_cursor_ = 0;
  std::vector<ThetaDelta> feed_scratch_;

  CliqueCoverResult assembled_;
  bool assembled_valid_ = false;
  std::uint64_t cover_version_ = 0;

  CliqueMaintainerStats stats_{};
};

/// Caches one double score per clique of a maintained cover — the
/// serve pipeline stores each clique's ΣC(AP) social-cohesion sum.
/// Scores key on CliqueMaintainer::cover_version(): a version change
/// (some component re-solved) drops everything; within a version,
/// individual scores are invalidated by placement changes through
/// invalidate_user(). Not thread-safe; callers bring the lock that
/// already guards the maintainer.
class CliqueScoreCache {
 public:
  /// Points the cache at a cover snapshot. Same `version` as the
  /// previous bind → cached scores survive except those invalidated
  /// since; a new version rebuilds the member → clique map and drops
  /// every score.
  void bind(const CliqueCoverResult& cover, std::uint64_t version);

  /// A placement change touched `u`: the score of the clique
  /// containing it (if any) is recomputed at next read.
  void invalidate_user(UserId u);

  /// Cached score of clique `i`, recomputed via `compute(i)` on miss.
  template <typename Fn>
  double score(std::size_t i, Fn&& compute) {
    S3_REQUIRE(i < scores_.size(), "CliqueScoreCache: index out of range");
    if (!valid_[i]) {
      scores_[i] = compute(i);
      valid_[i] = 1;
      ++recomputed_;
    } else {
      ++reused_;
    }
    return scores_[i];
  }

  std::uint64_t recomputed() const noexcept { return recomputed_; }
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  bool bound_ = false;
  std::uint64_t version_ = 0;
  std::vector<double> scores_;
  std::vector<char> valid_;
  /// member user id -> clique index in the bound cover (or npos).
  std::vector<std::uint32_t> clique_of_;
  std::uint64_t recomputed_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace s3::social
