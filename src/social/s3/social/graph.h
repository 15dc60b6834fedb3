// Weighted undirected graph over a working set of users — the
// representation the clique machinery runs on — stored as one neighbour
// list per vertex, sorted by id, with each edge weight beside its id.
// Memory is O(vertices + edges): the paper-scale θ ≥ 0.3 graph (12,374
// users, 245,335 edges) takes 10.7 MB of heap, where an n × n weight
// matrix took 1.2 GB. Also here: the ThetaDelta change-feed record of
// ThetaProvider's optional feed interface.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "s3/util/error.h"
#include "s3/util/ids.h"

namespace s3::social {

class ThetaProvider;

/// One record of a ThetaProvider's structured change feed: pair
/// (u, v)'s social relation index moved to `theta`.
///
/// Invalidation contract of the feed interface:
///
///   * A provider that emits deltas (`ThetaProvider::emits_theta_deltas`)
///     records one ThetaDelta for *every* mutation that changes any
///     θ(u, v), carrying the value of θ(u, v) *after* the mutation. A
///     consumer that applies a feed suffix in order therefore converges
///     on the provider's current θ for every touched pair; pairs never
///     mentioned by the feed are unchanged since the consumer's last
///     sync point.
///   * Feeds may be bounded. When a poll reports `complete == false` the
///     provider discarded records the consumer had not seen, and every
///     derived structure is invalid: the consumer must rebuild from the
///     provider's current state before trusting any query.
///   * A provider that mutates but does not emit deltas advances
///     `read_epoch()` with an always-incomplete feed — the epoch is the
///     coarse invalidate-everything signal. LiveSocialModel
///     (live_social_model.h), the one mutating provider, is such a
///     provider. Immutable providers (a trained SocialIndexModel) have
///     an exact, forever empty feed.
///   * `epoch` stamps the provider's read_epoch() just after the
///     mutation, so a consumer can bracket a drained suffix against
///     snapshot reads (social_index.h's read-snapshot contract).
///
/// Nothing in the library polls a feed: CliqueMaintainer::sync reads a
/// LiveSocialModel's live pairs directly. The interface stays for
/// decorators that forward every ThetaProvider virtual, such as
/// perfbench's ProbedTheta.
struct ThetaDelta {
  UserPair pair{0, 1};
  double theta = 0.0;    ///< θ(pair) after the mutation
  std::uint64_t epoch = 0;
};

/// Result of one ThetaProvider::poll_theta_deltas call. `cursor` is the
/// position to pass to the next poll; `complete` is false when records
/// after the caller's previous cursor were discarded before they could
/// be read (see the ThetaDelta invalidation contract above).
struct ThetaDeltaPoll {
  std::uint64_t cursor = 0;
  bool complete = true;
};

/// One entry of a neighbour list: the neighbour's id and the weight of
/// the edge to it.
struct Neighbor {
  UserId id = kInvalidUser;
  double weight = 0.0;
};

/// Comparator for std::lower_bound over a neighbour list sorted by id.
inline bool id_below(const Neighbor& n, UserId id) noexcept {
  return n.id < id;
}

/// The entry for `id` in a neighbour list sorted by id, or nullptr.
const Neighbor* find_neighbor(std::span<const Neighbor> list, UserId id);

/// Undirected weighted graph on vertices 0..n-1 (the caller maps
/// vertices to UserIds). Each vertex keeps its neighbours sorted by id;
/// adjacent() and weight() binary-search that list.
class WeightedGraph {
 public:
  explicit WeightedGraph(std::size_t n);

  std::size_t size() const noexcept { return adj_.size(); }

  /// Adds edge (u, v), or overwrites its weight when it exists. An edge
  /// whose endpoints are both above every neighbour already listed for
  /// them — as when edges arrive in ascending (u, v) order — is an
  /// append; any other is a sorted insert.
  void add_edge(std::size_t u, std::size_t v, double weight);

  bool adjacent(std::size_t u, std::size_t v) const;

  /// Weight of edge (u, v); 0.0 when they are not adjacent.
  double weight(std::size_t u, std::size_t v) const;

  /// u's neighbours, ascending by id.
  std::span<const Neighbor> neighbors(std::size_t u) const {
    S3_REQUIRE(u < adj_.size(), "neighbors: vertex out of range");
    return adj_[u];
  }

  std::size_t degree(std::size_t u) const { return neighbors(u).size(); }

  std::size_t num_edges() const noexcept { return num_edges_; }

  /// Sum of edge weights inside a vertex subset.
  double internal_weight(const std::vector<std::size_t>& vertices) const;

  /// True iff every pair in `vertices` is adjacent.
  bool is_clique(const std::vector<std::size_t>& vertices) const;

 private:
  std::vector<std::vector<Neighbor>> adj_;
  std::size_t num_edges_ = 0;
};

/// The full social graph of a model: vertices are all user ids, with an
/// edge (u, v, θ(u,v)) wherever θ(u,v) >= threshold (the validators'
/// edge rule). When the provider is a SocialIndexModel whose pair store
/// has a neighbor index and whose type prior alone cannot reach the
/// threshold (max_type_term() < threshold), only pairs with recorded
/// history are enumerated — O(recorded pairs) instead of O(users²).
/// Otherwise every pair is scored through the batched theta_row kernel.
WeightedGraph build_theta_graph(const ThetaProvider& model, double threshold);

/// Enumerates every pair (u, v), u < v, whose θ clears `threshold` —
/// strictly (`strict`, the batch-graph/CliqueMaintainer edge rule) or
/// inclusively (build_theta_graph's rule) — calling
/// fn(u, v, θ(u, v)) once per qualifying pair in ascending (u, v)
/// order. Uses the same recorded-pairs CSR pruning as
/// build_theta_graph when the provider allows it, otherwise batched
/// theta_row sweeps.
void for_each_theta_edge(
    const ThetaProvider& model, double threshold, bool strict,
    const std::function<void(UserId, UserId, double)>& fn);

}  // namespace s3::social
