// Weighted undirected graph over a working set of users, with dynamic
// bitset adjacency — the representation the clique machinery runs on —
// plus the ThetaDelta change-feed record of ThetaProvider's optional
// feed interface.
#pragma once

#include <cstdint>
#include <functional>
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

/// Fixed-capacity bitset sized at construction; supports the set
/// operations the Östergård search needs.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t capacity() const noexcept { return bits_; }

  void set(std::size_t i) {
    S3_REQUIRE(i < bits_, "Bitset::set out of range");
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void reset(std::size_t i) {
    S3_REQUIRE(i < bits_, "Bitset::reset out of range");
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  bool test(std::size_t i) const {
    S3_REQUIRE(i < bits_, "Bitset::test out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  bool any() const noexcept {
    for (std::uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }

  std::size_t count() const noexcept {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  /// Lowest set bit, or capacity() if none.
  std::size_t first() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w]) {
        return (w << 6) +
               static_cast<std::size_t>(__builtin_ctzll(words_[w]));
      }
    }
    return bits_;
  }

  /// Calls fn(i) for every set bit i, in ascending order.
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits)));
      }
    }
  }

  Bitset& operator&=(const Bitset& o) {
    S3_REQUIRE(bits_ == o.bits_, "Bitset: size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
    return *this;
  }

  friend Bitset operator&(Bitset a, const Bitset& b) {
    a &= b;
    return a;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Undirected weighted graph on vertices 0..n-1 (the caller maps
/// vertices to UserIds).
class WeightedGraph {
 public:
  explicit WeightedGraph(std::size_t n)
      : n_(n), adj_(n, Bitset(n)), weights_(n * n, 0.0) {}

  std::size_t size() const noexcept { return n_; }

  void add_edge(std::size_t u, std::size_t v, double weight) {
    S3_REQUIRE(u < n_ && v < n_, "add_edge: vertex out of range");
    S3_REQUIRE(u != v, "add_edge: self loop");
    adj_[u].set(v);
    adj_[v].set(u);
    weights_[u * n_ + v] = weight;
    weights_[v * n_ + u] = weight;
  }

  bool adjacent(std::size_t u, std::size_t v) const {
    S3_REQUIRE(u < n_ && v < n_, "adjacent: vertex out of range");
    return adj_[u].test(v);
  }

  double weight(std::size_t u, std::size_t v) const {
    S3_REQUIRE(u < n_ && v < n_, "weight: vertex out of range");
    return weights_[u * n_ + v];
  }

  const Bitset& neighbors(std::size_t u) const {
    S3_REQUIRE(u < n_, "neighbors: vertex out of range");
    return adj_[u];
  }

  std::size_t degree(std::size_t u) const { return neighbors(u).count(); }

  std::size_t num_edges() const noexcept {
    std::size_t twice = 0;
    for (const Bitset& b : adj_) twice += b.count();
    return twice / 2;
  }

  /// Sum of edge weights inside a vertex subset.
  double internal_weight(const std::vector<std::size_t>& vertices) const;

  /// True iff every pair in `vertices` is adjacent.
  bool is_clique(const std::vector<std::size_t>& vertices) const;

 private:
  std::size_t n_ = 0;
  std::vector<Bitset> adj_;
  std::vector<double> weights_;
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
