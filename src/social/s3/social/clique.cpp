#include "s3/social/clique.h"

#include <algorithm>
#include <span>

#include "s3/util/metrics.h"

namespace s3::social {

namespace {

/// The input graph minus the cliques extracted so far, held in place
/// for one clique_cover call. Live vertices keep ascending index order
/// and a live degree counts live neighbours only, so after k removals
/// the view is the graph that k copies with those vertices deleted
/// would leave, in the same vertex order (DESIGN.md §18). Neighbour ids
/// and weights are copied once from the graph's lists into two aligned
/// arrays; a list sheds its dead entries when prune() next scans it.
class ResidualGraph {
 public:
  explicit ResidualGraph(const WeightedGraph& g)
      : begin_(g.size()), end_(g.size()), degree_(g.size()),
        alive_(g.size(), 1), live_(g.size()) {
    const std::size_t n = g.size();
    std::size_t total = 0;
    for (std::size_t v = 0; v < n; ++v) {
      begin_[v] = end_[v] = total;
      degree_[v] = g.degree(v);
      total += degree_[v];
      live_[v] = static_cast<std::uint32_t>(v);
    }
    ids_.resize(total);
    weights_.resize(total);
    for (std::size_t v = 0; v < n; ++v) {
      for (const Neighbor& nb : g.neighbors(v)) {
        ids_[end_[v]] = nb.id;
        weights_[end_[v]++] = nb.weight;
      }
    }
    live_edges_ = total / 2;
  }

  std::size_t size() const noexcept { return alive_.size(); }
  /// Live vertices, ascending.
  const std::vector<std::uint32_t>& live() const noexcept { return live_; }
  std::size_t live_edges() const noexcept { return live_edges_; }
  std::size_t degree(std::uint32_t v) const { return degree_[v]; }

  /// v's live neighbours, ascending, after dropping its dead entries.
  std::span<const std::uint32_t> prune(std::uint32_t v) {
    std::size_t out = begin_[v];
    for (std::size_t k = begin_[v]; k < end_[v]; ++k) {
      if (alive_[ids_[k]]) {
        ids_[out] = ids_[k];
        weights_[out++] = weights_[k];
      }
    }
    end_[v] = out;
    return neighbors(v);
  }

  /// v's neighbour ids as of its last prune().
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return std::span<const std::uint32_t>(ids_).subspan(begin_[v],
                                                        end_[v] - begin_[v]);
  }

  /// The edge weights beside neighbors(v).
  std::span<const double> weights(std::uint32_t v) const {
    return std::span<const double>(weights_).subspan(begin_[v],
                                                     end_[v] - begin_[v]);
  }

  /// Deletes `vertices` and their edges in O(their list lengths), plus
  /// one pass over the live list.
  void remove(const std::vector<std::size_t>& vertices) {
    for (const std::size_t v : vertices) {
      S3_ASSERT(alive_[v], "ResidualGraph::remove: vertex already removed");
      alive_[v] = 0;
      for (std::size_t k = begin_[v]; k < end_[v]; ++k) {
        const std::uint32_t u = ids_[k];
        if (alive_[u]) {
          --degree_[u];
          --live_edges_;
        }
      }
    }
    std::erase_if(live_, [&](std::uint32_t v) { return !alive_[v]; });
  }

 private:
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
  std::vector<std::uint32_t> ids_;
  std::vector<double> weights_;
  std::vector<std::size_t> degree_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> live_;
  std::size_t live_edges_ = 0;
};

/// Stable counting sort: `out` receives `in` ordered by key(v)
/// ascending (every key < num_keys), equal keys in their order in `in`.
template <class Key>
void counting_sort(const std::vector<std::uint32_t>& in,
                   std::size_t num_keys, const Key& key,
                   std::vector<std::size_t>& starts,
                   std::vector<std::uint32_t>& out) {
  starts.assign(num_keys + 1, 0);
  for (const std::uint32_t v : in) ++starts[key(v) + 1];
  for (std::size_t k = 1; k <= num_keys; ++k) starts[k] += starts[k - 1];
  out.resize(in.size());
  for (const std::uint32_t v : in) out[starts[key(v)]++] = v;
}

/// Extracts one maximum clique per extract() call from a ResidualGraph:
/// greedy colouring, the live lists transposed into search order, then
/// Östergård's search over vertex suffixes on root-local rows (DESIGN.md
/// §18). Buffers are reused across the extractions of one cover.
class CliqueExtractor {
 public:
  CliqueExtractor(ResidualGraph& residual, const CliqueConfig& cfg)
      : r_(residual), cfg_(cfg), colour_(residual.size()),
        mark_(residual.size(), 0), pos_(residual.size()),
        local_(residual.size()), slot_(residual.size()) {}

  /// Greedy colouring of the live vertices, taken in degree-descending
  /// order (ties by index). A live neighbour that is not yet coloured
  /// still marks colour 0 as taken; the search order, and so every
  /// cover, depends on this.
  void colour() {
    const std::vector<std::uint32_t>& live = r_.live();
    std::size_t max_degree = 0;
    for (const std::uint32_t v : live) {
      colour_[v] = 0;
      max_degree = std::max(max_degree, r_.degree(v));
    }
    counting_sort(
        live, max_degree + 1,
        [&](std::uint32_t v) { return max_degree - r_.degree(v); }, starts_,
        by_degree_);
    num_colours_ = 0;
    for (const std::uint32_t v : by_degree_) {
      ++stamp_;
      for (const std::uint32_t u : r_.prune(v)) mark_[colour_[u]] = stamp_;
      std::uint32_t c = 0;
      while (mark_[c] == stamp_) ++c;
      colour_[v] = c;
      num_colours_ = std::max<std::size_t>(num_colours_, c + 1);
    }
  }

  /// Vertex colours from the last colour() call (live vertices only).
  const std::vector<std::uint32_t>& colours() const noexcept {
    return colour_;
  }

  /// A maximum clique of the live graph (among those, the heaviest
  /// when weight_tie_break is set), ascending.
  CliqueResult extract() {
    const std::size_t m = r_.live().size();
    if (m == 0) return {};
    colour();
    // Search order: colour ascending, then degree descending, then
    // index; by_degree_ is already in the order of the last two.
    counting_sort(
        by_degree_, num_colours_, [&](std::uint32_t v) { return colour_[v]; },
        starts_, order_);
    for (std::size_t i = 0; i < m; ++i) {
      pos_[order_[i]] = static_cast<std::uint32_t>(i);
    }
    transpose(m);
    c_.assign(m, 0);
    best_.clear();
    best_size_ = 0;
    best_weight_ = -1.0;
    aborted_ = false;
    nodes_ = 0;

    for (std::size_t idx = m; idx-- > 0;) {
      found_ = false;
      search_root(idx);
      c_[idx] = best_size_;
      if (aborted_) break;
    }

    CliqueResult result;
    result.vertices.reserve(best_.size());
    for (const std::uint32_t i : best_) result.vertices.push_back(order_[i]);
    std::sort(result.vertices.begin(), result.vertices.end());
    result.internal_weight = best_weight_;
    result.nodes_explored = nodes_;
    result.exact = !aborted_;
    return result;
  }

 private:
  /// Lists, in search order, each position's neighbours after it, with
  /// the edge weights: position i's are later_[later_begin_[i] ..
  /// later_end_[i]), ascending. A list is given room for the vertex's
  /// whole live degree, so one pass fills them all. O(live edges).
  void transpose(std::size_t m) {
    later_begin_.resize(m + 1);
    later_begin_[0] = 0;
    for (std::size_t i = 0; i < m; ++i) {
      later_begin_[i + 1] = later_begin_[i] + r_.degree(order_[i]);
    }
    later_.resize(later_begin_[m]);
    later_weight_.resize(later_begin_[m]);
    later_end_.assign(later_begin_.begin(), later_begin_.end() - 1);
    // Taking j ascending appends to every list in ascending order.
    for (std::size_t j = 0; j < m; ++j) {
      const std::span<const std::uint32_t> ids = r_.neighbors(order_[j]);
      const std::span<const double> weights = r_.weights(order_[j]);
      for (std::size_t e = 0; e < ids.size(); ++e) {
        const std::uint32_t i = pos_[ids[e]];
        if (i < j) {
          later_[later_end_[i]] = static_cast<std::uint32_t>(j);
          later_weight_[later_end_[i]++] = weights[e];
        }
      }
    }
  }

  /// Searches the cliques whose first vertex in the search order is
  /// `idx`. Its candidates are its later neighbours, cand_; every bit
  /// row and weight row below is indexed by position in cand_, so a row
  /// is k_ = |cand_| bits wide rather than m.
  void search_root(std::size_t idx) {
    const std::size_t first = later_begin_[idx];
    k_ = later_end_[idx] - first;
    cand_ = std::span<const std::uint32_t>(later_).subspan(first, k_);
    root_weight_ = std::span<const double>(later_weight_).subspan(first, k_);
    words_ = (k_ + 63) / 64;
    // The stack is a clique and a clique's vertices have distinct
    // colours, so the search never goes deeper than num_colours_.
    grow(levels_, num_colours_ * words_);
    for (std::size_t w = 0; w < words_; ++w) levels_[w] = ~std::uint64_t{0};
    if (k_ % 64 != 0) {
      levels_[words_ - 1] = (std::uint64_t{1} << (k_ % 64)) - 1;
    }
    for (std::size_t a = 0; a < k_; ++a) {
      local_[cand_[a]] = static_cast<std::uint32_t>(a);
      slot_[a] = kUnbuilt;
    }
    rows_ = 0;
    stack_.assign(1, static_cast<std::uint32_t>(idx));
    expand(1, 0, 0.0);
  }

  template <class T>
  static void grow(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  }

  /// Row slot of candidate a, built the first time the current root's
  /// subtree branches on a: the bits of a's neighbours among the
  /// candidates after a, and those edges' weights, both indexed by
  /// position in cand_.
  std::size_t row_of(std::size_t a) {
    if (slot_[a] != kUnbuilt) return slot_[a];
    const std::size_t slot = rows_++;
    slot_[a] = slot;
    grow(row_bits_, rows_ * words_);
    grow(row_weights_, rows_ * k_);
    std::uint64_t* const bits = &row_bits_[slot * words_];
    double* const weights = &row_weights_[slot * k_];
    std::fill(bits, bits + words_, 0);
    // a's later neighbours that are candidates; every one comes after a.
    const std::uint32_t p = cand_[a];
    for (std::size_t e = later_begin_[p]; e < later_end_[p]; ++e) {
      const std::uint32_t q = later_[e];
      const std::uint32_t b = local_[q];
      if (b < k_ && cand_[b] == q) {
        bits[b >> 6] |= std::uint64_t{1} << (b & 63);
        weights[b] = later_weight_[e];
      }
    }
    return slot;
  }

  void record_leaf(std::size_t size, double weight) {
    if (size > best_size_ ||
        (cfg_.weight_tie_break && size == best_size_ &&
         weight > best_weight_)) {
      if (size > best_size_) found_ = true;
      best_size_ = size;
      best_weight_ = weight;
      best_ = stack_;
    }
  }

  /// Prune when even the optimistic bound cannot beat the incumbent
  /// (cannot *tie* it either, when weight ties matter).
  bool hopeless(std::size_t optimistic) const {
    if (optimistic < best_size_) return true;
    return optimistic == best_size_ && !cfg_.weight_tie_break;
  }

  /// Expands the node whose clique (stack_) has `size` vertices and
  /// internal weight `weight`. Its candidates are level row size - 1,
  /// words [lo, words_); the words below lo hold none.
  void expand(std::size_t size, std::size_t lo, double weight) {
    if (aborted_) return;
    if (++nodes_ > cfg_.node_budget) {
      aborted_ = true;
      return;
    }
    const std::size_t row = (size - 1) * words_;
    std::size_t count = 0;
    for (std::size_t k = lo; k < words_; ++k) {
      count += static_cast<std::size_t>(__builtin_popcountll(levels_[row + k]));
    }
    if (count == 0) {
      record_leaf(size, weight);
      return;
    }
    // Candidates leave lowest first, so each scan resumes at word k.
    std::size_t k = lo;
    while (count > 0) {
      if (hopeless(size + count)) return;
      while (levels_[row + k] == 0) ++k;
      const std::size_t a = (k << 6) + static_cast<std::size_t>(
                                           __builtin_ctzll(levels_[row + k]));
      if (hopeless(size + c_[cand_[a]])) return;
      levels_[row + k] &= levels_[row + k] - 1;
      --count;

      const std::size_t slot = row_of(a);
      // Summed in stack order, root first: floating-point addition is
      // not associative, and the sum decides weight ties.
      double w2 = weight + root_weight_[a];
      for (const std::size_t offset : path_) w2 += row_weights_[offset + a];
      // Child candidates: the remaining ones adjacent to a, all after a.
      const std::uint64_t* const bits = &row_bits_[slot * words_];
      const std::size_t child = size * words_;
      for (std::size_t j = k; j < words_; ++j) {
        levels_[child + j] = levels_[row + j] & bits[j];
      }
      stack_.push_back(cand_[a]);
      path_.push_back(slot * k_);
      expand(size + 1, k, w2);
      path_.pop_back();
      stack_.pop_back();

      if (aborted_) return;
      // Strict-improvement early exit (Östergård): within suffix i the
      // best possible is c_[i+1] + 1, already achieved.
      if (found_ && !cfg_.weight_tie_break) return;
    }
  }

  ResidualGraph& r_;
  const CliqueConfig cfg_;

  // Colouring.
  std::vector<std::uint32_t> colour_;   ///< by vertex
  std::vector<std::uint64_t> mark_;     ///< by colour: stamp_ when taken
  std::uint64_t stamp_ = 0;
  std::size_t num_colours_ = 0;
  std::vector<std::uint32_t> by_degree_;
  std::vector<std::size_t> starts_;     ///< counting-sort buffer

  // Search order, over permuted indices (positions) 0..m-1.
  std::vector<std::uint32_t> order_;    ///< position -> vertex
  std::vector<std::uint32_t> pos_;      ///< vertex -> position
  std::vector<std::size_t> later_begin_;
  std::vector<std::size_t> later_end_;
  std::vector<std::uint32_t> later_;    ///< later neighbours' positions
  std::vector<double> later_weight_;    ///< beside later_
  /// Position -> index in cand_; valid for q iff local_[q] < k_ and
  /// cand_[local_[q]] == q, so no reset is needed between roots.
  std::vector<std::uint32_t> local_;

  // The current root: candidates and rows by position in cand_.
  std::size_t k_ = 0;
  std::span<const std::uint32_t> cand_;
  std::span<const double> root_weight_;
  std::size_t words_ = 0;               ///< 64-bit words per bit row
  std::vector<std::uint64_t> levels_;   ///< candidate rows, one per depth
  static constexpr std::size_t kUnbuilt = ~std::size_t{0};
  std::vector<std::size_t> slot_;       ///< row slot, or kUnbuilt
  std::size_t rows_ = 0;                ///< rows built under this root
  std::vector<std::uint64_t> row_bits_;   ///< rows_ rows of words_
  std::vector<double> row_weights_;       ///< rows_ rows of k_

  std::vector<std::size_t> c_;          ///< by position
  std::vector<std::uint32_t> stack_;    ///< positions, root first
  std::vector<std::size_t> path_;       ///< weight-row offsets, root excluded
  std::vector<std::uint32_t> best_;
  std::size_t best_size_ = 0;
  double best_weight_ = -1.0;
  bool found_ = false;
  bool aborted_ = false;
  std::uint64_t nodes_ = 0;
};

/// One extraction as the metrics bus counts it.
CliqueResult counted_extract(CliqueExtractor& extractor) {
  static util::Counter* const extractions =
      util::metrics().counter("social.clique_extractions");
  static util::Counter* const nodes =
      util::metrics().counter("social.clique_nodes_explored");
  static util::Counter* const budget_exhausted =
      util::metrics().counter("social.clique_budget_exhausted");
  CliqueResult result = extractor.extract();
  extractions->add();
  nodes->add(result.nodes_explored);
  if (!result.exact) budget_exhausted->add();
  return result;
}

}  // namespace

std::vector<std::size_t> greedy_coloring(const WeightedGraph& g) {
  ResidualGraph residual(g);
  CliqueExtractor extractor(residual, CliqueConfig{});
  extractor.colour();
  const std::vector<std::uint32_t>& colours = extractor.colours();
  return std::vector<std::size_t>(colours.begin(), colours.end());
}

CliqueResult max_clique(const WeightedGraph& g, const CliqueConfig& config) {
  ResidualGraph residual(g);
  CliqueExtractor extractor(residual, config);
  return counted_extract(extractor);
}

CliqueCoverResult clique_cover(const WeightedGraph& g,
                               const CliqueConfig& config) {
  CliqueCoverResult cover;
  ResidualGraph residual(g);
  CliqueExtractor extractor(residual, config);
  while (!residual.live().empty()) {
    CliqueResult r = counted_extract(extractor);
    S3_ASSERT(!r.vertices.empty(), "clique_cover: empty clique on non-empty graph");
    cover.exact = cover.exact && r.exact;
    cover.nodes_explored += r.nodes_explored;

    if (r.vertices.size() == 1 && residual.live_edges() == 0) {
      // Only isolated vertices remain: emit them all as singletons.
      for (const std::uint32_t v : residual.live()) {
        cover.cliques.push_back({v});
      }
      break;
    }
    residual.remove(r.vertices);
    cover.cliques.push_back(std::move(r.vertices));
  }
  return cover;
}

}  // namespace s3::social
