#include "s3/social/clique.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "s3/util/error.h"
#include "s3/util/metrics.h"
#include "s3/util/rng.h"

namespace s3::social {
namespace {

/// Exhaustive maximum-clique for cross-checking (n <= ~20).
std::size_t brute_force_max_clique_size(const WeightedGraph& g) {
  const std::size_t n = g.size();
  std::size_t best = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<std::size_t> vs;
    for (std::size_t v = 0; v < n; ++v) {
      if (mask & (1u << v)) vs.push_back(v);
    }
    if (vs.size() > best && g.is_clique(vs)) best = vs.size();
  }
  return best;
}

WeightedGraph random_graph(std::size_t n, double p, util::Rng& rng) {
  WeightedGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) g.add_edge(i, j, rng.uniform(0.1, 1.0));
    }
  }
  return g;
}

// ---------------------------------------------------------------------
// Differential reference: the direct form of the cover. Every
// extraction recolours the whole current graph with an O(n²) scan,
// rebuilds the permuted bitset adjacency and the suffix table, and
// searches with an allocating Östergård recursion; the cover then
// copies the graph without the extracted clique. clique_cover,
// max_clique and greedy_coloring must reproduce it bit for bit
// (DESIGN.md §18).
namespace reference {

/// Fixed-capacity bitset sized at construction: the candidate sets of
/// the reference search.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

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
    for (std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// Lowest set bit, or the capacity if none.
  std::size_t first() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w]) {
        return (w << 6) +
               static_cast<std::size_t>(std::countr_zero(words_[w]));
      }
    }
    return bits_;
  }

  /// Calls fn(i) for every set bit i, in ascending order.
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
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

WeightedGraph without(const WeightedGraph& g,
                      const std::vector<std::size_t>& vertices,
                      std::vector<std::size_t>* remap_out) {
  std::vector<bool> removed(g.size(), false);
  for (std::size_t v : vertices) removed[v] = true;
  std::vector<std::size_t> keep;
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (!removed[v]) keep.push_back(v);
  }
  WeightedGraph h(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (std::size_t j = i + 1; j < keep.size(); ++j) {
      if (g.adjacent(keep[i], keep[j])) {
        h.add_edge(i, j, g.weight(keep[i], keep[j]));
      }
    }
  }
  *remap_out = std::move(keep);
  return h;
}

std::vector<std::size_t> greedy_coloring(const WeightedGraph& g) {
  const std::size_t n = g.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t da = g.degree(a), db = g.degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<std::size_t> color(n, 0);
  std::vector<bool> used;
  for (std::size_t v : order) {
    used.assign(n, false);
    for (std::size_t u = 0; u < n; ++u) {
      if (u != v && g.adjacent(u, v)) used[color[u]] = true;
    }
    std::size_t c = 0;
    while (c < n && used[c]) ++c;
    color[v] = c;
  }
  return color;
}

class OstergardSearch {
 public:
  OstergardSearch(const WeightedGraph& g, const CliqueConfig& cfg)
      : g_(g), cfg_(cfg), n_(g.size()), c_(n_, 0), suffix_(n_, Bitset(n_)) {
    const std::vector<std::size_t> color = reference::greedy_coloring(g);
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                if (color[a] != color[b]) return color[a] < color[b];
                const std::size_t da = g.degree(a), db = g.degree(b);
                if (da != db) return da > db;
                return a < b;
              });
    adj_.assign(n_, Bitset(n_));
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) {
        if (g.adjacent(order_[i], order_[j])) {
          adj_[i].set(j);
          adj_[j].set(i);
        }
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i; j < n_; ++j) suffix_[i].set(j);
    }
  }

  CliqueResult run() {
    if (n_ == 0) return {};
    for (std::size_t idx = n_; idx-- > 0;) {
      found_ = false;
      stack_.assign(1, idx);
      expand(adj_[idx] & suffix_[idx], 1, 0.0);
      c_[idx] = best_size_;
      if (aborted_) break;
    }
    CliqueResult result;
    for (std::size_t i : best_) result.vertices.push_back(order_[i]);
    std::sort(result.vertices.begin(), result.vertices.end());
    result.internal_weight = best_weight_;
    result.nodes_explored = nodes_;
    result.exact = !aborted_;
    return result;
  }

 private:
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

  bool hopeless(std::size_t optimistic) const {
    if (optimistic < best_size_) return true;
    return optimistic == best_size_ && !cfg_.weight_tie_break;
  }

  void expand(Bitset u, std::size_t size, double weight) {
    if (aborted_) return;
    if (++nodes_ > cfg_.node_budget) {
      aborted_ = true;
      return;
    }
    if (!u.any()) {
      record_leaf(size, weight);
      return;
    }
    while (u.any()) {
      if (hopeless(size + u.count())) return;
      const std::size_t i = u.first();
      if (hopeless(size + c_[i])) return;
      u.reset(i);
      double w2 = weight;
      for (std::size_t v : stack_) w2 += g_.weight(order_[i], order_[v]);
      stack_.push_back(i);
      expand(u & adj_[i], size + 1, w2);
      stack_.pop_back();
      if (aborted_) return;
      if (found_ && !cfg_.weight_tie_break) return;
    }
  }

  const WeightedGraph& g_;
  const CliqueConfig cfg_;
  std::size_t n_;
  std::vector<std::size_t> order_;
  std::vector<Bitset> adj_;
  std::vector<std::size_t> c_;
  std::vector<Bitset> suffix_;
  std::vector<std::size_t> stack_;
  std::vector<std::size_t> best_;
  std::size_t best_size_ = 0;
  double best_weight_ = -1.0;
  bool found_ = false;
  bool aborted_ = false;
  std::uint64_t nodes_ = 0;
};

/// Counter deltas the cover should add to the metrics bus.
struct Counts {
  std::uint64_t extractions = 0;
  std::uint64_t nodes = 0;
  std::uint64_t budget_exhausted = 0;
};

CliqueCoverResult clique_cover(const WeightedGraph& g,
                               const CliqueConfig& config, Counts* counts) {
  CliqueCoverResult cover;
  std::vector<std::size_t> to_original(g.size());
  std::iota(to_original.begin(), to_original.end(), std::size_t{0});
  WeightedGraph current = g;
  while (current.size() > 0) {
    const CliqueResult r = OstergardSearch(current, config).run();
    ++counts->extractions;
    counts->nodes += r.nodes_explored;
    if (!r.exact) ++counts->budget_exhausted;
    if (r.vertices.empty()) {
      throw std::logic_error("clique_cover: empty clique on non-empty graph");
    }
    cover.exact = cover.exact && r.exact;
    cover.nodes_explored += r.nodes_explored;
    if (r.vertices.size() == 1 && current.num_edges() == 0) {
      for (std::size_t v = 0; v < current.size(); ++v) {
        cover.cliques.push_back({to_original[v]});
      }
      break;
    }
    std::vector<std::size_t> originals;
    for (std::size_t v : r.vertices) originals.push_back(to_original[v]);
    cover.cliques.push_back(originals);
    std::vector<std::size_t> keep;
    current = reference::without(current, r.vertices, &keep);
    std::vector<std::size_t> next_map;
    for (std::size_t v : keep) next_map.push_back(to_original[v]);
    to_original = std::move(next_map);
  }
  return cover;
}

}  // namespace reference

// The reference search's bitset.
TEST(Bitset, SetResetTest) {
  reference::Bitset b(100);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, FirstBit) {
  reference::Bitset b(130);
  EXPECT_EQ(b.first(), 130u);  // empty -> capacity
  b.set(90);
  b.set(120);
  EXPECT_EQ(b.first(), 90u);
  b.set(5);
  EXPECT_EQ(b.first(), 5u);
}

TEST(Bitset, Intersection) {
  reference::Bitset a(70), b(70);
  a.set(3);
  a.set(65);
  a.set(20);
  b.set(65);
  b.set(20);
  b.set(1);
  const reference::Bitset c = a & b;
  EXPECT_EQ(c.count(), 2u);
  EXPECT_TRUE(c.test(65));
  EXPECT_TRUE(c.test(20));
  EXPECT_FALSE(c.test(3));
}

TEST(Bitset, ForEachSetVisitsBitsInAscendingOrder) {
  reference::Bitset b(130);
  for (std::size_t i : {129u, 0u, 64u, 63u, 65u, 7u}) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 7, 63, 64, 65, 129}));

  seen.clear();
  reference::Bitset(70).for_each_set(
      [&](std::size_t i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST(Bitset, BoundsChecked) {
  reference::Bitset b(10);
  EXPECT_THROW(b.set(10), std::invalid_argument);
  EXPECT_THROW(b.test(10), std::invalid_argument);
  reference::Bitset other(11);
  EXPECT_THROW(b &= other, std::invalid_argument);
}

reference::Counts bus_counts() {
  reference::Counts counts;
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name == "social.clique_extractions") counts.extractions = s.count;
    if (s.name == "social.clique_nodes_explored") counts.nodes = s.count;
    if (s.name == "social.clique_budget_exhausted") {
      counts.budget_exhausted = s.count;
    }
  }
  return counts;
}

/// Checks clique_cover, max_clique and greedy_coloring against the
/// reference on one graph and configuration, counters included.
void expect_matches_reference(const WeightedGraph& g, const CliqueConfig& cfg,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(greedy_coloring(g), reference::greedy_coloring(g));

  const CliqueResult want = reference::OstergardSearch(g, cfg).run();
  const reference::Counts before_max = bus_counts();
  const CliqueResult got = max_clique(g, cfg);
  const reference::Counts after_max = bus_counts();
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.internal_weight, want.internal_weight);
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(after_max.extractions - before_max.extractions, 1u);
  EXPECT_EQ(after_max.nodes - before_max.nodes, want.nodes_explored);
  EXPECT_EQ(after_max.budget_exhausted - before_max.budget_exhausted,
            want.exact ? 0u : 1u);

  reference::Counts want_counts;
  const CliqueCoverResult want_cover =
      reference::clique_cover(g, cfg, &want_counts);
  const reference::Counts before = bus_counts();
  const CliqueCoverResult got_cover = clique_cover(g, cfg);
  const reference::Counts after = bus_counts();
  EXPECT_EQ(got_cover.cliques, want_cover.cliques);
  EXPECT_EQ(got_cover.exact, want_cover.exact);
  EXPECT_EQ(got_cover.nodes_explored, want_cover.nodes_explored);
  EXPECT_EQ(after.extractions - before.extractions, want_counts.extractions);
  EXPECT_EQ(after.nodes - before.nodes, want_counts.nodes);
  EXPECT_EQ(after.budget_exhausted - before.budget_exhausted,
            want_counts.budget_exhausted);
}

/// Weight from a small set, so that clique weights tie often.
double coarse_weight(util::Rng& rng) {
  return 0.25 * static_cast<double>(1 + rng.index(4));
}

/// Communities of 4-24 members, dense inside and sparsely linked to
/// each other, so most vertices fall in one giant component.
WeightedGraph community_graph(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> community(n);
  std::size_t id = 0;
  for (std::size_t v = 0; v < n;) {
    const std::size_t size = 4 + rng.index(21);
    for (std::size_t k = 0; k < size && v < n; ++k) community[v++] = id;
    ++id;
  }
  WeightedGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double p = community[i] == community[j] ? 0.55 : 0.012;
      if (rng.bernoulli(p)) g.add_edge(i, j, rng.uniform(0.3, 1.0));
    }
  }
  return g;
}

TEST(MaxClique, EmptyGraph) {
  const CliqueResult r = max_clique(WeightedGraph(0));
  EXPECT_TRUE(r.vertices.empty());
  EXPECT_TRUE(r.exact);
}

TEST(MaxClique, SingleVertex) {
  const CliqueResult r = max_clique(WeightedGraph(1));
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{0}));
}

TEST(MaxClique, NoEdgesGivesSingleton) {
  const CliqueResult r = max_clique(WeightedGraph(5));
  EXPECT_EQ(r.vertices.size(), 1u);
}

TEST(MaxClique, Triangle) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r.internal_weight, 3.0);
}

TEST(MaxClique, CompleteGraph) {
  WeightedGraph g(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) g.add_edge(i, j, 0.5);
  }
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices.size(), 8u);
  EXPECT_TRUE(r.exact);
}

TEST(MaxClique, StarGraphGivesPair) {
  WeightedGraph g(6);
  for (std::size_t leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf, 1.0);
  const CliqueResult r = max_clique(g);
  EXPECT_EQ(r.vertices.size(), 2u);
}

TEST(MaxClique, WeightTieBreakPicksHeavier) {
  // Two disjoint triangles; the second is heavier.
  WeightedGraph g(6);
  g.add_edge(0, 1, 0.1);
  g.add_edge(1, 2, 0.1);
  g.add_edge(0, 2, 0.1);
  g.add_edge(3, 4, 0.9);
  g.add_edge(4, 5, 0.9);
  g.add_edge(3, 5, 0.9);
  CliqueConfig cfg;
  cfg.weight_tie_break = true;
  const CliqueResult r = max_clique(g, cfg);
  EXPECT_EQ(r.vertices, (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_NEAR(r.internal_weight, 2.7, 1e-12);
}

TEST(MaxClique, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4 + rng.index(12);
    const double p = rng.uniform(0.2, 0.8);
    const WeightedGraph g = random_graph(n, p, rng);
    const CliqueResult r = max_clique(g);
    ASSERT_TRUE(r.exact);
    EXPECT_TRUE(g.is_clique(r.vertices));
    EXPECT_EQ(r.vertices.size(), brute_force_max_clique_size(g))
        << "n=" << n << " p=" << p << " trial=" << trial;
  }
}

TEST(MaxClique, ResultIsAlwaysAClique) {
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const WeightedGraph g = random_graph(30, 0.5, rng);
    const CliqueResult r = max_clique(g);
    EXPECT_TRUE(g.is_clique(r.vertices));
    EXPECT_NEAR(r.internal_weight, g.internal_weight(r.vertices), 1e-9);
  }
}

TEST(MaxClique, NodeBudgetFallsBackGracefully) {
  util::Rng rng(9);
  const WeightedGraph g = random_graph(40, 0.7, rng);
  CliqueConfig cfg;
  cfg.node_budget = 50;  // absurdly small
  const CliqueResult r = max_clique(g, cfg);
  EXPECT_FALSE(r.exact);
  EXPECT_FALSE(r.vertices.empty());
  EXPECT_TRUE(g.is_clique(r.vertices));
}

TEST(MaxClique, BudgetExhaustionBumpsTheMetricsCounter) {
  util::Rng rng(9);
  const WeightedGraph g = random_graph(40, 0.7, rng);
  CliqueConfig cfg;
  cfg.node_budget = 50;
  util::metrics().reset();
  (void)max_clique(g, cfg);
  std::uint64_t exhausted = 0;
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name == "social.clique_budget_exhausted") exhausted = s.count;
  }
  EXPECT_EQ(exhausted, 1u);
}

TEST(GreedyColoring, ProperColoring) {
  util::Rng rng(5);
  const WeightedGraph g = random_graph(25, 0.4, rng);
  const auto color = greedy_coloring(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t j = i + 1; j < g.size(); ++j) {
      if (g.adjacent(i, j)) {
        EXPECT_NE(color[i], color[j]);
      }
    }
  }
}

TEST(GreedyColoring, CompleteGraphUsesNColors) {
  WeightedGraph g(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) g.add_edge(i, j, 1.0);
  }
  const auto color = greedy_coloring(g);
  std::set<std::size_t> used(color.begin(), color.end());
  EXPECT_EQ(used.size(), 5u);
}

TEST(CliqueCover, PartitionsAllVertices) {
  util::Rng rng(11);
  const WeightedGraph g = random_graph(20, 0.4, rng);
  const auto cover = clique_cover(g).cliques;
  std::vector<bool> seen(20, false);
  for (const auto& clique : cover) {
    EXPECT_TRUE(g.is_clique(clique));
    for (std::size_t v : clique) {
      EXPECT_FALSE(seen[v]) << "vertex covered twice";
      seen[v] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(CliqueCover, ExtractionOrderIsNonIncreasingSize) {
  util::Rng rng(13);
  const WeightedGraph g = random_graph(24, 0.5, rng);
  const auto cover = clique_cover(g).cliques;
  for (std::size_t i = 1; i < cover.size(); ++i) {
    EXPECT_LE(cover[i].size(), cover[i - 1].size());
  }
}

TEST(CliqueCover, TwoTrianglesAndIsolated) {
  WeightedGraph g(7);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(4, 5, 2.0);
  g.add_edge(3, 5, 2.0);
  const auto cover = clique_cover(g).cliques;
  ASSERT_EQ(cover.size(), 3u);
  EXPECT_EQ(cover[0], (std::vector<std::size_t>{3, 4, 5}));  // heavier first
  EXPECT_EQ(cover[1], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(cover[2], (std::vector<std::size_t>{6}));
}

TEST(CliqueCover, EmptyGraph) {
  EXPECT_TRUE(clique_cover(WeightedGraph(0)).cliques.empty());
}

TEST(CliqueCover, AllIsolatedVertices) {
  const auto cover = clique_cover(WeightedGraph(4)).cliques;
  EXPECT_EQ(cover.size(), 4u);
  for (const auto& c : cover) EXPECT_EQ(c.size(), 1u);
}

/// This process's peak resident set size so far, in bytes (Linux
/// reports ru_maxrss in KiB).
std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

// Memory guard: 10,000 vertices and 560 edges. A cover must cost memory
// in proportion to vertices plus edges; an n × n weight matrix alone
// would be 800 MB here. ctest runs each case in its own process, so the
// peak reading covers this case only. Keep n at 10,000: a much larger
// graph would make an O(n²) implementation ask for tens of GB, which an
// overcommitting host may grant and then kill rather than refuse.
TEST(CliqueCover, MemoryFollowsVerticesAndEdgesNotVertexPairs) {
  constexpr std::size_t kVertices = 10'000;
  constexpr std::size_t kCliques = 20;
  constexpr std::size_t kCliqueSize = 8;
  constexpr std::size_t kSpacing = kVertices / kCliques;
  constexpr std::size_t kGrowthBound = std::size_t{64} << 20;

  const std::size_t before = peak_rss_bytes();
  WeightedGraph g(kVertices);
  for (std::size_t k = 0; k < kCliques; ++k) {
    // Distinct weights: the heaviest clique is extracted first.
    const double w = 0.31 + 0.01 * static_cast<double>(k);
    for (std::size_t i = 0; i < kCliqueSize; ++i) {
      for (std::size_t j = i + 1; j < kCliqueSize; ++j) {
        g.add_edge(k * kSpacing + i, k * kSpacing + j, w);
      }
    }
  }
  const CliqueCoverResult cover = clique_cover(g);
  const std::size_t growth = peak_rss_bytes() - before;

  std::vector<std::vector<std::size_t>> want;
  for (std::size_t k = kCliques; k-- > 0;) {
    std::vector<std::size_t>& clique = want.emplace_back();
    for (std::size_t i = 0; i < kCliqueSize; ++i) {
      clique.push_back(k * kSpacing + i);
    }
  }
  for (std::size_t v = 0; v < kVertices; ++v) {
    if (v % kSpacing >= kCliqueSize) want.push_back({v});
  }
  EXPECT_EQ(cover.cliques, want);
  EXPECT_TRUE(cover.exact);
  EXPECT_LT(growth, kGrowthBound)
      << "peak RSS grew by " << (growth >> 20) << " MiB";
}

// --- Differential: the residual cover against the reference ----------

/// v's neighbours after v in the first extraction's search order:
/// colour ascending, then degree descending, then index.
std::size_t later_neighbours(const WeightedGraph& g, std::size_t v) {
  const std::vector<std::size_t> colour = greedy_coloring(g);
  const auto before = [&](std::size_t a, std::size_t b) {
    if (colour[a] != colour[b]) return colour[a] < colour[b];
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  };
  std::size_t count = 0;
  for (const Neighbor& nb : g.neighbors(v)) count += before(v, nb.id) ? 1 : 0;
  return count;
}

/// A hub adjacent to `hub_degree` vertices, each of which has one
/// pendant neighbour, plus random edges among the hub's neighbours at
/// density p; vertex ids are shuffled. The colouring takes the hub
/// first (largest degree) and gives it colour 1, because its uncoloured
/// neighbours mark colour 0; each neighbour still has its uncoloured
/// pendant when coloured, so none gets colour 0 or 1. The hub is then
/// the only colour-1 vertex and every neighbour follows it in the
/// search order: its root has hub_degree later neighbours.
WeightedGraph hub_graph(std::size_t hub_degree, double p, bool coarse,
                        util::Rng& rng, std::size_t* hub) {
  const std::size_t n = 1 + 2 * hub_degree;
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), std::size_t{0});
  for (std::size_t k = n; k > 1; --k) std::swap(id[k - 1], id[rng.index(k)]);
  const auto weight = [&] {
    return coarse ? coarse_weight(rng) : rng.uniform(0.1, 1.0);
  };
  WeightedGraph g(n);
  *hub = id[0];
  for (std::size_t k = 1; k <= hub_degree; ++k) {
    g.add_edge(id[0], id[k], weight());
    g.add_edge(id[k], id[hub_degree + k], weight());  // the pendant
    for (std::size_t j = k + 1; j <= hub_degree; ++j) {
      if (rng.bernoulli(p)) g.add_edge(id[k], id[j], weight());
    }
  }
  return g;
}

TEST(CliqueCoverDifferential, WordBoundarySizes) {
  util::Rng rng(101);
  for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    for (const double p : {0.05, 0.15, 0.3}) {
      const WeightedGraph g = random_graph(n, p, rng);
      expect_matches_reference(g, CliqueConfig{},
                               "n=" + std::to_string(n) +
                                   " p=" + std::to_string(p));
    }
  }

  // Rows one, two and three words wide: a root whose later-neighbour
  // count sits on each side of a word boundary.
  util::Rng hub_rng(111);
  for (const std::size_t hub_degree : {63u, 64u, 65u, 128u, 129u}) {
    for (const double p : {0.15, 0.35}) {
      const bool coarse = p > 0.3;
      std::size_t hub = 0;
      const WeightedGraph g = hub_graph(hub_degree, p, coarse, hub_rng, &hub);
      ASSERT_EQ(later_neighbours(g, hub), hub_degree);
      CliqueConfig cfg;
      cfg.node_budget = 200'000;  // bounds the reference's densest covers
      expect_matches_reference(g, cfg,
                               "hub degree " + std::to_string(hub_degree) +
                                   " p=" + std::to_string(p) +
                                   (coarse ? " coarse weights" : ""));
    }
  }
}

TEST(CliqueCoverDifferential, SparseCommunitiesWithOneGiantComponent) {
  util::Rng rng(202);
  for (const std::size_t n : {200u, 320u}) {
    const WeightedGraph g = community_graph(n, rng);
    expect_matches_reference(g, CliqueConfig{},
                             "communities n=" + std::to_string(n));
    CliqueConfig no_ties;
    no_ties.weight_tie_break = false;
    expect_matches_reference(g, no_ties,
                             "communities, no tie-break, n=" +
                                 std::to_string(n));
  }
}

TEST(CliqueCoverDifferential, DenseGraphsAndEqualWeights) {
  util::Rng rng(303);
  for (const std::size_t n : {24u, 40u, 65u}) {
    for (const double p : {0.6, 0.8}) {
      WeightedGraph equal(n), coarse(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (rng.bernoulli(p)) {
            equal.add_edge(i, j, 1.0);
            coarse.add_edge(i, j, coarse_weight(rng));
          }
        }
      }
      CliqueConfig cfg;
      cfg.node_budget = 200'000;  // bounds the densest searches
      const std::string label =
          "n=" + std::to_string(n) + " p=" + std::to_string(p);
      expect_matches_reference(equal, cfg, "equal weights " + label);
      expect_matches_reference(coarse, cfg, "coarse weights " + label);
    }
  }
}

TEST(CliqueCoverDifferential, TieBreakOff) {
  util::Rng rng(404);
  CliqueConfig cfg;
  cfg.weight_tie_break = false;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 20 + rng.index(120);
    const WeightedGraph g = random_graph(n, rng.uniform(0.05, 0.5), rng);
    expect_matches_reference(g, cfg, "trial " + std::to_string(trial));
  }
}

TEST(CliqueCoverDifferential, NodeBudgetsAbortMidCover) {
  util::Rng rng(505);
  const WeightedGraph sparse = community_graph(150, rng);
  const WeightedGraph dense = random_graph(70, 0.6, rng);
  for (const std::uint64_t budget : {1u, 2u, 7u, 60u, 900u}) {
    for (const bool tie_break : {true, false}) {
      CliqueConfig cfg;
      cfg.node_budget = budget;
      cfg.weight_tie_break = tie_break;
      const std::string label = "budget=" + std::to_string(budget) +
                                " tie_break=" + std::to_string(tie_break);
      expect_matches_reference(sparse, cfg, "sparse " + label);
      expect_matches_reference(dense, cfg, "dense " + label);
    }
  }
}

TEST(CliqueCoverDifferential, ZeroBudgetFailsLikeTheReference) {
  util::Rng rng(606);
  const WeightedGraph g = random_graph(30, 0.3, rng);
  CliqueConfig cfg;
  cfg.node_budget = 0;
  const CliqueResult want = reference::OstergardSearch(g, cfg).run();
  const CliqueResult got = max_clique(g, cfg);
  EXPECT_TRUE(got.vertices.empty());
  EXPECT_EQ(got.internal_weight, want.internal_weight);
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
  EXPECT_FALSE(got.exact);
  reference::Counts counts;
  EXPECT_THROW(reference::clique_cover(g, cfg, &counts), std::logic_error);
  EXPECT_THROW(clique_cover(g, cfg), std::logic_error);
}

TEST(CliqueCoverDifferential, IsolatedVerticesAndEdgelessGraphs) {
  for (const std::size_t n : {0u, 1u, 2u, 64u, 65u, 130u}) {
    expect_matches_reference(WeightedGraph(n), CliqueConfig{},
                             "edgeless n=" + std::to_string(n));
  }
  CliqueConfig tight;
  tight.node_budget = 10;
  expect_matches_reference(WeightedGraph(40), tight, "edgeless, budget 10");

  // A few cliques among many isolated vertices, on both sides of a
  // word boundary.
  util::Rng rng(707);
  WeightedGraph g(140);
  for (std::size_t base : {3u, 60u, 126u}) {
    for (std::size_t i = base; i < base + 5; ++i) {
      for (std::size_t j = i + 1; j < base + 5; ++j) {
        g.add_edge(i, j, coarse_weight(rng));
      }
    }
  }
  g.add_edge(100, 139, 0.5);
  expect_matches_reference(g, CliqueConfig{}, "cliques among isolated");
  CliqueConfig no_ties;
  no_ties.weight_tie_break = false;
  expect_matches_reference(g, no_ties, "cliques among isolated, no ties");
}

TEST(CliqueCoverDifferential, SeededSweep) {
  util::Rng rng(808);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + rng.index(90);
    const double p = rng.uniform(0.0, 0.7);
    WeightedGraph g(n);
    const bool coarse = rng.bernoulli(0.5);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(p)) {
          g.add_edge(i, j, coarse ? coarse_weight(rng) : rng.uniform(0.1, 1.0));
        }
      }
    }
    CliqueConfig cfg;
    cfg.weight_tie_break = rng.bernoulli(0.7);
    cfg.node_budget = rng.bernoulli(0.25) ? 1 + rng.index(400) : 100'000;
    expect_matches_reference(g, cfg, "trial " + std::to_string(trial));
  }
}

// Property sweep across densities: solver exactness and cover sanity.
class CliquePropertyTest
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(CliquePropertyTest, ExactAndConsistent) {
  const auto [n, p] = GetParam();
  util::Rng rng(n * 1000 + static_cast<std::uint64_t>(p * 100));
  const WeightedGraph g = random_graph(n, p, rng);
  const CliqueResult r = max_clique(g);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(g.is_clique(r.vertices));
  if (n <= 16) {
    EXPECT_EQ(r.vertices.size(), brute_force_max_clique_size(g));
  }
  const auto cover = clique_cover(g).cliques;
  std::size_t covered = 0;
  for (const auto& c : cover) covered += c.size();
  EXPECT_EQ(covered, n);
  EXPECT_EQ(cover.front().size(), r.vertices.size());
}

INSTANTIATE_TEST_SUITE_P(
    Densities, CliquePropertyTest,
    ::testing::Values(std::pair<std::size_t, double>{8, 0.2},
                      std::pair<std::size_t, double>{12, 0.5},
                      std::pair<std::size_t, double>{16, 0.8},
                      std::pair<std::size_t, double>{32, 0.3},
                      std::pair<std::size_t, double>{48, 0.15}));

}  // namespace
}  // namespace s3::social
