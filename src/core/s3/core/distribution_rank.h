// How S3Selector ranks and keeps clique distributions (Algorithm 1,
// lines 5–7). Internal to the selector; declared here so the property
// tests can drive the rank and keep steps on arrays of their own.
//
// Distributions rank in total orders, so no library algorithm's
// treatment of equal keys can reach a placement: leaves by (cost,
// index), beam nodes by (cost, parent, candidate). Selection and a full
// sort then pick the same leaves.
#pragma once

#include <cstddef>
#include <span>

namespace s3::core::detail {

/// Costs this close to the last kept one are kept with it.
inline constexpr double kCostEps = 1e-12;

/// A feasible complete distribution: its total cost, and its
/// lexicographic index (exact search) or its node in the final level
/// (beam), which breaks cost ties.
struct Leaf {
  double cost;
  std::size_t index;
};

/// One beam node: the next member on its `candidate`-th candidate,
/// extending node `parent` of the previous level (the root is node 0).
/// Infeasible nodes carry infinite cost.
struct BeamNode {
  double cost;
  std::size_t parent;
  std::size_t candidate;
  bool feasible;
};

inline bool leaf_before(const Leaf& a, const Leaf& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.index < b.index;
}

inline bool node_before(const BeamNode& a, const BeamNode& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.parent != b.parent) return a.parent < b.parent;
  return a.candidate < b.candidate;
}

/// Moves the `beam_width` first nodes of `level` under node_before to
/// its front, sorted by it, so the next level's parents are positions
/// no library chose; the caller drops the rest. A level that fits is
/// left in generation order, (parent, candidate).
void reduce_level(std::span<BeamNode> level, std::size_t beam_width);

/// Moves the kept leaves to the front of `leaves`, in no particular
/// order, and returns their count: the max(1, ⌈top_fraction·n⌉) first
/// under leaf_before, extended by every leaf whose cost lies within
/// kCostEps of the largest kept cost until none joins. That is the
/// prefix a full sort would keep with a boundary walk over ties.
std::size_t keep_cheapest(std::span<Leaf> leaves, double top_fraction);

/// The leaf of `kept` (non-empty) with the largest β′, `beta(leaf)`;
/// between equal β′, the first under leaf_before: the leaf a full sort
/// lists first.
template <typename Beta>
const Leaf& best_balanced(std::span<const Leaf> kept, Beta&& beta) {
  const Leaf* best = &kept.front();
  double best_beta = beta(*best);
  for (const Leaf& leaf : kept.subspan(1)) {
    const double b = beta(leaf);
    if (b > best_beta || (b == best_beta && leaf_before(leaf, *best))) {
      best = &leaf;
      best_beta = b;
    }
  }
  return *best;
}

}  // namespace s3::core::detail
