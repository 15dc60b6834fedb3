// Maximum clique and iterative clique cover (§IV-A).
//
// S3 reduces social dispersion to repeatedly extracting a maximum
// clique from the social graph. The solver is Östergård's exact
// branch-and-bound [25]: vertices are ordered by a greedy colouring,
// the search runs over vertex suffixes, and c[i] — the maximum clique
// size within suffix {v_i..v_n} — prunes branches. Among maximum
// cliques the paper prefers the one with the largest internal edge
// weight; the search therefore also explores equal-size candidates and
// keeps the heaviest.
//
// An explicit node budget guards against pathological batch graphs:
// when exceeded, the solver falls back to the best clique found so far
// (still a valid clique; S3's correctness never depends on optimality).
#pragma once

#include <cstdint>
#include <vector>

#include "s3/social/graph.h"

namespace s3::social {

struct CliqueResult {
  std::vector<std::size_t> vertices;  ///< ascending order
  double internal_weight = 0.0;
  std::uint64_t nodes_explored = 0;
  bool exact = true;  ///< false if the node budget expired
};

struct CliqueConfig {
  std::uint64_t node_budget = 2'000'000;
  /// Break ties between maximum cliques by internal edge weight (the
  /// paper's rule). Costs extra exploration; disable for pure speed.
  bool weight_tie_break = true;
};

/// Finds a maximum clique (empty graph -> empty clique; any isolated
/// vertex still forms a clique of size 1).
CliqueResult max_clique(const WeightedGraph& g, const CliqueConfig& config = {});

/// Greedy colouring used for the search order; returns the colour of
/// each vertex (count = 1 + max entry). Exposed for tests.
std::vector<std::size_t> greedy_coloring(const WeightedGraph& g);

/// Clique cover plus the exactness/exploration telemetry of every
/// extraction. `exact` is false as soon as any max_clique call hit the
/// node budget — consumers (S3Selector, the runtime's degradation
/// machinery) treat such a cover as reduced-fidelity. Every non-exact
/// extraction also bumps the `social.clique_budget_exhausted` counter
/// on the metrics bus.
struct CliqueCoverResult {
  std::vector<std::vector<std::size_t>> cliques;  ///< extraction order
  bool exact = true;
  std::uint64_t nodes_explored = 0;
};

/// Iterative clique cover: repeatedly extract a maximum clique (ties
/// broken by weight) and delete it, until the graph is empty (§IV-A's
/// procedure). Singleton vertices come out as size-1 cliques at the
/// end. Cliques are reported in extraction order, each sorted
/// ascending. `g` is not copied: every extraction runs on one residual
/// view of it, updated in place as cliques are removed (DESIGN.md §18).
CliqueCoverResult clique_cover(const WeightedGraph& g,
                               const CliqueConfig& config = {});

}  // namespace s3::social
