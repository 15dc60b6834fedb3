#include "s3/core/s3_selector.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

#include "s3/analysis/balance.h"
#include "s3/core/distribution_rank.h"
#include "s3/util/metrics.h"

namespace s3::core {

namespace {

using detail::BeamNode;
using detail::kCostEps;
using detail::Leaf;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct S3Metrics {
  util::Timer* clique_cover;
  util::Counter* distributions;
  util::Counter* exact_enumerations;
  util::Counter* beam_searches;
  util::Histogram* clique_size;
};

const S3Metrics& s3_metrics() {
  static const S3Metrics m{
      util::metrics().timer("core.s3.clique_cover_ns"),
      util::metrics().counter("core.s3.distributions_enumerated"),
      util::metrics().counter("core.s3.exact_enumerations"),
      util::metrics().counter("core.s3.beam_searches"),
      util::metrics().histogram("core.s3.clique_size"),
  };
  return m;
}

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Algorithm 1's distribution search over one clique, on flat tables
// built once for the clique. A distribution is one candidate index per
// member; its cost is Σ over members of C(AP) against the committed
// state plus θ to the earlier members sharing its AP. No distribution
// allocates or hashes: the exact search is a depth-first walk with a
// running cost and per-AP added-demand accumulators, the beam search
// a level-by-level frontier of flat nodes.
//
// Placements are byte-identical to a level-by-level build over
// per-distribution choice vectors (the reference the differential test
// in s3_selector_test.cpp keeps), because both
//   * list feasible leaves in the same order (member order, candidates
//     ascending) and rank leaves and beam nodes in the same total
//     orders (distribution_rank.h), so selection here and a full sort
//     there keep the same leaves;
//   * form every sum in the same order: a member's added demand per AP
//     from 0.0 in member order, its step as C(AP) plus θ in member
//     order, the total as the parent's cost plus the step.
// The walk restores saved accumulator values on backtrack rather than
// subtracting, which would not round-trip.
struct CliqueSearch {
  bool respect_bandwidth;  ///< S3Config::respect_bandwidth
  // Per member k; k's candidates are [offset[k], offset[k + 1]) in the
  // per-candidate tables.
  std::vector<double> demand;
  std::vector<std::size_t> offset;
  std::vector<double> theta;  ///< m × m intra-clique θ, row-major
  // Per (member, candidate).
  std::vector<double> base_cost;  ///< C(AP) against the committed state
  std::vector<std::size_t> slot;  ///< dense AP slot within the clique
  std::vector<double> headroom;   ///< committed headroom of the AP
  std::vector<std::size_t> domain_slot;  ///< index in the domain, or kNone
  /// Per AP slot: demand added by the members placed so far.
  std::vector<double> added;
  // Walk state per member.
  std::vector<std::size_t> choice;
  std::vector<std::size_t> chosen_slot;
  std::vector<double> cost_before;
  std::vector<std::size_t> index_before;
  std::vector<double> saved_added;

  std::vector<BeamNode> nodes;
  std::vector<std::size_t> level_begin;
  std::vector<Leaf> leaves;

  CliqueSearch(std::size_t m, bool check_bandwidth)
      : respect_bandwidth(check_bandwidth),
        demand(m),
        offset(1, 0),
        theta(m * m, 0.0),
        choice(m),
        chosen_slot(m),
        cost_before(m),
        index_before(m),
        saved_added(m) {}

  std::size_t members() const noexcept { return demand.size(); }
  std::size_t candidates(std::size_t k) const noexcept {
    return offset[k + 1] - offset[k];
  }

  /// False when member k on table entry i would break Σ w(u) ≤ W(i)
  /// given the demand the placed members already add to its AP.
  bool fits(std::size_t k, std::size_t i) const {
    return !respect_bandwidth ||
           !(headroom[i] - added[slot[i]] < demand[k]);
  }

  /// Cost step of member k on table entry i: C(AP) plus θ to every
  /// earlier member placed on the same AP, in member order.
  double step(std::size_t k, std::size_t i) const {
    const std::size_t m = members();
    double cost = base_cost[i];
    for (std::size_t p = 0; p < k; ++p) {
      if (chosen_slot[p] == slot[i]) cost += theta[k * m + p];
    }
    return cost;
  }

  /// Exhaustive search; returns the distributions the level-by-level
  /// build enumerates (Σ_k Π_{j≤k} |candidates_j|, infeasible included).
  std::size_t walk_exact() {
    const std::size_t m = members();
    std::size_t enumerated = 0;
    std::size_t level = 1;
    for (std::size_t k = 0; k < m; ++k) {
      level *= candidates(k);
      enumerated += level;
    }
    leaves.reserve(level);
    std::size_t k = 0;
    choice[0] = 0;
    cost_before[0] = 0.0;
    index_before[0] = 0;
    for (;;) {
      if (choice[k] == candidates(k)) {
        if (k == 0) break;
        --k;
        added[chosen_slot[k]] = saved_added[k];
        ++choice[k];
        continue;
      }
      const std::size_t i = offset[k] + choice[k];
      if (!fits(k, i)) {
        ++choice[k];  // every leaf below is infeasible
        continue;
      }
      const double cost = cost_before[k] + step(k, i);
      const std::size_t index = index_before[k] + choice[k];
      if (k + 1 == m) {
        leaves.push_back({cost, index});
        ++choice[k];
        continue;
      }
      chosen_slot[k] = slot[i];
      saved_added[k] = added[slot[i]];
      added[slot[i]] += demand[k];
      ++k;
      choice[k] = 0;
      cost_before[k] = cost;
      index_before[k] = index * candidates(k);
    }
    return enumerated;
  }

  /// Loads node q's choices of members [0, level) into `chosen_slot`
  /// and `choice`, and their added demand into `added`.
  void load_path(std::size_t q, std::size_t level) {
    for (std::size_t p = level; p-- > 0;) {
      choice[p] = nodes[q].candidate;
      chosen_slot[p] = slot[offset[p] + choice[p]];
      q = nodes[q].parent;
    }
    std::fill(added.begin(), added.end(), 0.0);
    for (std::size_t p = 0; p < level; ++p) {
      added[chosen_slot[p]] += demand[p];
    }
  }

  /// Beam search: level k extends every kept node of level k-1 by every
  /// candidate of member k, in (parent, candidate) order. A level wider
  /// than the beam keeps its `beam_width` first nodes under
  /// node_before (detail::reduce_level). Infeasible nodes stay in the
  /// frontier at infinite cost and rank last. Returns the distributions
  /// enumerated.
  std::size_t walk_beam(std::size_t beam_width) {
    const std::size_t m = members();
    nodes.assign(1, BeamNode{0.0, kNone, kNone, true});
    level_begin.assign(1, 0);
    std::size_t enumerated = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t begin = level_begin[k];
      const std::size_t end = nodes.size();
      for (std::size_t q = begin; q < end; ++q) {
        const BeamNode parent = nodes[q];
        if (parent.feasible) load_path(q, k);
        for (std::size_t c = 0; c < candidates(k); ++c) {
          BeamNode e{kInf, q, c, false};
          const std::size_t i = offset[k] + c;
          if (parent.feasible && fits(k, i)) {
            e.cost = parent.cost + step(k, i);
            e.feasible = true;
          }
          nodes.push_back(e);
        }
      }
      enumerated += nodes.size() - end;
      if (nodes.size() - end > beam_width) {
        detail::reduce_level(std::span<BeamNode>(nodes).subspan(end),
                             beam_width);
        nodes.resize(end + beam_width);
      }
      level_begin.push_back(end);
    }
    for (std::size_t q = level_begin[m]; q < nodes.size(); ++q) {
      if (nodes[q].feasible) leaves.push_back({nodes[q].cost, q});
    }
    return enumerated;
  }

  /// Loads a leaf's per-member candidate indices into `choice`.
  void load_choices(const Leaf& leaf, bool exact) {
    const std::size_t m = members();
    if (!exact) {
      load_path(leaf.index, m);
      return;
    }
    std::size_t index = leaf.index;
    for (std::size_t k = m; k-- > 0;) {
      choice[k] = index % candidates(k);
      index /= candidates(k);
    }
  }
};

}  // namespace

namespace detail {

void reduce_level(std::span<BeamNode> level, std::size_t beam_width) {
  if (level.size() <= beam_width) return;
  const auto kept = level.begin() + static_cast<std::ptrdiff_t>(beam_width);
  // s3lint: allow(det-sort-ties): total order: (cost, parent, candidate)
  std::nth_element(level.begin(), kept, level.end(), node_before);
  // s3lint: allow(det-sort-ties): total order: (cost, parent, candidate)
  std::sort(level.begin(), kept, node_before);
}

std::size_t keep_cheapest(std::span<Leaf> leaves, double top_fraction) {
  const std::size_t n = leaves.size();
  std::size_t keep = std::min(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(std::ceil(
                    static_cast<double>(n) * top_fraction))));
  if (keep == n) return n;
  // The last kept leaf under leaf_before lands at keep - 1, every
  // earlier one before it.
  const auto last = leaves.begin() + static_cast<std::ptrdiff_t>(keep - 1);
  // s3lint: allow(det-sort-ties): total order: (cost, index)
  std::nth_element(leaves.begin(), last, leaves.end(), leaf_before);
  // Extend across cost ties at the boundary so the balance tie-break
  // sees every distribution as cheap as the last kept one. Each round
  // takes every leaf within kCostEps of the largest kept cost, which is
  // what a walk over the sorted leaves takes one at a time.
  double bound = last->cost;
  while (keep < n) {
    const auto rest = leaves.begin() + static_cast<std::ptrdiff_t>(keep);
    const auto joined = std::partition(rest, leaves.end(), [&](const Leaf& l) {
      return l.cost <= bound + kCostEps;
    });
    if (joined == rest) break;
    for (auto it = rest; it != joined; ++it) bound = std::max(bound, it->cost);
    keep = static_cast<std::size_t>(joined - leaves.begin());
  }
  return keep;
}

}  // namespace detail

S3Selector::S3Selector(const wlan::Network* net,
                       const social::ThetaProvider* model, S3Config config)
    : net_(net), model_(model), config_(config), llf_(config.llf_metric) {
  S3_REQUIRE(net_ != nullptr, "S3Selector: null network");
  S3_REQUIRE(model_ != nullptr, "S3Selector: null model");
  S3_REQUIRE(config_.theta_threshold >= 0.0, "S3Selector: bad threshold");
  S3_REQUIRE(config_.top_fraction > 0.0 && config_.top_fraction <= 1.0,
             "S3Selector: top_fraction outside (0,1]");
  S3_REQUIRE(config_.beam_width >= 1, "S3Selector: beam_width must be >= 1");
}

// C(AP) counts only *close* relations (θ above the graph's edge
// threshold) unless threshold < 0. The type prior alone gives every
// pair a small positive θ; summing those would turn C into a
// station-count proxy and make S3 fight LLF's traffic balancing for
// users with no real ties — exactly the case the pseudocode routes to
// LLF ("if there are multiple candidate APs to choose, apply LLF").
// The stations of every AP are gathered into one row and scored with a
// single theta_row call, so the pair-table misses of all the arrival's
// APs overlap. Each AP's segment is summed in station order from 0.0,
// so every cost is bit-identical to a per-AP row's sum.
void S3Selector::social_costs(const sim::BatchOverlay& loads, UserId user,
                              std::span<const ApId> aps,
                              std::vector<double>& costs) {
  const double threshold =
      config_.count_weak_ties_in_cost ? -1.0 : config_.theta_threshold;
  row_users_.clear();
  row_ends_.clear();
  for (const ApId ap : aps) {
    loads.for_each_station(ap, [&](const sim::ActiveStation& st) {
      row_users_.push_back(st.user);
    });
    row_ends_.push_back(row_users_.size());
  }
  if (row_theta_.size() < row_users_.size()) {
    row_theta_.resize(row_users_.size());
  }
  if (!row_users_.empty()) {
    model_->theta_row(user, row_users_,
                      std::span<double>(row_theta_).first(row_users_.size()));
  }
  costs.clear();
  std::size_t begin = 0;
  for (const std::size_t end : row_ends_) {
    double cost = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double th = row_theta_[i];
      if (threshold < 0.0 || th > threshold) cost += th;
    }
    costs.push_back(cost);
    begin = end;
  }
}

ApId S3Selector::select_one(const sim::Arrival& arrival,
                            const sim::ApLoadTracker& loads) {
  return select_single(arrival, sim::BatchOverlay(loads));
}

ApId S3Selector::select_single(const sim::Arrival& arrival,
                               const sim::BatchOverlay& loads) {
  if (arrival.candidates.empty()) {
    // Caller contract breach; count it before the precondition throws
    // so the two fallback flavours stay distinguishable in stats.
    ++stats_.empty_candidate_fallbacks;
  }
  S3_REQUIRE(!arrival.candidates.empty(), "S3: no candidates");
  if (degraded()) {
    return least_loaded_of(arrival.candidates, loads, config_.llf_metric);
  }

  feasible_.clear();
  for (const ApId ap : arrival.candidates) {
    if (config_.respect_bandwidth &&
        loads.headroom_mbps(ap) < arrival.demand_mbps) {
      continue;  // infinite cost (line 8–9 of Algorithm 1)
    }
    feasible_.push_back(ap);
  }
  social_costs(loads, arrival.user, feasible_, costs_);
  double best = kInf;
  std::vector<ApId> ties;
  for (std::size_t i = 0; i < feasible_.size(); ++i) {
    const double cost = costs_[i];
    if (cost < best - kCostEps) {
      best = cost;
      ties.assign(1, feasible_[i]);
    } else if (cost <= best + kCostEps) {
      ties.push_back(feasible_[i]);
    }
  }
  if (ties.empty()) {
    // Every candidate violates the bandwidth constraint: the request
    // cannot be refused, degrade to LLF over all candidates.
    ++stats_.bandwidth_fallbacks;
    return least_loaded_of(arrival.candidates, loads, config_.llf_metric);
  }
  if (ties.size() == 1) return ties.front();
  // Pure tie (typically all-zero social cost): LLF, per the pseudocode.
  return least_loaded_of(ties, loads, config_.llf_metric);
}

sim::BatchResult S3Selector::place_batch(const sim::BatchRequest& request,
                                         const sim::ApLoadTracker& loads) {
  const std::span<const sim::Arrival> batch = request.arrivals;
  controls_ = request.faults;
  // A batch changes only telemetry (stats_, the warning flag) and the
  // directives the next call overwrites; θ comes from a frozen model or
  // one that learns only in its hooks. So a replica may apply the result.
  sim::BatchResult result;
  result.replayable = true;
  if (batch.empty()) return result;
  ++stats_.batches;
  if (degraded()) {
    // Fault directive: the social model is out (or the engine's state
    // machine ordered a fallback batch) — serve with the embedded LLF,
    // the same deployed-controller policy the pseudocode falls back to.
    ++stats_.degraded_batches;
    result = llf_.place_batch(request, loads);  // replayable too
    result.full_fidelity = controls_.model_available;
    return result;
  }
  result.placements.assign(batch.size(), kInvalidAp);

  // ---- Social graph over the batch (vertices = batch indices) -------
  // One theta_row per vertex against the suffix of the batch: θ is
  // symmetric, so the upper triangle covers every pair.
  social::WeightedGraph graph(batch.size());
  std::vector<UserId> users(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) users[i] = batch[i].user;
  std::vector<double> row(batch.size(), 0.0);
  for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
    const std::span<const UserId> vs =
        std::span<const UserId>(users).subspan(i + 1);
    const std::span<double> out = std::span<double>(row).first(vs.size());
    model_->theta_row(users[i], vs, out);
    for (std::size_t j = 0; j < vs.size(); ++j) {
      if (out[j] > config_.theta_threshold) {
        graph.add_edge(i, i + 1 + j, out[j]);
      }
    }
  }

  // ---- Iterative clique extraction + placement ----------------------
  social::CliqueConfig clique_config = config_.clique;
  if (controls_.clique_node_budget > 0) {
    clique_config.node_budget =
        std::min(clique_config.node_budget, controls_.clique_node_budget);
  }
  social::CliqueCoverResult cover_result;
  {
    util::ScopedTimer timing(s3_metrics().clique_cover);
    cover_result = social::clique_cover(graph, clique_config);
  }
  if (!cover_result.exact) {
    ++stats_.inexact_covers;
    result.full_fidelity = false;
    if (!warned_inexact_) {
      warned_inexact_ = true;
      std::cerr << "s3: clique node budget exhausted on a batch graph; "
                   "covers may be suboptimal (reported once per replay; see "
                   "counter social.clique_budget_exhausted)\n";
    }
  }

  // Each clique is placed against the state with the earlier cliques
  // of the batch committed: the committed loads read through an overlay
  // of those cliques' picks, which reads as a copy of the tracker given
  // the same associate calls would (sim::BatchOverlay).
  sim::BatchOverlay view(loads);
  for (std::size_t c = 0; c < cover_result.cliques.size(); ++c) {
    const std::vector<std::size_t>& clique = cover_result.cliques[c];
    if (clique.size() == 1) {
      ++stats_.singles;
      result.placements[clique.front()] =
          select_single(batch[clique.front()], view);
    } else {
      ++stats_.cliques;
      stats_.clique_members += clique.size();
      stats_.largest_clique = std::max(stats_.largest_clique, clique.size());
      s3_metrics().clique_size->record(clique.size());
      place_clique_members(batch, clique, view, result.placements);
    }
    if (c + 1 == cover_result.cliques.size()) break;  // nothing reads it
    for (const std::size_t i : clique) {
      const sim::Arrival& a = batch[i];
      view.add(result.placements[i], a.user, a.demand_mbps);
    }
  }
  return result;
}

void S3Selector::place_clique_members(std::span<const sim::Arrival> batch,
                                      const std::vector<std::size_t>& clique,
                                      const sim::BatchOverlay& loads,
                                      std::span<ApId> result) {
  const std::size_t m = clique.size();
  const auto domain = net_->aps_of_controller(batch[clique[0]].controller);

  // Per member and candidate: base social cost against the committed
  // state, dense AP slot, headroom and domain index.
  CliqueSearch s(m, config_.respect_bandwidth);
  std::vector<ApId> slot_ap;            // the clique's distinct APs
  std::vector<std::size_t> slot_domain;  // their domain index, or kNone
  for (std::size_t k = 0; k < m; ++k) {
    const sim::Arrival& a = batch[clique[k]];
    s.demand[k] = a.demand_mbps;
    social_costs(loads, a.user, a.candidates, costs_);
    s.base_cost.insert(s.base_cost.end(), costs_.begin(), costs_.end());
    for (const ApId ap : a.candidates) {
      const auto seen = std::find(slot_ap.begin(), slot_ap.end(), ap);
      const auto slot = static_cast<std::size_t>(seen - slot_ap.begin());
      if (seen == slot_ap.end()) {
        slot_ap.push_back(ap);
        const auto at = std::find(domain.begin(), domain.end(), ap);
        slot_domain.push_back(
            at == domain.end() ? kNone
                               : static_cast<std::size_t>(at - domain.begin()));
      }
      s.slot.push_back(slot);
      s.headroom.push_back(loads.headroom_mbps(ap));
      s.domain_slot.push_back(slot_domain[slot]);
    }
    s.offset.push_back(s.base_cost.size());
  }
  s.added.resize(slot_ap.size());

  // Intra-clique θ: one theta_row per member against the later members
  // (θ is symmetric).
  {
    std::vector<UserId> members(m);
    for (std::size_t k = 0; k < m; ++k) members[k] = batch[clique[k]].user;
    std::vector<double> row(m, 0.0);
    for (std::size_t i = 0; i + 1 < m; ++i) {
      const std::span<const UserId> vs =
          std::span<const UserId>(members).subspan(i + 1);
      const std::span<double> out = std::span<double>(row).first(vs.size());
      model_->theta_row(members[i], vs, out);
      for (std::size_t j = 0; j < vs.size(); ++j) {
        s.theta[i * m + (i + 1 + j)] = out[j];
        s.theta[(i + 1 + j) * m + i] = out[j];
      }
    }
  }

  // ---- Enumerate (exact or beam) -------------------------------------
  double space = 1.0;
  for (std::size_t k = 0; k < m; ++k) {
    space *= static_cast<double>(s.candidates(k));
    if (space > 1e18) break;
  }
  const bool exact = space <= static_cast<double>(config_.enumeration_limit);
  std::size_t enumerated = 0;
  if (exact) {
    ++stats_.exact_enumerations;
    s3_metrics().exact_enumerations->add();
    enumerated = s.walk_exact();
  } else {
    ++stats_.beam_searches;
    s3_metrics().beam_searches->add();
    enumerated = s.walk_beam(config_.beam_width);
  }
  s3_metrics().distributions->add(enumerated);

  // No feasible distribution: place members one by one via the
  // single-user path (which itself degrades to LLF).
  if (s.leaves.empty()) {
    sim::BatchOverlay local = loads;
    for (std::size_t k = 0; k < m; ++k) {
      const sim::Arrival& a = batch[clique[k]];
      const ApId ap = select_single(a, local);
      local.add(ap, a.user, a.demand_mbps);
      result[clique[k]] = ap;
    }
    return;
  }

  // Keep the cheapest top_fraction by total social cost (line 6 of
  // Algorithm 1), selected rather than sorted, then pick the best
  // balance index among them.
  const std::size_t keep =
      detail::keep_cheapest(s.leaves, config_.top_fraction);

  std::vector<double> loads_base(domain.size());
  for (std::size_t i = 0; i < domain.size(); ++i) {
    loads_base[i] = loads.demand_mbps(domain[i]);
  }
  std::vector<double> loads_tmp;
  const Leaf& best = detail::best_balanced(
      std::span<const Leaf>(s.leaves).first(keep), [&](const Leaf& leaf) {
        s.load_choices(leaf, exact);
        loads_tmp = loads_base;
        for (std::size_t k = 0; k < m; ++k) {
          const std::size_t d = s.domain_slot[s.offset[k] + s.choice[k]];
          if (d != kNone) loads_tmp[d] += s.demand[k];
        }
        return analysis::normalized_balance_index(loads_tmp);
      });

  s.load_choices(best, exact);
  for (std::size_t k = 0; k < m; ++k) {
    result[clique[k]] = batch[clique[k]].candidates[s.choice[k]];
  }
}

}  // namespace s3::core
