// S3 — the Social-aware AP Selection Scheme (§IV, Algorithm 1).
//
// Given a batch of pending association requests, S3:
//   1. builds a social graph over the batch (edges where θ(u,v)
//      exceeds the threshold, 0.3 in the paper);
//   2. repeatedly extracts a maximum clique (Östergård's algorithm;
//      ties between maximum cliques broken by larger edge-weight sum);
//   3. for each clique, enumerates distributions of its members over
//      their candidate APs, sorts them by total added social cost
//      Σ C(AP_i) with C(AP) = Σ_{w ∈ S(AP)} θ(u, w), keeps the
//      cheapest top 30 %, and among those picks the distribution with
//      the best (largest) normalized balance index;
//   4. places social singletons — and resolves pure ties — with LLF,
//      exactly as the pseudocode's fallback prescribes.
//
// Placements violating the per-AP bandwidth constraint Σ w(u) ≤ W(i)
// cost infinity; if every candidate violates it, S3 degrades to LLF
// (the association cannot be refused).
#pragma once

#include <cstdint>
#include <memory>

#include "s3/core/baselines.h"
#include "s3/sim/selector.h"
#include "s3/social/clique.h"
#include "s3/social/social_index.h"
#include "s3/wlan/network.h"

namespace s3::core {

struct S3Config {
  /// Social-graph edge threshold on θ (paper: 0.3).
  double theta_threshold = 0.3;
  /// Fraction of cheapest distributions kept for the balance
  /// tie-break (paper: top 30 %).
  double top_fraction = 0.3;
  /// Exhaustive-enumeration cap on |candidates|^|clique|; above it a
  /// beam search over members is used instead.
  std::size_t enumeration_limit = 20000;
  std::size_t beam_width = 256;
  social::CliqueConfig clique{};
  /// Enforce Σ w(u) ≤ W(i) (Definition 1's constraint).
  bool respect_bandwidth = true;
  /// Whether C(AP) sums θ over *all* associated users (the literal
  /// §IV-B formula — the type prior then acts as a type-diversity
  /// force) or only over close relations (θ > theta_threshold, the
  /// same rule as the social graph's edges). With weak ties counted,
  /// C never ties, so the LLF fallback only fires on empty APs.
  bool count_weak_ties_in_cost = false;
  /// Load metric of the embedded LLF fallback — the *deployed*
  /// controller policy per the pseudocode ("if there are multiple
  /// candidate APs to choose, we simply apply LLF"), i.e. station
  /// counts. S3's own demand estimates w(u) enter through the
  /// bandwidth constraint and the balance-index tie-break instead.
  LoadMetric llf_metric = LoadMetric::kStations;
};

/// Running counters a deployment would export (and tests assert on):
/// how often each path of Algorithm 1 actually fires.
struct S3Stats {
  std::size_t batches = 0;
  std::size_t singles = 0;            ///< size-1 cliques (LLF-ish path)
  std::size_t cliques = 0;            ///< multi-member cliques placed
  std::size_t clique_members = 0;     ///< users placed via cliques
  std::size_t largest_clique = 0;
  std::size_t exact_enumerations = 0;
  std::size_t beam_searches = 0;
  /// Candidates were present but every one violated the bandwidth
  /// constraint: degraded to LLF over all candidates.
  std::size_t bandwidth_fallbacks = 0;
  /// The arrival carried no candidates at all — a caller contract
  /// breach, counted before select_one throws so deployments can see
  /// how often the radio layer handed S3 an impossible request.
  std::size_t empty_candidate_fallbacks = 0;
  /// Batches served by the embedded LLF because of a fault directive
  /// (model outage or engine-forced fallback; see sim::FaultControls).
  std::size_t degraded_batches = 0;
  /// Batches whose clique cover hit the node budget (non-exact result).
  std::size_t inexact_covers = 0;
};

class S3Selector final : public sim::ApSelector {
 public:
  /// `net` and `model` must outlive the selector. The network is used
  /// to evaluate the balance index over whole controller domains when
  /// tie-breaking clique distributions. `model` is any ThetaProvider —
  /// a frozen trained SocialIndexModel or a live LiveSocialModel.
  S3Selector(const wlan::Network* net, const social::ThetaProvider* model,
             S3Config config = {});

  /// Copy with the θ provider rebound: identical internal state (stats,
  /// directives, scratch), but future θ queries go to `model`. The
  /// online wrapper clones its live social model and needs the inner
  /// machinery to consult the clone, not the original.
  S3Selector(const S3Selector& other, const social::ThetaProvider* model)
      : S3Selector(other) {
    model_ = model;
  }

  std::string_view name() const override { return "S3"; }

  /// Single-arrival path: AP minimizing the social-cost increment
  /// C(AP), bandwidth-feasible, LLF on ties.
  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override;

  /// Algorithm 1 over the whole batch; under a fault directive
  /// (request.faults: model outage / forced fallback) the batch is
  /// served by the embedded LLF instead and the result reports reduced
  /// fidelity. Every result is replayable.
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override;

  bool uses_social_model() const override { return true; }

  // state_digest() keeps the default 0: no later decision reads what a
  // batch leaves behind. S3Stats are telemetry (the core.s3.* bus
  // counters count the same events), and the directives are
  // overwritten by the next place_batch.

  const S3Config& config() const noexcept { return config_; }
  const S3Stats& stats() const noexcept { return stats_; }

  /// Member-wise deep copy; the external θ model is shared (the
  /// selector never mutates it, so one frozen model can back any
  /// number of replicas).
  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::unique_ptr<sim::ApSelector>(new S3Selector(*this));
  }

 private:
  /// select_one against `loads`, the committed state plus the batch's
  /// earlier picks.
  ApId select_single(const sim::Arrival& arrival,
                     const sim::BatchOverlay& loads);

  /// Places one multi-member clique (steps 5–7 of Algorithm 1) against
  /// `loads`, the state with every earlier clique of the batch
  /// committed; writes each member's AP to `result[batch index]`.
  void place_clique_members(std::span<const sim::Arrival> batch,
                            const std::vector<std::size_t>& clique,
                            const sim::BatchOverlay& loads,
                            std::span<ApId> result);

  /// Social cost of adding `user` to each AP of `aps` against `loads`,
  /// C(AP) = Σ_{w ∈ S(AP)} θ(user, w), into `costs` (aligned with
  /// `aps`), from one theta_row over all their stations.
  void social_costs(const sim::BatchOverlay& loads, UserId user,
                    std::span<const ApId> aps, std::vector<double>& costs);

  /// True while a fault directive routes batches to the embedded LLF.
  bool degraded() const noexcept {
    return controls_.force_fallback || !controls_.model_available;
  }

  const wlan::Network* net_;
  const social::ThetaProvider* model_;
  S3Config config_;
  LlfSelector llf_;
  S3Stats stats_;
  /// Directives of the batch in flight (select_one consults them when
  /// called standalone; place_batch refreshes them per request).
  sim::FaultControls controls_{};
  bool warned_inexact_ = false;  ///< budget-exhaustion logged once
  // social_costs scratch: one row of stations, the end of each AP's
  // segment, and its θ; select_one's feasible APs and their costs.
  std::vector<UserId> row_users_;
  std::vector<std::size_t> row_ends_;
  std::vector<double> row_theta_;
  std::vector<ApId> feasible_;
  std::vector<double> costs_;
};

}  // namespace s3::core
