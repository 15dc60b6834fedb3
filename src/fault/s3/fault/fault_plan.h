// Declarative fault plans for resilience replay.
//
// A FaultPlan is a pure description of what goes wrong and when: AP
// outage/recovery windows, social-model unavailability intervals, a
// clique-search node-budget squeeze, and a transient per-association
// admission failure process. Plans are data — they carry no randomness
// and no clocks. The seeded realization (which association attempt
// fails) happens in FaultInjector, so the same plan + seed always
// yields the same fault schedule no matter how many replay threads run.
//
// All windows are half-open [begin, end) in trace time, matching the
// convention of util::TimeInterval.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "s3/util/ids.h"
#include "s3/util/sim_time.h"

namespace s3::wlan {
class Network;
}  // namespace s3::wlan

namespace s3::fault {

/// One AP down for [begin, end); it recovers at `end`.
struct ApOutage {
  ApId ap = kInvalidAp;
  util::SimTime begin;
  util::SimTime end;

  /// By (id, begin, end), so a sort of windows is a value sort.
  constexpr auto operator<=>(const ApOutage&) const noexcept = default;
};

/// The controller serving one domain crashes at `begin` and restarts at
/// `end`. With a replication group attached (s3::repl) a backup is
/// promoted at the crash instant and the crashed replica rejoins as a
/// backup at `end`; without one the domain runs headless — arrivals in
/// the window are dropped, retries wait for the restart. Windows of the
/// same controller must not overlap (a controller cannot crash while
/// already down).
struct ControllerOutage {
  ControllerId controller = kInvalidController;
  util::SimTime begin;
  util::SimTime end;

  /// By (id, begin, end), so a sort of windows is a value sort.
  constexpr auto operator<=>(const ControllerOutage&) const noexcept = default;
};

/// The controller *and its whole replica set* are lost for
/// [begin, end) — a campus-level failure (power, uplink), not a single
/// process crash. There is nothing local left to promote: a replication
/// layer (s3::repl) has a designated neighbor-domain controller adopt
/// the orphaned domain from its last replicated snapshot, and the
/// revived originals take the domain back at `end`. Without a
/// replication layer the plan is rejected, like controller outages.
/// Windows of the same controller must not overlap each other or that
/// controller's outage windows.
struct ControllerLoss {
  ControllerId controller = kInvalidController;
  util::SimTime begin;
  util::SimTime end;

  /// By (id, begin, end), so a sort of windows is a value sort.
  constexpr auto operator<=>(const ControllerLoss&) const noexcept = default;
};

/// Social model unreachable (or known-stale) for the window; policies
/// that depend on it must run their embedded fallback.
struct ModelOutage {
  util::SimTime begin;
  util::SimTime end;
};

/// Clamp the Östergård max-clique node budget to `node_budget` while
/// the window is active — simulates CPU pressure that forces the
/// search to abort early and return non-exact covers.
struct CliqueSqueeze {
  util::SimTime begin;
  util::SimTime end;
  std::uint64_t node_budget = 0;
};

/// Transient admission failures: each association attempt inside the
/// window independently fails with `failure_probability`. Realized
/// deterministically from (seed, session, attempt) by FaultInjector.
struct AdmissionFaults {
  double failure_probability = 0.0;
  util::SimTime begin;
  util::SimTime end{std::numeric_limits<std::int64_t>::max()};
};

struct FaultPlan {
  std::vector<ApOutage> ap_outages;
  std::vector<ControllerOutage> controller_outages;
  std::vector<ControllerLoss> controller_losses;
  std::vector<ModelOutage> model_outages;
  std::vector<CliqueSqueeze> clique_squeezes;
  AdmissionFaults admission;

  bool empty() const noexcept {
    return ap_outages.empty() && controller_outages.empty() &&
           controller_losses.empty() && model_outages.empty() &&
           clique_squeezes.empty() && admission.failure_probability <= 0.0;
  }
};

/// Parse outcome: `ok()` iff the plan parsed and validated; otherwise
/// `error` names the offending line.
struct FaultPlanParseResult {
  FaultPlan plan;
  bool parsed = false;
  std::string error;

  bool ok() const noexcept { return parsed; }
};

// Text format (one directive per line, `#` comments, times in seconds):
//   s3fault v1
//   ap-outage AP BEGIN END
//   controller-outage CONTROLLER BEGIN END
//   controller-loss CONTROLLER BEGIN END
//   model-outage BEGIN END
//   clique-budget BEGIN END NODES
//   admission-failure P [BEGIN END]
FaultPlanParseResult parse_fault_plan(const std::string& text);
FaultPlanParseResult read_fault_plan_file(const std::string& path);

/// Serializes in the same format `parse_fault_plan` accepts.
std::string write_fault_plan(const FaultPlan& plan);
void write_fault_plan_file(const FaultPlan& plan, const std::string& path);

/// Every problem of `plan`, one message each, empty for a valid plan.
/// The rules, in the order they report: for AP outages, controller
/// outages and controller losses in turn, each empty window and —
/// when `net` is given — each id outside the topology, in plan order,
/// then each window overlapping an earlier one of its id (windows are
/// half-open, so touching ones are fine; a loss is checked against the
/// same controller's losses and outages); then empty model-outage and
/// clique-budget windows, clique budgets of 0, and an admission
/// probability outside [0, 1] or, when positive, an empty admission
/// window. An overlapping window is paired with the earlier window
/// reaching furthest, so each finding names one pair and no pair is
/// reported twice.
std::vector<std::string> plan_problems(const FaultPlan& plan,
                                       const wlan::Network* net = nullptr);

/// Throws std::invalid_argument carrying plan_problems' first finding
/// when there is one.
void validate_plan(const FaultPlan& plan, const wlan::Network* net = nullptr);

// Canned plans used by bench_resilience, CI, and EXPERIMENTS.md. All
// take the replay horizon so windows land inside the trace.

/// Rolling AP churn: every `num_outages`-th AP of the network fails for
/// `outage_s`, with staggered start times across [begin, end).
FaultPlan canned_ap_churn_plan(const wlan::Network& net, util::SimTime begin,
                               util::SimTime end, std::size_t num_outages = 6,
                               std::int64_t outage_s = 3 * 3600);

/// Social model unavailable for the middle third of [begin, end).
FaultPlan canned_model_outage_plan(util::SimTime begin, util::SimTime end);

/// Admission storm: failure_probability 0.3 over the middle half of
/// [begin, end), plus a clique-budget squeeze over the same window.
FaultPlan canned_admission_storm_plan(util::SimTime begin, util::SimTime end);

/// Controller churn: every second controller of the network crashes for
/// `outage_s`, with staggered start times across [begin, end). Drives
/// bench_failover and the repl determinism tests.
FaultPlan canned_controller_churn_plan(const wlan::Network& net,
                                       util::SimTime begin, util::SimTime end,
                                       std::size_t num_outages = 4,
                                       std::int64_t outage_s = 2 * 3600);

/// Whole-controller losses: `num_losses` controllers each lose their
/// entire replica set for `loss_s`, staggered so windows of different
/// controllers never overlap — the deterministic adoption order always
/// finds an alive neighbor. Drives the cross-domain failover tests and
/// bench_failover's adoption rows.
FaultPlan canned_controller_loss_plan(const wlan::Network& net,
                                      util::SimTime begin, util::SimTime end,
                                      std::size_t num_losses = 2,
                                      std::int64_t loss_s = 2 * 3600);

}  // namespace s3::fault
