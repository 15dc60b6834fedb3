// AP-selection policy interface.
//
// A controller hands the policy a BatchRequest — the pending
// association requests observed within one dispatch window (all in the
// same controller domain) plus the fault directives in force — together
// with the current association state, and receives a BatchResult: one
// AP per arrival and whether the batch was served at full fidelity.
// Strongest-RSSI and random read no loads and inherit the default
// batch loop; LLF overrides place_batch so that a burst spreads, and S3
// overrides it to run its clique-dispersion algorithm on the whole
// batch.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "s3/sim/load_state.h"
#include "s3/util/ids.h"
#include "s3/util/sim_time.h"

namespace s3::sim {

/// One pending association request.
struct Arrival {
  std::size_t session_index = 0;  ///< index into the workload trace
  UserId user = kInvalidUser;
  ControllerId controller = kInvalidController;
  util::SimTime connect;
  /// Estimated offered rate w(u) (from the user's history in a real
  /// deployment; the generator's ground-truth demand here).
  double demand_mbps = 0.0;
  /// Audible APs, strongest RSSI first. Never empty.
  std::vector<ApId> candidates;
};

/// Degradation directives pushed into a policy before each batch when a
/// fault injector is active (see s3::fault). Policies that cannot honor
/// them (baselines with no social model) ignore them.
struct FaultControls {
  /// False while the social model is flagged unavailable/stale; a
  /// model-dependent policy must serve the batch with its embedded
  /// fallback.
  bool model_available = true;
  /// Non-zero clamps the clique-search node budget (CPU-pressure
  /// squeeze); 0 leaves the configured budget untouched.
  std::uint64_t clique_node_budget = 0;
  /// Engine-ordered fallback: the degradation state machine decided
  /// this batch runs on the fallback policy regardless of model state.
  bool force_fallback = false;
};

/// One dispatch window's worth of work, handed to the policy as a
/// single value: the arrivals plus the degradation directives in force
/// while they are placed.
struct BatchRequest {
  std::span<const Arrival> arrivals;
  FaultControls faults{};
};

/// What the policy did with a BatchRequest.
struct BatchResult {
  /// Chosen AP per arrival, aligned with BatchRequest::arrivals.
  std::vector<ApId> placements;
  /// False when the batch was served degraded (fallback policy) or
  /// inexactly (e.g. S3's clique search hit its node budget). Feeds the
  /// RECOVERING -> HEALTHY hysteresis of the degradation state machine.
  bool full_fidelity = true;
  /// True when a replica may apply this result without calling
  /// place_batch itself: the placements depend only on the request, the
  /// committed loads and state that only on_associate/on_disconnect
  /// change, and the call changed nothing state_digest() folds. LLF and
  /// S3 set it. The default batch loop leaves it false, because
  /// select_one may draw (random advances its RNG).
  bool replayable = false;
};

class ApSelector {
 public:
  virtual ~ApSelector() = default;

  virtual std::string_view name() const = 0;

  /// Picks an AP for one arrival given the current loads. Must return
  /// one of arrival.candidates.
  virtual ApId select_one(const Arrival& arrival,
                          const ApLoadTracker& loads) = 0;

  /// Places a whole batch under the request's fault directives.
  /// `loads` is the committed state and does not change during the
  /// call. The default ignores the directives (baselines have no model
  /// to lose) and calls select_one against `loads` for each arrival in
  /// order, so its later picks do not see its earlier ones. A policy
  /// whose later picks must see its earlier ones overrides this, as
  /// LLF (spreading a burst) and S3 (placing cliques in turn) do, and
  /// sets BatchResult::replayable when its result qualifies.
  ///
  /// The caller commits every returned placement with
  /// ApLoadTracker::associate on the real tracker, which checks that
  /// the AP is in range and that the session is not associated yet.
  virtual BatchResult place_batch(const BatchRequest& request,
                                  const ApLoadTracker& loads);

  /// Notification that the engine committed a placement (policies that
  /// maintain internal state — e.g. S3's view of who is where — hook
  /// these).
  virtual void on_associate(const Arrival& /*arrival*/, ApId /*ap*/) {}
  virtual void on_disconnect(std::size_t /*session_index*/, UserId /*user*/,
                             ApId /*ap*/, util::SimTime /*when*/) {}

  /// True for policies that depend on an external social model and so
  /// degrade when the injector declares a model outage.
  virtual bool uses_social_model() const { return false; }

  /// Order-insensitive fold of the internal mutable state that later
  /// decisions read (online social counters, presence maps, RNG state);
  /// telemetry counters stay out. Two policy instances that observed
  /// the same associate/disconnect/batch sequence must report equal
  /// digests, and so must one that applied a replayable batch without
  /// calling place_batch; the replication layer stores this in every
  /// replica snapshot to prove a promoted backup carries the same
  /// social model as the lost primary. Stateless policies keep the
  /// default 0.
  virtual std::uint64_t state_digest() const { return 0; }

  /// Deep copy carrying the exact internal state — not just the
  /// logical state but the same float-accumulation and container
  /// history, so a clone's future decisions are bit-identical to the
  /// original's. This is what lets the replication layer checkpoint a
  /// live engine: reconstructing a policy from logical state (counters,
  /// presence sets) cannot reproduce unordered-container iteration
  /// order or partial float sums, but a member-wise copy does.
  /// Policies that cannot honor that contract return nullptr (the
  /// default), which disables snapshot-based catch-up for them.
  virtual std::unique_ptr<ApSelector> clone() const { return nullptr; }
};

/// Builds one policy instance per controller shard.
///
/// Controller domains are fully independent (§V-A), so the sharded
/// replay driver gives every domain its own ApSelector rather than
/// funnelling all domains through one shared instance. Stateful
/// policies must derive any randomness or learning state
/// deterministically from `domain`, never from thread identity or wall
/// clock — that is what makes a sharded replay reproducible regardless
/// of thread count. Concrete factories for every shipped policy live
/// in s3::core (selector_factory.h).
class SelectorFactory {
 public:
  virtual ~SelectorFactory() = default;

  /// Policy name, identical to what the created instances report.
  virtual std::string_view name() const = 0;

  /// Fresh policy instance for controller shard `domain`.
  virtual std::unique_ptr<ApSelector> create(ControllerId domain) const = 0;
};

}  // namespace s3::sim
