// Per-controller replay engine.
//
// One ControllerEngine owns everything a single controller domain
// needs to replay its slice of the workload: the domain's arrival
// stream (global session indices into the shared trace), a departure
// queue, the pending association batch, a policy instance, and an
// association-load tracker. Controllers are fully independent domains
// (§V-A): candidate sets never cross buildings under the default radio
// model, so engines share no mutable state and can run on different
// threads without synchronization. Each engine writes its placements
// into a disjoint set of slots of the shared assignment vector.
//
// The engine steps through one event order. next_step() names the
// event it would process next and step() or apply_step() processes it;
// run() walks the domain's whole stream that way (sharded mode, one
// engine per pool task). The ReplayDriver's sequential mode merges
// several engines on their next_step() values, and the replication
// layer logs each step and replays it on backups through apply_step().
#pragma once

#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "s3/fault/degradation.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/replica_snapshot.h"
#include "s3/fault/retry_queue.h"
#include "s3/sim/replay.h"
#include "s3/sim/selector.h"
#include "s3/trace/trace.h"
#include "s3/wlan/network.h"

namespace s3::runtime {

class ControllerEngine {
 public:
  /// Sentinel "no more events of this kind" timestamp.
  static constexpr util::SimTime kNever =
      util::SimTime(std::numeric_limits<std::int64_t>::max());

  /// `sessions` are global indices into `workload.sessions()`, in trace
  /// (connect-time) order, all belonging to controller `domain`. The
  /// engine keeps references to `net`, `workload`, `policy` and (when
  /// given) `injector`, and writes into `assignment` (one slot per
  /// workload session); all must outlive it.
  ///
  /// With a non-null `injector` the engine additionally realizes the
  /// fault schedule for its domain: AP outages evict stations into a
  /// capped-exponential-backoff retry queue, AP recoveries trigger a
  /// bounded rebalance sweep, model outages drive the HEALTHY →
  /// DEGRADED → RECOVERING state machine (fallback batches are served
  /// by the policy's embedded LLF), and admission faults reject
  /// individual placements. Everything is derived from (plan, seed,
  /// domain), so results stay thread-count invariant.
  ControllerEngine(const wlan::Network& net, const trace::Trace& workload,
                   ControllerId domain, std::vector<std::size_t> sessions,
                   sim::ApSelector& policy, const sim::ReplayConfig& config,
                   std::span<ApId> assignment,
                   const fault::FaultInjector* injector = nullptr,
                   const fault::RecoveryPolicy& recovery = {});

  /// Rebind copy — the replication layer's checkpoint/install
  /// primitive. Member-wise copy of `other`'s entire mutable state
  /// (tracker float sums, queue contents, unordered-container history
  /// and all) with the policy and assignment references rewired to the
  /// caller's own instances: `policy` must be a clone() of `other`'s
  /// policy and `assignment` a caller-owned copy of `other`'s slots
  /// (same size; the caller copies the backing vector). The copy's
  /// future steps are bit-identical to the original's.
  ControllerEngine(const ControllerEngine& other, sim::ApSelector& policy,
                   std::span<ApId> assignment);

  ControllerId domain() const noexcept { return domain_; }

  /// Processes every event of this domain, then finalizes stats.
  void run();

  bool done() const noexcept;

  // --- Stepping ------------------------------------------------------

  /// One event-loop step kind, in the engine's priority order at equal
  /// times.
  enum class StepKind : std::uint8_t {
    kNone = 0,  ///< done() — nothing left to process
    kFault,
    kDeparture,
    kArrival,
    kRetries,
    kFlush,
  };
  struct Step {
    StepKind kind = StepKind::kNone;
    util::SimTime when = kNever;
    /// Global session index of the arrival or departure the step
    /// names; 0 for the other kinds.
    std::size_t session = 0;
  };

  /// The next event this engine would process, the earliest first and,
  /// at equal times, in StepKind order: fault flips (an AP that dies at
  /// t must not accept the batch due at t), departures (freeing
  /// capacity), arrivals (joining their batch), due retries (merging
  /// into it), then the batch's flush. kNone iff done(). Pure; calling
  /// it repeatedly without applying is free.
  Step next_step() const noexcept;

  /// Applies one step of the given kind, folding no digest.
  void step(StepKind kind) { apply(kind, nullptr, false); }

  /// Applies one step of the given kind and returns a cheap fold of the
  /// post-step engine state: queue sizes, counters, and the batch the
  /// step placed — its (session, AP) pairs, fidelity and re-run bit.
  /// Replicas that applied the same event-log prefix observe the same
  /// digest, so the log stores it per record and backups verify on
  /// replay.
  ///
  /// `recorded` is the batch the primary placed in the same step (its
  /// last_batch()), or nullptr. A replayable record is committed as it
  /// is, without calling place_batch; otherwise the policy places the
  /// batch again, and a result that differs from the record changes
  /// the digest. A record whose size differs from the batch commits
  /// nothing and leaves the batch pending, which changes it too.
  std::uint64_t apply_step(StepKind kind,
                           const sim::BatchResult* recorded = nullptr);

  /// The batch the last apply_step placed (a kFlush, or a kArrival at
  /// dispatch window 0) exactly as place_batch returned it, picks that
  /// admission faults then rejected included; nullptr when that step
  /// placed none.
  const sim::BatchResult* last_batch() const noexcept {
    return last_batch_ ? &*last_batch_ : nullptr;
  }

  /// Full bit-exact state capture (fault/replica_snapshot.h). The
  /// `term`/`applied_records` fields are owned by the replication
  /// layer and left zero here.
  fault::ReplicaSnapshot snapshot() const;

  // --- Headless mode (controller down, no backup to promote) --------

  /// Discards the next arrival — nobody is listening; counted in
  /// stats().dropped_sessions.
  void drop_next_arrival();
  /// Discards the pending batch (controller crashed before the flush);
  /// every member counts as dropped.
  void drop_pending_batch();
  /// Parks all pending retries until `t` (the controller restart).
  void postpone_retries_until(util::SimTime t);

  /// Current degradation state (kHealthy when no injector is attached).
  fault::HealthState health_state() const noexcept {
    return degradation_.state();
  }

  /// Computes derived statistics (mean batch size); call once after
  /// the event walk. run() does this itself.
  void finalize();

  const sim::ReplayStats& stats() const noexcept { return stats_; }

 private:
  struct Departure {
    util::SimTime when;
    std::size_t session_index;
    ApId ap;
    UserId user;
  };
  struct DepartureLater {
    bool operator()(const Departure& a, const Departure& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.session_index > b.session_index;
    }
  };

  // --- fault path (active only when injector_ != nullptr) -----------

  struct ActiveInfo {
    UserId user = kInvalidUser;
    ApId ap = kInvalidAp;
    double demand_mbps = 0.0;
  };

  util::SimTime next_arrival_time() const noexcept;
  util::SimTime next_departure_time() const noexcept;
  /// Deadline of the pending batch; kNever when nothing is pending.
  util::SimTime flush_deadline() const noexcept;
  util::SimTime next_fault_time() const noexcept;
  util::SimTime next_retry_time() const noexcept;
  std::uint64_t step_digest() const noexcept;
  /// Applies one step without folding step_digest(); apply_step adds
  /// the digest for the replication layer, its only reader. A flush in
  /// the step commits `recorded` as apply_step describes; with `keep`
  /// it leaves its batch in last_batch_ and its fold in
  /// last_batch_digest_, which only apply_step reads.
  void apply(StepKind kind, const sim::BatchResult* recorded, bool keep);
  void arrive(const sim::BatchResult* recorded, bool keep);
  void process_departure();
  void flush_batch(const sim::BatchResult* recorded, bool keep);
  void process_fault();
  void process_retries();
  /// Kicks every station off `ap` into the retry queue.
  void evict_ap(ApId ap, util::SimTime when);
  /// Bounded migration sweep toward the just-recovered `ap`.
  void recover_ap(ApId ap, util::SimTime when);
  /// Books a failed association attempt: backoff-requeue, or abandon
  /// once the attempt cap is reached.
  void defer_session(std::size_t session_index, util::SimTime now);
  void abandon_session(std::size_t session_index);
  sim::Arrival make_arrival(std::size_t session_index,
                            util::SimTime connect) const;

  const wlan::Network* net_;
  const trace::Trace* workload_;
  ControllerId domain_;
  std::vector<std::size_t> sessions_;  // global indices, connect order
  sim::ApSelector* policy_;
  sim::ReplayConfig config_;
  std::span<ApId> assignment_;

  sim::ApLoadTracker tracker_;
  std::priority_queue<Departure, std::vector<Departure>, DepartureLater>
      departures_;
  std::vector<sim::Arrival> batch_;
  util::SimTime batch_deadline_ = kNever;
  std::size_t next_arrival_ = 0;

  const fault::FaultInjector* injector_ = nullptr;
  fault::RecoveryPolicy recovery_;
  fault::DegradationTracker degradation_;
  std::vector<fault::ApFaultEvent> fault_events_;  // domain-local, sorted
  std::size_t next_fault_ = 0;
  fault::RetryQueue retries_;
  std::unordered_map<std::size_t, ActiveInfo> active_;
  std::unordered_map<std::size_t, std::uint32_t> attempts_;
  std::unordered_set<std::size_t> requeued_;          // awaiting re-placement
  std::unordered_set<std::size_t> departure_queued_;  // departure pushed once

  sim::ReplayStats stats_;

  // Set by apply_step: the batch its step placed, and the fold that
  // step_digest() adds (0 when the step placed none).
  std::optional<sim::BatchResult> last_batch_;
  std::uint64_t last_batch_digest_ = 0;
};

}  // namespace s3::runtime
