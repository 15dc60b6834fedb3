// Per-controller degradation state machine and recovery policy.
//
// HEALTHY --(stress: model outage, non-exact clique cover)--> DEGRADED
// DEGRADED --(first unstressed batch)--> RECOVERING
// RECOVERING --(healthy_after_clean_batches full-fidelity batches)--> HEALTHY
// RECOVERING --(stress or non-exact result)--> DEGRADED
//
// The hysteresis on the RECOVERING -> HEALTHY edge keeps a flapping
// model outage from thrashing the policy between S3 and the LLF
// fallback. The tracker is engine-local (one per controller domain) so
// it needs no synchronization and stays thread-count invariant.
#pragma once

#include <cstddef>
#include <cstdint>

#include "s3/sim/selector.h"
#include "s3/util/sim_time.h"

namespace s3::fault {

class FaultInjector;

enum class HealthState : std::uint8_t { kHealthy, kDegraded, kRecovering };

/// Transition/occupancy counters; copied into ReplayStats at finalize.
struct DegradationStats {
  std::size_t to_degraded = 0;
  std::size_t to_recovering = 0;
  std::size_t to_healthy = 0;
  std::size_t degraded_batches = 0;  ///< batches served by the fallback
  std::size_t observed_batches = 0;

  bool operator==(const DegradationStats&) const noexcept = default;
};

/// Retry/backoff and recovery-rebalance knobs for outage handling.
struct RecoveryPolicy {
  std::int64_t initial_backoff_s = 5;
  double backoff_multiplier = 2.0;
  std::int64_t max_backoff_s = 300;
  std::uint32_t max_attempts = 8;          ///< failed attempts before abandon
  std::size_t max_recovery_migrations = 8; ///< per AP-recovery sweep
  double recovery_hysteresis_mbps = 0.5;
  std::size_t healthy_after_clean_batches = 3;

  /// Capped exponential backoff after the `attempt`-th failure (1-based).
  util::SimTime backoff(std::uint32_t attempt) const noexcept;
};

class DegradationTracker {
 public:
  explicit DegradationTracker(std::size_t healthy_after_clean_batches = 3)
      : clean_needed_(healthy_after_clean_batches) {}

  HealthState state() const noexcept { return state_; }
  const DegradationStats& stats() const noexcept { return stats_; }

  /// Consecutive full-fidelity batches observed while RECOVERING; part
  /// of the replica snapshot so a promoted backup resumes hysteresis
  /// mid-count.
  std::size_t clean_run() const noexcept { return clean_run_; }

  /// Called before dispatching a batch. `stressed` = the policy cannot
  /// run at full fidelity right now (e.g. it needs the social model and
  /// the injector says the model is out). Returns true when the batch
  /// must be served by the fallback policy.
  bool on_batch_start(bool stressed);

  /// Called after a full-fidelity batch with whether the policy really
  /// delivered full fidelity (e.g. the clique cover stayed exact).
  void on_batch_end(bool full_fidelity);

 private:
  void degrade();

  HealthState state_ = HealthState::kHealthy;
  std::size_t clean_needed_;
  std::size_t clean_run_ = 0;
  DegradationStats stats_;
};

/// The fault directives of one batch dispatched at `now`, shared by
/// replay (ControllerEngine::flush) and serve (ServePipeline::place):
/// the model's availability, the clique-budget clamp, and whether
/// `degradation` sends the batch to the fallback policy. A model outage
/// stresses only a policy that uses the social model. Without an
/// injector the batch runs at full fidelity and `degradation` is left
/// alone.
sim::FaultControls begin_batch(const FaultInjector* injector,
                               util::SimTime now, bool uses_social_model,
                               DegradationTracker& degradation);

/// Reports a dispatched batch's fidelity to `degradation`. Batches the
/// fallback served, and runs without an injector, are not observed.
void end_batch(const FaultInjector* injector, const sim::FaultControls& faults,
               bool full_fidelity, DegradationTracker& degradation);

}  // namespace s3::fault
