#include "s3/fault/degradation.h"

#include <algorithm>

#include "s3/fault/fault_injector.h"

namespace s3::fault {

util::SimTime RecoveryPolicy::backoff(std::uint32_t attempt) const noexcept {
  if (attempt == 0) return util::SimTime(initial_backoff_s);
  double delay = static_cast<double>(initial_backoff_s);
  for (std::uint32_t i = 1; i < attempt; ++i) {
    delay *= backoff_multiplier;
    if (delay >= static_cast<double>(max_backoff_s)) break;
  }
  delay = std::min(delay, static_cast<double>(max_backoff_s));
  return util::SimTime(static_cast<std::int64_t>(delay));
}

void DegradationTracker::degrade() {
  if (state_ != HealthState::kDegraded) {
    state_ = HealthState::kDegraded;
    ++stats_.to_degraded;
  }
  clean_run_ = 0;
}

bool DegradationTracker::on_batch_start(bool stressed) {
  ++stats_.observed_batches;
  if (stressed) {
    degrade();
    ++stats_.degraded_batches;
    return true;
  }
  if (state_ == HealthState::kDegraded) {
    state_ = HealthState::kRecovering;
    ++stats_.to_recovering;
    clean_run_ = 0;
  }
  return false;
}

void DegradationTracker::on_batch_end(bool full_fidelity) {
  if (!full_fidelity) {
    degrade();
    return;
  }
  if (state_ == HealthState::kRecovering && ++clean_run_ >= clean_needed_) {
    state_ = HealthState::kHealthy;
    ++stats_.to_healthy;
    clean_run_ = 0;
  }
}

sim::FaultControls begin_batch(const FaultInjector* injector,
                               util::SimTime now, bool uses_social_model,
                               DegradationTracker& degradation) {
  sim::FaultControls faults;
  if (injector == nullptr) return faults;
  faults.model_available = injector->model_available(now);
  faults.clique_node_budget = injector->clique_budget(now);
  faults.force_fallback = degradation.on_batch_start(
      !faults.model_available && uses_social_model);
  return faults;
}

void end_batch(const FaultInjector* injector, const sim::FaultControls& faults,
               bool full_fidelity, DegradationTracker& degradation) {
  if (injector != nullptr && !faults.force_fallback) {
    degradation.on_batch_end(full_fidelity);
  }
}

}  // namespace s3::fault
