#include "s3/runtime/replay_driver.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <tuple>

#include "s3/check/contract.h"
#include "s3/check/validators.h"

namespace s3::runtime {

namespace {

/// Boundary contract: a workload handed to the driver must be
/// structurally sound for this network. Runs only when checking is
/// enabled (off by default), so the hot path stays free.
void check_workload(const wlan::Network& net, const trace::Trace& workload) {
  if (!check::contracts_enabled()) return;
  check::validate_trace(workload, &net);
}

}  // namespace

sim::ReplayStats merge_stats(std::span<const sim::ReplayStats> shards) {
  sim::ReplayStats merged;
  for (const sim::ReplayStats& s : shards) {
    merged.num_sessions += s.num_sessions;
    merged.num_batches += s.num_batches;
    merged.max_batch_size = std::max(merged.max_batch_size, s.max_batch_size);
    merged.forced_overloads += s.forced_overloads;
    merged.candidate_violations += s.candidate_violations;
    merged.degraded_batches += s.degraded_batches;
    merged.transitions_to_degraded += s.transitions_to_degraded;
    merged.transitions_to_recovering += s.transitions_to_recovering;
    merged.transitions_to_healthy += s.transitions_to_healthy;
    merged.fault_evictions += s.fault_evictions;
    merged.reassociations += s.reassociations;
    merged.retry_attempts += s.retry_attempts;
    merged.admission_rejections += s.admission_rejections;
    merged.abandoned_sessions += s.abandoned_sessions;
    merged.recovery_migrations += s.recovery_migrations;
    merged.dropped_sessions += s.dropped_sessions;
  }
  merged.mean_batch_size =
      merged.num_batches > 0
          ? static_cast<double>(merged.num_sessions) /
                static_cast<double>(merged.num_batches)
          : 0.0;
  return merged;
}

std::vector<std::vector<std::size_t>> shard_sessions(
    const wlan::Network& net, const trace::Trace& workload) {
  std::vector<std::vector<std::size_t>> shards(net.num_controllers());
  const auto sessions = workload.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    shards[net.controller_of_building(sessions[i].building)].push_back(i);
  }
  return shards;
}

unsigned resolve_threads(unsigned threads) noexcept {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void run_domains(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& task) {
  const std::size_t workers =
      std::min<std::size_t>(resolve_threads(threads), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  {
    std::atomic<std::size_t> next{0};
    const auto work = [&]() {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        try {
          task(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    // jthread joins on destruction, including when a later thread
    // fails to start.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ReplayDriver::ReplayDriver(const wlan::Network& net, ReplayDriverConfig config)
    : net_(&net), config_(config) {
  S3_REQUIRE(config_.replay.dispatch_window_s >= 0,
             "ReplayDriver: negative dispatch window");
}

unsigned ReplayDriver::effective_threads() const noexcept {
  return resolve_threads(config_.threads);
}

sim::ReplayResult ReplayDriver::run(const trace::Trace& workload,
                                    const sim::SelectorFactory& factory) const {
  // Controller outages and losses need replicas (or explicit headless/
  // adoption handling) — that is repl::ReplicatedReplayDriver's job,
  // not this one's.
  S3_REQUIRE(config_.injector == nullptr ||
                 (config_.injector->plan().controller_outages.empty() &&
                  config_.injector->plan().controller_losses.empty()),
             "ReplayDriver: controller-outage/loss plans require the "
             "replicated driver (s3/repl/replicated_driver.h)");
  check_workload(*net_, workload);
  std::vector<std::vector<std::size_t>> shards =
      shard_sessions(*net_, workload);
  std::vector<ApId> assignment(workload.size(), kInvalidAp);

  // One policy + engine per non-empty domain, in controller order so
  // that policy construction (seed derivation, model wiring) never
  // depends on thread schedule.
  std::vector<std::unique_ptr<sim::ApSelector>> policies;
  std::vector<std::unique_ptr<ControllerEngine>> engines;
  for (ControllerId c = 0; c < shards.size(); ++c) {
    if (shards[c].empty()) continue;
    policies.push_back(factory.create(c));
    S3_ASSERT(policies.back() != nullptr,
              "ReplayDriver: factory returned a null policy");
    engines.push_back(std::make_unique<ControllerEngine>(
        *net_, workload, c, std::move(shards[c]), *policies.back(),
        config_.replay, assignment, config_.injector, config_.recovery));
  }

  run_domains(effective_threads(), engines.size(),
              [&](std::size_t i) { engines[i]->run(); });

  // Stats are read after the join, in controller order, so the merge
  // is identical for every thread count.
  std::vector<sim::ReplayStats> shard_stats;
  shard_stats.reserve(engines.size());
  for (const auto& e : engines) shard_stats.push_back(e->stats());
  return sim::ReplayResult{workload.with_assignments(assignment),
                           merge_stats(shard_stats)};
}

sim::ReplayResult ReplayDriver::run_sequential(const trace::Trace& workload,
                                               sim::ApSelector& policy) const {
  // Sequential mode exists to reproduce the historic monolith
  // bit-for-bit; the fault path deliberately stays out of it.
  S3_REQUIRE(config_.injector == nullptr,
             "run_sequential: fault injection requires sharded run()");
  check_workload(*net_, workload);
  std::vector<std::vector<std::size_t>> shards =
      shard_sessions(*net_, workload);
  std::vector<ApId> assignment(workload.size(), kInvalidAp);

  std::vector<std::unique_ptr<ControllerEngine>> engines;
  for (ControllerId c = 0; c < shards.size(); ++c) {
    if (shards[c].empty()) continue;
    engines.push_back(std::make_unique<ControllerEngine>(
        *net_, workload, c, std::move(shards[c]), policy, config_.replay,
        assignment));
  }

  // Merge the engines on their own next steps: the earliest first; at
  // equal times by step kind, then session, then controller order (the
  // engines are in controller order and a tie keeps the first).
  while (true) {
    ControllerEngine* earliest = nullptr;
    ControllerEngine::Step first;
    for (const auto& e : engines) {
      const ControllerEngine::Step s = e->next_step();
      if (s.kind == ControllerEngine::StepKind::kNone) continue;
      if (earliest == nullptr ||
          std::tie(s.when, s.kind, s.session) <
              std::tie(first.when, first.kind, first.session)) {
        earliest = e.get();
        first = s;
      }
    }
    if (earliest == nullptr) break;
    earliest->step(first.kind);
  }

  std::vector<sim::ReplayStats> shard_stats;
  shard_stats.reserve(engines.size());
  for (auto& e : engines) {
    e->finalize();
    shard_stats.push_back(e->stats());
  }
  return sim::ReplayResult{workload.with_assignments(assignment),
                           merge_stats(shard_stats)};
}

}  // namespace s3::runtime
