// Sharded replay driver.
//
// The driver decomposes a replay into one ControllerEngine per
// controller domain and runs the engines on the domain pool
// (run_domains, shared with repl::ReplicatedReplayDriver). Because
// domains are independent (disjoint APs, disjoint arrivals, per-shard
// policy instances from a SelectorFactory), the merged result —
// assigned trace, statistics, instrumentation counters — is identical
// for every thread count, including 1. Wall clock scales with the
// number of cores until the largest single domain dominates.
//
// Two modes:
//   * run(factory)        — sharded, one policy instance per domain,
//                           threads from ReplayDriverConfig;
//   * run_sequential(...) — one shared policy instance observing every
//                           domain's events in global time order; this
//                           is the historic sim::replay() behavior
//                           bit-for-bit, kept for stateful policies
//                           that learn across domains and as the
//                           differential-testing reference.
#pragma once

#include <functional>

#include "s3/runtime/controller_engine.h"

namespace s3::runtime {

struct ReplayDriverConfig {
  sim::ReplayConfig replay{};
  /// Worker threads for sharded replay; 0 = hardware_concurrency().
  /// The result is the same for every value; only wall clock changes.
  unsigned threads = 0;
  /// Optional fault schedule (s3::fault). The injector is immutable and
  /// its queries are pure functions of (plan, seed), so sharded engines
  /// share it without synchronization and the realized schedule — and
  /// therefore every assignment and statistic — is identical for every
  /// thread count. Sharded run() only; run_sequential() rejects it.
  /// Must outlive the driver.
  const fault::FaultInjector* injector = nullptr;
  /// Retry/backoff + degradation-hysteresis knobs, used when `injector`
  /// is set.
  fault::RecoveryPolicy recovery{};
};

/// Deterministically merges per-shard statistics (shard order must be
/// controller order). Guards the mean against num_batches == 0.
sim::ReplayStats merge_stats(std::span<const sim::ReplayStats> shards);

/// `workload`'s session indices grouped by controller domain: entry c
/// holds domain c's sessions in trace order.
std::vector<std::vector<std::size_t>> shard_sessions(
    const wlan::Network& net, const trace::Trace& workload);

/// Worker threads for a `threads` setting: 0 means
/// hardware_concurrency(); the result is at least 1.
unsigned resolve_threads(unsigned threads) noexcept;

/// The domain pool both replay drivers run on: calls task(0) ..
/// task(count - 1) on min(threads, count) workers, inline when that is
/// one. Tasks must not share mutable state; callers read each task's
/// results after this returns. Every task's exception lands in its own
/// slot; after the join the lowest failing index's exception is
/// rethrown, so the error a run reports is the same at every thread
/// count.
void run_domains(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& task);

class ReplayDriver {
 public:
  /// `net` must outlive the driver.
  explicit ReplayDriver(const wlan::Network& net,
                        ReplayDriverConfig config = {});

  /// Sharded replay of `workload`: partitions sessions by controller
  /// domain, builds one policy per non-empty domain via `factory`, and
  /// runs the engines on the domain pool.
  sim::ReplayResult run(const trace::Trace& workload,
                        const sim::SelectorFactory& factory) const;

  /// Sequential replay with one shared policy instance: engines are
  /// interleaved on a global clock with the historic tie order
  /// (departures, then arrivals, then due batch flushes).
  sim::ReplayResult run_sequential(const trace::Trace& workload,
                                   sim::ApSelector& policy) const;

  /// Threads run() will actually use (resolves the 0 default).
  unsigned effective_threads() const noexcept;

  const ReplayDriverConfig& config() const noexcept { return config_; }

 private:
  const wlan::Network* net_;
  ReplayDriverConfig config_;
};

}  // namespace s3::runtime
