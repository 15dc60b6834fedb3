// Sharded replay driver with replicated controllers.
//
// Same decomposition as runtime::ReplayDriver — one controller domain
// per task on the shared domain pool (runtime::run_domains) — but each
// domain is a ReplicationGroup (one
// primary + N backup engines) instead of a bare engine, so the replay
// survives the injector's controller-outage windows: with backups the
// run is lossless (bit-identical to an outage-free run), without them
// the domain rides each window headless and the drops are counted.
//
// Results stay thread-count invariant: groups share no mutable state,
// the injector is immutable, and each group's election/catch-up logic
// is a pure function of (workload, plan, seeds).
#pragma once

#include "s3/repl/replication_group.h"

namespace s3::repl {

struct ReplicatedDriverConfig {
  sim::ReplayConfig replay{};
  /// Worker threads; 0 = hardware_concurrency(). Result-invariant.
  unsigned threads = 0;
  /// Fault schedule — required (a replicated replay without an injector
  /// has nothing to fail over from; use runtime::ReplayDriver instead).
  /// Must outlive the driver.
  const fault::FaultInjector* injector = nullptr;
  fault::RecoveryPolicy recovery{};
  ReplicationConfig repl{};
};

struct ReplicatedReplayResult {
  sim::ReplayResult result;
  /// Replication accounting merged across domains (replicas/final_term
  /// take the max, everything else sums).
  ReplStats repl;
  /// Every domain's failover events, stable-sorted by (when, domain,
  /// promoted replica).
  std::vector<FailoverEvent> failovers;
};

class ReplicatedReplayDriver {
 public:
  /// `net` and `config.injector` must outlive the driver.
  explicit ReplicatedReplayDriver(const wlan::Network& net,
                                  ReplicatedDriverConfig config);

  /// Replicated sharded replay: one ReplicationGroup per non-empty
  /// domain, built in controller order, run on the domain pool.
  ReplicatedReplayResult run(const trace::Trace& workload,
                             const sim::SelectorFactory& factory) const;

  unsigned effective_threads() const noexcept;

  const ReplicatedDriverConfig& config() const noexcept { return config_; }

 private:
  const wlan::Network* net_;
  ReplicatedDriverConfig config_;
};

}  // namespace s3::repl
