#include "s3/repl/replicated_driver.h"

#include <algorithm>
#include <memory>

#include "s3/check/contract.h"
#include "s3/check/validators.h"
#include "s3/runtime/replay_driver.h"

namespace s3::repl {

ReplicatedReplayDriver::ReplicatedReplayDriver(const wlan::Network& net,
                                               ReplicatedDriverConfig config)
    : net_(&net), config_(config) {
  S3_REQUIRE(config_.replay.dispatch_window_s >= 0,
             "ReplicatedReplayDriver: negative dispatch window");
  S3_REQUIRE(config_.injector != nullptr,
             "ReplicatedReplayDriver: an injector is required (without one "
             "there is nothing to fail over from — use runtime::ReplayDriver)");
  S3_REQUIRE(config_.repl.heartbeat_s > 0,
             "ReplicatedReplayDriver: heartbeat period must be positive");
}

unsigned ReplicatedReplayDriver::effective_threads() const noexcept {
  return runtime::resolve_threads(config_.threads);
}

ReplicatedReplayResult ReplicatedReplayDriver::run(
    const trace::Trace& workload, const sim::SelectorFactory& factory) const {
  if (check::contracts_enabled()) {
    check::validate_trace(workload, net_);
  }

  std::vector<std::vector<std::size_t>> shards =
      runtime::shard_sessions(*net_, workload);

  // One group per non-empty domain, in controller order so policy
  // construction never depends on thread schedule.
  std::vector<std::unique_ptr<ReplicationGroup>> groups;
  for (ControllerId c = 0; c < shards.size(); ++c) {
    if (shards[c].empty()) continue;
    groups.push_back(std::make_unique<ReplicationGroup>(
        *net_, workload, c, std::move(shards[c]), factory, config_.replay,
        *config_.injector, config_.recovery, config_.repl));
  }

  runtime::run_domains(effective_threads(), groups.size(),
                       [&](std::size_t i) { groups[i]->run(); });

  // Merge after the join, sequentially, in controller order: each group
  // publishes into its own disjoint assignment slots.
  std::vector<ApId> assignment(workload.size(), kInvalidAp);
  std::vector<sim::ReplayStats> shard_stats;
  shard_stats.reserve(groups.size());
  ReplicatedReplayResult out;
  for (const auto& g : groups) {
    g->publish_assignment(assignment);
    shard_stats.push_back(g->stats());
    const std::span<const FailoverEvent> events = g->failovers();
    out.failovers.insert(out.failovers.end(), events.begin(), events.end());
    const ReplStats& rs = g->repl_stats();
    out.repl.replicas = std::max(out.repl.replicas, rs.replicas);
    out.repl.failovers += rs.failovers;
    out.repl.headless_windows += rs.headless_windows;
    out.repl.rejoins += rs.rejoins;
    out.repl.heartbeats += rs.heartbeats;
    out.repl.log_records += rs.log_records;
    out.repl.catchup_records += rs.catchup_records;
    out.repl.catchup_wall_ns += rs.catchup_wall_ns;
    out.repl.final_term = std::max(out.repl.final_term, rs.final_term);
    out.repl.snapshots += rs.snapshots;
    out.repl.snapshot_installs += rs.snapshot_installs;
    out.repl.truncated_records += rs.truncated_records;
    out.repl.live_log_records += rs.live_log_records;
    out.repl.adoptions += rs.adoptions;
    out.repl.handbacks += rs.handbacks;
    out.repl.digest_mismatches += rs.digest_mismatches;
    out.repl.resyncs += rs.resyncs;
    out.repl.max_catchup_records =
        std::max(out.repl.max_catchup_records, rs.max_catchup_records);
  }
  // Stable, so a group's events with equal keys keep their order.
  std::stable_sort(out.failovers.begin(), out.failovers.end(),
                   [](const FailoverEvent& a, const FailoverEvent& b) {
                     if (a.when != b.when) return a.when < b.when;
                     if (a.domain != b.domain) return a.domain < b.domain;
                     return a.promoted_replica < b.promoted_replica;
                   });
  out.result = sim::ReplayResult{workload.with_assignments(assignment),
                                 runtime::merge_stats(shard_stats)};
  return out;
}

}  // namespace s3::repl
