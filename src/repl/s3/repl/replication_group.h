// One primary + N backup controllers for a single domain.
//
// The shape is MongoDB's replication/topology coordinator scaled down
// to our deterministic simulation world: a primary ControllerEngine
// applies domain events and appends one record per step to an
// append-only EventLog; backups replay the log suffix at logical-clock
// heartbeat boundaries, applying the primary's recorded batch decisions
// instead of searching again; when a controller-outage window opens, the
// primary crashes and the surviving replica with the highest (term,
// applied-records) pair — seeded SplitMix64 tie-break — is promoted,
// catches up by replaying the remaining suffix, and provably reaches a
// bit-identical state (check::validate_replica_convergence against the
// crashed primary's final snapshot). The crashed replica rejoins as a
// backup when its window closes, catching up the same way.
//
// Snapshots bound the catch-up bill: every `snapshot_every` replayable
// records the primary freezes its whole engine state into the log
// (EngineCheckpoint behind a kSnapshot record), so a replica that
// rejoins far behind installs the latest checkpoint and replays only
// the suffix after it — work proportional to the snapshot interval,
// never the log length. With `truncate` on, any prefix that every live
// replica has applied (and that precedes the latest snapshot) is
// dropped, keeping the log's memory bounded; the truncation invariant
// — no replica can ever need a truncated record — is asserted by
// check::validate_log_truncation before every cut. A corrupted log
// record (digest mismatch on replay) is rejected and counted, and the
// rejecting replica resyncs from the first snapshot past the bad
// record instead of diverging.
//
// Cross-domain failover: a `controller-loss` window takes out the
// whole replica set at once. The first alive neighbor controller in
// deterministic order ((domain + k) mod C for k = 1, 2, ...) adopts
// the orphaned domain, seeding from the last replicated snapshot (or
// the full log when none exists yet) and provably converging on the
// lost primary's exact state; at the window end the revived originals
// elect a leader, catch up, and the adopter hands the domain back.
//
// Everything is a pure function of (workload, plan, seeds): no wall
// clock enters any decision, so a replicated replay is reproducible
// across runs and thread counts — the property that lets a backup take
// over without dropping a single in-flight session.
//
// With zero backups the domain runs *headless* through each outage:
// the pending batch is discarded, arrivals inside the window are
// dropped (counted in stats().dropped_sessions), retries are parked
// until the restart, and only physical events (departures, AP fault
// flips) keep being applied. The restarted controller resumes from its
// pre-crash state with a bumped term.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "s3/fault/fault_injector.h"
#include "s3/fault/replica_snapshot.h"
#include "s3/repl/event_log.h"
#include "s3/runtime/controller_engine.h"
#include "s3/sim/selector.h"
#include "s3/trace/trace.h"
#include "s3/wlan/network.h"

namespace s3::repl {

/// "Tamper with nothing" sentinel for ReplicationConfig::corrupt_record.
inline constexpr std::uint64_t kNoTamper = static_cast<std::uint64_t>(-1);

struct ReplicationConfig {
  /// Backup replicas per domain (0 = headless failover handling).
  std::size_t backups = 1;
  /// Logical-clock heartbeat: backups replay the log suffix whenever
  /// the primary's step time crosses a multiple of this period.
  std::int64_t heartbeat_s = 300;
  /// Seed of the deterministic election tie-break.
  std::uint64_t election_seed = 1;
  /// Replayable records between engine-state snapshots in the event
  /// log (0 = snapshots disabled). Also the elective-install
  /// threshold: a replica more than one interval behind the latest
  /// snapshot installs it instead of replaying, which bounds any
  /// catch-up by ~2x this interval regardless of log length.
  std::uint64_t snapshot_every = 0;
  /// Drop log prefixes every live replica has applied (and that
  /// precede the latest snapshot). Requires snapshot_every > 0 — a
  /// replica behind the truncated base re-seeds from a snapshot.
  bool truncate = false;
  /// Test-only fault: flip the digest bits of this one log record at
  /// append time, simulating storage corruption. Replicas must reject
  /// the record and resync from a snapshot. kNoTamper = off.
  std::uint64_t corrupt_record = kNoTamper;
};

/// What kind of takeover a FailoverEvent describes.
enum class FailoverKind : std::uint8_t {
  kPromotion = 0,  ///< a local backup took over from a crashed primary
  kHeadless,       ///< nobody to promote; the domain rode the window out
  kAdoption,       ///< a neighbor-domain controller adopted the domain
  kHandback,       ///< the adopter returned the domain to a revived original
};

/// One takeover of a domain controller.
struct FailoverEvent {
  ControllerId domain = kInvalidController;
  util::SimTime when;
  /// Replica index promoted to primary (== the crashed index for a
  /// headless restart; the adopter's transient index for an adoption).
  std::size_t promoted_replica = 0;
  std::uint64_t new_term = 0;
  /// Log records the promoted backup replayed to catch up.
  std::uint64_t records_replayed = 0;
  /// Wall-clock catch-up cost (measurement only; no decision reads it).
  std::uint64_t catchup_wall_ns = 0;
  /// Whether validate_replica_convergence found the promoted replica
  /// bit-identical to the state it took over (the crashed or lost
  /// primary, or the adopter at a hand-back). Always true for a correct
  /// build; recorded so benches and tests can assert it.
  bool converged = true;
  FailoverKind kind = FailoverKind::kPromotion;
  /// Neighbor controller serving the domain (adoption/hand-back only).
  ControllerId adopter = kInvalidController;
  /// Catch-up started from an installed snapshot instead of replaying
  /// the whole remaining suffix.
  bool snapshot_install = false;
};

/// Replication-layer accounting, merged across domains by the driver.
struct ReplStats {
  std::size_t replicas = 0;        ///< engines built (1 + backups), max over domains
  std::size_t failovers = 0;       ///< promotions of a backup
  std::size_t headless_windows = 0;
  std::size_t rejoins = 0;         ///< crashed replicas re-joined as backups
  std::size_t heartbeats = 0;
  std::uint64_t log_records = 0;
  std::uint64_t catchup_records = 0;  ///< summed over promotions + rejoins
  std::uint64_t catchup_wall_ns = 0;
  std::uint64_t final_term = 0;       ///< max over domains
  std::uint64_t snapshots = 0;          ///< kSnapshot records appended
  std::uint64_t snapshot_installs = 0;  ///< catch-ups seeded from a snapshot
  std::uint64_t truncated_records = 0;  ///< records dropped from log prefixes
  std::uint64_t live_log_records = 0;   ///< records still retained at the end
  std::size_t adoptions = 0;   ///< whole-replica-set losses absorbed by a neighbor
  std::size_t handbacks = 0;   ///< domains returned to revived originals
  std::uint64_t digest_mismatches = 0;  ///< corrupted records rejected on replay
  std::uint64_t resyncs = 0;            ///< snapshot resyncs after a rejection
  /// Largest single catch-up (promotion, rejoin, adoption or sweep) —
  /// with snapshots at interval k this stays <= ~2k + control records
  /// however long the log grows; the torture harness asserts it.
  std::uint64_t max_catchup_records = 0;
};

class ReplicationGroup {
 public:
  /// Mirrors ControllerEngine's constructor contract; `factory` is
  /// invoked once per replica (deterministic factories produce
  /// identical instances — required). All references must outlive the
  /// group.
  ReplicationGroup(const wlan::Network& net, const trace::Trace& workload,
                   ControllerId domain, std::vector<std::size_t> sessions,
                   const sim::SelectorFactory& factory,
                   const sim::ReplayConfig& config,
                   const fault::FaultInjector& injector,
                   const fault::RecoveryPolicy& recovery,
                   const ReplicationConfig& repl);

  /// Walks the domain's whole event stream, crashing/promoting/
  /// rejoining controllers per the injector's outage windows and
  /// adopting out/handing back across domains per its loss windows,
  /// then finalizes the acting primary.
  void run();

  ControllerId domain() const noexcept { return domain_; }

  /// Acting primary's replay stats (valid after run()).
  const sim::ReplayStats& stats() const;

  /// Copies the acting primary's domain-session placements into the
  /// global assignment vector.
  void publish_assignment(std::span<ApId> global) const;

  const ReplStats& repl_stats() const noexcept { return repl_stats_; }
  std::span<const FailoverEvent> failovers() const noexcept {
    return failovers_;
  }
  const EventLog& log() const noexcept { return log_; }

  /// Acting primary's snapshot with term/applied filled in.
  fault::ReplicaSnapshot snapshot() const;

 private:
  struct Replica {
    std::unique_ptr<sim::ApSelector> policy;
    std::vector<ApId> assignment;
    std::unique_ptr<runtime::ControllerEngine> engine;
    std::uint64_t term = 1;
    std::uint64_t applied = 0;  ///< log records applied
    bool alive = true;
    /// Rejected a corrupted record; must not replay again until
    /// re-seeded from a snapshot anchored past `resync_floor`.
    bool needs_resync = false;
    std::uint64_t resync_floor = 0;
  };

  Replica& primary() noexcept { return replicas_[primary_index_]; }
  const Replica& primary() const noexcept { return replicas_[primary_index_]; }

  /// `r`'s engine snapshot with its term and applied position.
  static fault::ReplicaSnapshot snapshot_of(const Replica& r);

  std::uint64_t max_term() const noexcept;
  /// Deterministic election among alive replicas: highest term, then
  /// longest applied log, then seeded SplitMix64 tie-break. `exclude`
  /// skips one index (the adopter, during a hand-back).
  std::size_t elect(std::size_t exclude) const;
  /// Brings `r` to the log head: seeds from a snapshot when forced
  /// (behind the truncated base, or pending resync) or when more than
  /// one snapshot interval behind, then replays the remaining suffix
  /// with per-record digest verification. A verification failure
  /// rejects the record, counts it, and re-seeds from the first
  /// snapshot past it (or stalls until one exists). Returns the number
  /// of records replayed.
  std::uint64_t catch_up(Replica& r);
  /// Replaces `r`'s engine/policy/assignment with fresh clones of the
  /// checkpoint and moves its position to the snapshot's anchor.
  void install_snapshot(Replica& r, const SnapshotEntry& entry);
  /// Appends a record for a step the primary just applied, with the
  /// batch it placed when it placed one, and advances its position.
  void append_primary(RecordKind kind, util::SimTime when,
                      std::uint64_t digest,
                      const sim::BatchResult* batch = nullptr);
  /// Freezes the primary into a kSnapshot record now.
  void append_snapshot(util::SimTime when);
  /// Snapshot-interval bookkeeping after an appended replayable record.
  void maybe_snapshot(util::SimTime when);
  /// Drops the log prefix all live replicas are past (never beyond the
  /// latest snapshot), gated by check::validate_log_truncation.
  void maybe_truncate();
  /// Heartbeat bookkeeping after the primary applied a step at `when`.
  void maybe_heartbeat(util::SimTime when);
  /// True when an alive backup waits out a rejected record and no
  /// snapshot past it exists yet. The acting primary never waits:
  /// needs_resync is set only by catch_up, which never runs on the
  /// acting primary, and take_over clears it (through a rescue snapshot
  /// when needed) before a replica becomes primary.
  bool backup_stalled() const;
  /// Crash of the acting primary at `window.begin`: promotion (backups
  /// exist) or headless walk of the window (none do).
  void handle_outage(const util::TimeInterval& window);
  /// Loss of the whole replica set: a deterministic neighbor controller
  /// adopts the domain from the latest snapshot (headless walk when no
  /// neighbor is alive).
  void handle_loss(const util::TimeInterval& window);
  /// First alive controller in (domain + k) mod C order, or
  /// kInvalidController when every other controller is down too.
  ControllerId choose_adopter(util::SimTime at) const;
  /// Revived originals elect a leader and the adopter steps down.
  void handle_handback();
  /// The takeover shared by promotion, adoption and hand-back: catches
  /// `successor` up (when a rejected record blocks it, first cutting a
  /// rescue snapshot from the outgoing primary, whose state is still
  /// authoritative), bumps its term, makes it the acting primary,
  /// asserts it converged on `reference` — the state it takes over —
  /// appends the `kind` record at `when` and books the catch-up timed
  /// from `t0`. Returns the recorded event, for the caller to complete.
  FailoverEvent& take_over(std::size_t successor,
                           const fault::ReplicaSnapshot& reference,
                           util::SimTime when, FailoverKind kind,
                           std::uint64_t t0);
  void run_headless(const util::TimeInterval& window);
  /// Revives a crashed replica once simulation time passed its window
  /// end; it catches up from the log and rejoins as a backup.
  void handle_restarts(util::SimTime now, bool force);
  /// Books one finished catch-up into the stats.
  void account_catchup(std::uint64_t replayed, std::uint64_t wall_ns);

  const wlan::Network* net_;
  const trace::Trace* workload_;
  const sim::SelectorFactory* factory_;
  sim::ReplayConfig replay_config_;
  fault::RecoveryPolicy recovery_;
  ControllerId domain_;
  const fault::FaultInjector* injector_;
  ReplicationConfig repl_config_;
  std::vector<std::size_t> sessions_;  // global indices, connect order
  std::vector<Replica> replicas_;
  std::size_t primary_index_ = 0;
  EventLog log_;
  util::SimTime next_heartbeat_;
  std::uint64_t replayable_since_snapshot_ = 0;
  /// Adoption in progress: the transient adopter replica is
  /// replicas_.back() and hands back at the loss window's end.
  bool adopter_active_ = false;
  ControllerId adopter_controller_ = kInvalidController;
  util::SimTime handback_at_;
  /// (replica index, restart time) of crashed replicas awaiting revival.
  struct PendingRestart {
    std::size_t replica;
    util::SimTime at;
  };
  std::vector<PendingRestart> pending_restarts_;
  std::vector<FailoverEvent> failovers_;
  ReplStats repl_stats_;
  bool finalized_ = false;
};

}  // namespace s3::repl
