// Append-only replication log of controller-engine steps.
//
// The primary appends one record per step it applies: the step kind,
// its simulation time, the replication term it was written under, the
// engine's post-step state digest, and — for a step that placed a
// batch — the batch result the policy returned. A backup catches up by
// replaying the suffix it has not applied yet: engines are
// deterministic, so re-applying the same kinds in the same order
// reproduces the primary's state bit-for-bit. A replayable batch is
// committed as recorded instead of being searched again (see
// ControllerEngine::apply_step). The stored digest, which folds the
// committed placements, lets the backup verify all of it record by
// record instead of trusting it.
//
// The log also records control events (crash, promotion, restart,
// adoption, hand-back) and the headless-mode actions of an unreplicated
// controller (dropped arrivals/batches, postponed retries); those make
// the log a complete failover audit trail but only engine-step kinds
// are replayed.
//
// Snapshots and truncation: a kSnapshot record freezes the primary's
// whole engine state (EngineCheckpoint) at its log position, so a
// replica that rejoins far behind installs the latest snapshot and
// replays only the suffix after it — catch-up bounded by the snapshot
// interval, not the log length. Once every live replica is past a
// snapshot, the prefix before it can be truncated: indices stay global
// (a record keeps the index it was appended at), `base()` names the
// first record still retained, and suffix() refuses to hand out
// anything before it — by the truncation invariant
// (check::validate_log_truncation) no replica can ever need those.
//
// Deliberately lock-free: a log belongs to one ReplicationGroup, whose
// whole walk runs on a single worker thread; readers (the driver,
// tests) only look after the join, which is also where the driver
// gathers every domain's stats and failover events.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "s3/repl/engine_checkpoint.h"
#include "s3/runtime/controller_engine.h"
#include "s3/util/error.h"
#include "s3/util/sim_time.h"

namespace s3::repl {

enum class RecordKind : std::uint8_t {
  // Engine steps — replayed by backups, 1:1 with ControllerEngine::StepKind.
  kFault = 0,
  kDeparture,
  kArrival,
  kRetries,
  kFlush,
  // Headless-mode actions (controller down, nobody to promote).
  kDroppedArrival,
  kDroppedBatch,
  kPostponedRetries,
  // Control events — audit trail only, never replayed.
  kCrash,
  kPromotion,
  kRestart,
  kSnapshot,   ///< full engine checkpoint frozen at this position
  kAdoption,   ///< a neighbor-domain controller adopted the orphaned domain
  kHandback,   ///< the adopter handed the domain back to a revived original
};

/// True for kinds a backup replays through ControllerEngine.
constexpr bool is_engine_step(RecordKind kind) noexcept {
  return kind <= RecordKind::kFlush;
}

/// True for the headless-mode kinds a rejoining replica replays with
/// the engine's drop/postpone helpers.
constexpr bool is_headless_step(RecordKind kind) noexcept {
  return kind >= RecordKind::kDroppedArrival &&
         kind <= RecordKind::kPostponedRetries;
}

constexpr runtime::ControllerEngine::StepKind to_step_kind(
    RecordKind kind) noexcept {
  using StepKind = runtime::ControllerEngine::StepKind;
  switch (kind) {
    case RecordKind::kFault:
      return StepKind::kFault;
    case RecordKind::kDeparture:
      return StepKind::kDeparture;
    case RecordKind::kArrival:
      return StepKind::kArrival;
    case RecordKind::kRetries:
      return StepKind::kRetries;
    case RecordKind::kFlush:
      return StepKind::kFlush;
    default:
      return StepKind::kNone;
  }
}

constexpr RecordKind from_step_kind(
    runtime::ControllerEngine::StepKind kind) noexcept {
  using StepKind = runtime::ControllerEngine::StepKind;
  switch (kind) {
    case StepKind::kFault:
      return RecordKind::kFault;
    case StepKind::kDeparture:
      return RecordKind::kDeparture;
    case StepKind::kArrival:
      return RecordKind::kArrival;
    case StepKind::kRetries:
      return RecordKind::kRetries;
    default:
      return RecordKind::kFlush;
  }
}

struct LogRecord {
  std::uint64_t index = 0;  ///< 0-based position in the log (global, stable
                            ///< across truncation)
  std::uint64_t term = 0;   ///< replication term it was written under
  RecordKind kind = RecordKind::kFlush;
  util::SimTime when;       ///< simulation time of the step
  std::uint64_t digest = 0; ///< engine state digest after applying
  /// What the step's flush placed (ControllerEngine::last_batch());
  /// empty for every step that placed no batch.
  std::optional<sim::BatchResult> batch;
};

/// One frozen checkpoint, anchored at the log index of its kSnapshot
/// record: the engine state after applying every record with a smaller
/// index. Shared so installs never copy the checkpoint itself.
struct SnapshotEntry {
  std::uint64_t index = 0;
  std::uint64_t term = 0;
  std::shared_ptr<const EngineCheckpoint> checkpoint;
};

class EventLog {
 public:
  /// Total records ever appended — one past the last index, unaffected
  /// by truncation.
  std::size_t size() const noexcept { return base_ + records_.size(); }
  bool empty() const noexcept { return size() == 0; }

  /// First index still retained (0 until the first truncation).
  std::uint64_t base() const noexcept { return base_; }
  /// Records currently held in memory: size() - base().
  std::size_t live_size() const noexcept { return records_.size(); }

  /// The retained records, [base(), size()).
  std::span<const LogRecord> records() const noexcept { return records_; }

  const LogRecord& record(std::uint64_t index) const {
    S3_REQUIRE(index >= base_ && index < size(),
               "EventLog: record index outside the retained range");
    return records_[index - base_];
  }

  /// Records at index >= `from` — what a replica that applied `from`
  /// records still has to replay. `from` must not precede base():
  /// a replica that far behind installs a snapshot instead.
  std::span<const LogRecord> suffix(std::uint64_t from) const {
    S3_REQUIRE(from <= size(), "EventLog: suffix past the end");
    S3_REQUIRE(from >= base_, "EventLog: suffix reaches truncated records");
    return std::span<const LogRecord>(records_).subspan(from - base_);
  }

  const LogRecord& append(RecordKind kind, std::uint64_t term,
                          util::SimTime when, std::uint64_t digest,
                          std::optional<sim::BatchResult> batch = {}) {
    records_.push_back({static_cast<std::uint64_t>(size()), term, kind, when,
                        digest, std::move(batch)});
    return records_.back();
  }

  /// Appends a kSnapshot record anchored to `checkpoint`. The record's
  /// digest is the checkpoint state's digest, so the snapshot is
  /// tamper-evident the same way replayed steps are.
  const LogRecord& append_snapshot(
      std::uint64_t term, util::SimTime when,
      std::shared_ptr<const EngineCheckpoint> checkpoint) {
    S3_REQUIRE(checkpoint != nullptr, "EventLog: null checkpoint");
    const std::uint64_t digest = checkpoint->state().digest();
    const LogRecord& rec = append(RecordKind::kSnapshot, term, when, digest);
    snapshots_.push_back({rec.index, term, std::move(checkpoint)});
    return rec;
  }

  /// Most recent snapshot, nullptr before the first one.
  const SnapshotEntry* latest_snapshot() const noexcept {
    return snapshots_.empty() ? nullptr : &snapshots_.back();
  }

  /// Earliest snapshot anchored strictly after `index` — what a replica
  /// that rejected the record at `index` resyncs from. nullptr when no
  /// snapshot covers it yet.
  const SnapshotEntry* snapshot_after(std::uint64_t index) const noexcept {
    for (const SnapshotEntry& e : snapshots_) {
      if (e.index > index) return &e;
    }
    return nullptr;
  }

  /// Drops every record with index < `upto`, its batch with it (and the
  /// snapshots anchored in the dropped prefix). Memory is therefore
  /// O(retained records + their placements) plus the retained
  /// snapshots. The caller is responsible for the
  /// truncation invariant: `upto` must not exceed the latest snapshot's
  /// index or any live replica's applied position — validated by
  /// check::validate_log_truncation before every call. Returns how many
  /// records were dropped.
  std::uint64_t truncate_prefix(std::uint64_t upto) {
    S3_REQUIRE(upto <= size(), "EventLog: truncation past the end");
    if (upto <= base_) return 0;
    const std::uint64_t dropped = upto - base_;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(dropped));
    std::erase_if(snapshots_,
                  [upto](const SnapshotEntry& e) { return e.index < upto; });
    base_ = upto;
    return dropped;
  }

  /// Test tamper hook: flips the stored digest of one retained record,
  /// simulating storage corruption. Replicas replaying past it must
  /// reject it and resync from a snapshot instead of diverging.
  void tamper_digest(std::uint64_t index) {
    S3_REQUIRE(index >= base_ && index < size(),
               "EventLog: tamper index outside the retained range");
    records_[index - base_].digest ^= 0xbad0c0ffee0ddefaULL;
  }

 private:
  std::uint64_t base_ = 0;
  std::vector<LogRecord> records_;  // records_[i].index == base_ + i
  std::vector<SnapshotEntry> snapshots_;  // ascending index, >= base_
};

}  // namespace s3::repl
