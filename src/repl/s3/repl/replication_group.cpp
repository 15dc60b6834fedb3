#include "s3/repl/replication_group.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "s3/check/validators.h"
#include "s3/util/error.h"
#include "s3/util/metrics.h"
#include "s3/util/rng.h"

namespace s3::repl {

namespace {

using StepKind = runtime::ControllerEngine::StepKind;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ReplMetrics {
  util::Counter* snapshots;
  util::Counter* snapshot_installs;
  util::Counter* truncated_records;
  util::Counter* digest_mismatches;
  util::Counter* adoptions;
  util::Counter* handbacks;
};

const ReplMetrics& repl_metrics() {
  static const ReplMetrics m{
      util::metrics().counter("repl.snapshots"),
      util::metrics().counter("repl.snapshot_installs"),
      util::metrics().counter("repl.truncated_records"),
      util::metrics().counter("repl.digest_mismatches"),
      util::metrics().counter("repl.adoptions"),
      util::metrics().counter("repl.handbacks"),
  };
  return m;
}

constexpr std::size_t kNoExclude = std::numeric_limits<std::size_t>::max();

/// The audit record a takeover of `kind` appends to the log.
RecordKind takeover_record(FailoverKind kind) {
  switch (kind) {
    case FailoverKind::kAdoption:
      return RecordKind::kAdoption;
    case FailoverKind::kHandback:
      return RecordKind::kHandback;
    default:
      return RecordKind::kPromotion;
  }
}

}  // namespace

ReplicationGroup::ReplicationGroup(
    const wlan::Network& net, const trace::Trace& workload, ControllerId domain,
    std::vector<std::size_t> sessions, const sim::SelectorFactory& factory,
    const sim::ReplayConfig& config, const fault::FaultInjector& injector,
    const fault::RecoveryPolicy& recovery, const ReplicationConfig& repl)
    : net_(&net),
      workload_(&workload),
      factory_(&factory),
      replay_config_(config),
      recovery_(recovery),
      domain_(domain),
      injector_(&injector),
      repl_config_(repl),
      next_heartbeat_(util::SimTime(repl.heartbeat_s)) {
  S3_REQUIRE(repl_config_.heartbeat_s > 0,
             "ReplicationGroup: heartbeat period must be positive");
  S3_REQUIRE(!repl_config_.truncate || repl_config_.snapshot_every > 0,
             "ReplicationGroup: log truncation requires snapshots "
             "(snapshot-every > 0) so lagging replicas can re-seed");
  const std::size_t count = 1 + repl_config_.backups;
  replicas_.reserve(count + 1);  // +1: a transient adopter during a loss
  for (std::size_t i = 0; i < count; ++i) {
    Replica r;
    r.policy = factory.create(domain);
    S3_ASSERT(r.policy != nullptr,
              "ReplicationGroup: factory returned a null policy");
    r.assignment.assign(workload.size(), kInvalidAp);
    r.engine = std::make_unique<runtime::ControllerEngine>(
        net, workload, domain, sessions, *r.policy, config,
        std::span<ApId>(r.assignment), &injector, recovery);
    replicas_.push_back(std::move(r));
  }
  repl_stats_.replicas = count;
  sessions_ = std::move(sessions);
}

std::uint64_t ReplicationGroup::max_term() const noexcept {
  std::uint64_t t = 0;
  for (const Replica& r : replicas_) t = std::max(t, r.term);
  return t;
}

std::size_t ReplicationGroup::elect(std::size_t exclude) const {
  std::size_t best = kNoExclude;
  std::uint64_t best_term = 0;
  std::uint64_t best_applied = 0;
  std::uint64_t best_tiebreak = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = replicas_[i];
    if (!r.alive || i == exclude) continue;
    // The tie-break is a pure hash of (seed, domain, replica index):
    // every deployment site computes the same winner without talking.
    const std::uint64_t tiebreak =
        util::SplitMix64(repl_config_.election_seed ^
                         (static_cast<std::uint64_t>(domain_) << 32) ^ i)
            .next();
    const bool wins =
        best == kNoExclude || r.term > best_term ||
        (r.term == best_term &&
         (r.applied > best_applied ||
          (r.applied == best_applied && tiebreak > best_tiebreak)));
    if (wins) {
      best = i;
      best_term = r.term;
      best_applied = r.applied;
      best_tiebreak = tiebreak;
    }
  }
  S3_REQUIRE(best != kNoExclude, "ReplicationGroup: no alive replica to elect");
  return best;
}

void ReplicationGroup::install_snapshot(Replica& r, const SnapshotEntry& entry) {
  r.policy = entry.checkpoint->clone_policy();
  r.assignment = entry.checkpoint->assignment_copy();
  r.engine = std::make_unique<runtime::ControllerEngine>(
      entry.checkpoint->engine(), *r.policy, std::span<ApId>(r.assignment));
  // The checkpoint holds the state after every record below its anchor;
  // the kSnapshot record itself replays as a control record.
  r.applied = entry.index;
  r.term = std::max(r.term, entry.term);
  r.needs_resync = false;
  r.resync_floor = 0;
  ++repl_stats_.snapshot_installs;
  repl_metrics().snapshot_installs->add(1);
}

std::uint64_t ReplicationGroup::catch_up(Replica& r) {
  std::uint64_t replayed = 0;
  while (true) {
    // Seed from a snapshot when forced — behind the truncated base, or
    // resyncing past a rejected record — or electively when more than
    // one snapshot interval behind the latest one; either way the
    // remaining replay is bounded by the interval, not the log length.
    const SnapshotEntry* seed = nullptr;
    if (r.needs_resync) {
      seed = log_.snapshot_after(r.resync_floor);
      if (seed == nullptr) return replayed;  // stalled until one is cut
      ++repl_stats_.resyncs;
    } else if (r.applied < log_.base()) {
      seed = log_.latest_snapshot();
      S3_ASSERT(seed != nullptr && seed->index >= log_.base(),
                "ReplicationGroup: truncated log without a covering snapshot");
    } else if (repl_config_.snapshot_every > 0) {
      const SnapshotEntry* latest = log_.latest_snapshot();
      if (latest != nullptr && latest->index > r.applied &&
          latest->index - r.applied > repl_config_.snapshot_every) {
        seed = latest;
      }
    }
    if (seed != nullptr) install_snapshot(r, *seed);

    bool rejected = false;
    for (const LogRecord& rec : log_.suffix(r.applied)) {
      std::uint64_t digest = 0;
      bool verifiable = false;
      if (is_engine_step(rec.kind)) {
        digest = r.engine->apply_step(to_step_kind(rec.kind),
                                      rec.batch ? &*rec.batch : nullptr);
        verifiable = true;
      } else if (is_headless_step(rec.kind)) {
        switch (rec.kind) {
          case RecordKind::kDroppedArrival:
            r.engine->drop_next_arrival();
            break;
          case RecordKind::kDroppedBatch:
            r.engine->drop_pending_batch();
            break;
          case RecordKind::kPostponedRetries:
            // `when` carries the postpone target (the window end).
            r.engine->postpone_retries_until(rec.when);
            break;
          default:
            break;
        }
        digest = r.engine->apply_step(StepKind::kNone);
        verifiable = true;
      }
      if (verifiable) {
        if (digest != rec.digest) {
          // The record's stored digest does not match what replaying it
          // produced: either the record is corrupted or this replica
          // diverged. Without snapshots there is no way back; with
          // them, reject the record and re-seed from the first
          // snapshot past it rather than running on unvouched state.
          S3_ASSERT(repl_config_.snapshot_every > 0,
                    "ReplicationGroup: replica diverged from the event log");
          ++repl_stats_.digest_mismatches;
          repl_metrics().digest_mismatches->add(1);
          r.needs_resync = true;
          r.resync_floor = rec.index;
          rejected = true;
          break;
        }
        ++replayed;
      }
      r.term = std::max(r.term, rec.term);
      r.applied = rec.index + 1;
    }
    if (!rejected) return replayed;
  }
}

void ReplicationGroup::account_catchup(std::uint64_t replayed,
                                       std::uint64_t wall_ns) {
  repl_stats_.catchup_records += replayed;
  repl_stats_.catchup_wall_ns += wall_ns;
  repl_stats_.max_catchup_records =
      std::max(repl_stats_.max_catchup_records, replayed);
}

void ReplicationGroup::append_primary(RecordKind kind, util::SimTime when,
                                      std::uint64_t digest,
                                      const sim::BatchResult* batch) {
  const LogRecord& rec =
      log_.append(kind, primary().term, when, digest,
                  batch ? std::optional<sim::BatchResult>(*batch)
                        : std::nullopt);
  if (rec.index == repl_config_.corrupt_record) log_.tamper_digest(rec.index);
  if (is_engine_step(kind) || is_headless_step(kind)) {
    ++replayable_since_snapshot_;
  }
  primary().applied = log_.size();
}

void ReplicationGroup::append_snapshot(util::SimTime when) {
  Replica& p = primary();
  auto checkpoint = std::make_shared<const EngineCheckpoint>(
      *p.engine, *p.policy, std::span<const ApId>(p.assignment));
  log_.append_snapshot(p.term, when, std::move(checkpoint));
  p.applied = log_.size();
  replayable_since_snapshot_ = 0;
  ++repl_stats_.snapshots;
  repl_metrics().snapshots->add(1);
  maybe_truncate();
}

void ReplicationGroup::maybe_snapshot(util::SimTime when) {
  if (repl_config_.snapshot_every == 0) return;
  if (replayable_since_snapshot_ < repl_config_.snapshot_every) return;
  append_snapshot(when);
}

void ReplicationGroup::maybe_truncate() {
  if (!repl_config_.truncate) return;
  const SnapshotEntry* latest = log_.latest_snapshot();
  if (latest == nullptr) return;
  // Never past the latest snapshot (a replica behind the base must be
  // able to re-seed) and never past what a live replica still needs.
  std::uint64_t upto = latest->index;
  for (const Replica& r : replicas_) {
    if (r.alive) upto = std::min(upto, r.applied);
  }
  if (upto <= log_.base()) return;

  std::vector<check::ReplicaLogPosition> positions;
  positions.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    positions.push_back({i, replicas_[i].alive, replicas_[i].applied});
  }
  const check::CheckReport report = check::validate_log_truncation(
      upto, log_.size(), /*has_snapshot=*/true, latest->index, positions);
  S3_ASSERT(report.ok(),
            "ReplicationGroup: log truncation would orphan a replica");
  const std::uint64_t dropped = log_.truncate_prefix(upto);
  repl_stats_.truncated_records += dropped;
  repl_metrics().truncated_records->add(dropped);
}

void ReplicationGroup::maybe_heartbeat(util::SimTime when) {
  if (when < next_heartbeat_) return;
  while (next_heartbeat_ <= when) {
    next_heartbeat_ += util::SimTime(repl_config_.heartbeat_s);
  }
  ++repl_stats_.heartbeats;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == primary_index_ || !replicas_[i].alive) continue;
    catch_up(replicas_[i]);
  }
  // A backup that just rejected a corrupted record waits for a snapshot
  // past it; cut one from the (healthy) primary now so the stall lasts
  // at most one heartbeat.
  if (repl_config_.snapshot_every > 0 && backup_stalled()) {
    append_snapshot(when);
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i == primary_index_ || !replicas_[i].alive) continue;
      if (replicas_[i].needs_resync) catch_up(replicas_[i]);
    }
  }
  maybe_truncate();
}

bool ReplicationGroup::backup_stalled() const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = replicas_[i];
    if (i != primary_index_ && r.alive && r.needs_resync &&
        log_.snapshot_after(r.resync_floor) == nullptr) {
      return true;
    }
  }
  return false;
}

void ReplicationGroup::handle_restarts(util::SimTime now, bool force) {
  bool revived = false;
  for (auto it = pending_restarts_.begin(); it != pending_restarts_.end();) {
    if (!force && it->at > now) {
      ++it;
      continue;
    }
    Replica& r = replicas_[it->replica];
    r.alive = true;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t replayed = catch_up(r);
    const std::uint64_t ns = now_ns() - t0;
    r.term = max_term();
    ++repl_stats_.rejoins;
    account_catchup(replayed, ns);
    log_.append(RecordKind::kRestart, r.term, it->at,
                r.engine->apply_step(StepKind::kNone));
    // A replica still waiting out a rejected record keeps its position;
    // it completes the catch-up once a snapshot past the record exists.
    if (!r.needs_resync) r.applied = log_.size();
    revived = true;
    it = pending_restarts_.erase(it);
  }
  if (revived && adopter_active_) handle_handback();
}

void ReplicationGroup::run_headless(const util::TimeInterval& window) {
  ++repl_stats_.headless_windows;
  Replica& r = primary();

  // Nobody is holding the pending batch anymore; its members are lost.
  r.engine->drop_pending_batch();
  append_primary(RecordKind::kDroppedBatch, window.begin,
                 r.engine->apply_step(StepKind::kNone));
  // Evicted stations keep scanning but there is no controller to admit
  // them until the restart.
  r.engine->postpone_retries_until(window.end);
  append_primary(RecordKind::kPostponedRetries, window.end,
                 r.engine->apply_step(StepKind::kNone));

  while (true) {
    const runtime::ControllerEngine::Step step = r.engine->next_step();
    if (step.kind == StepKind::kNone || step.when >= window.end) break;
    switch (step.kind) {
      case StepKind::kArrival:
        r.engine->drop_next_arrival();
        append_primary(RecordKind::kDroppedArrival, step.when,
                       r.engine->apply_step(StepKind::kNone));
        break;
      case StepKind::kRetries:
        // An AP outage inside the window evicted stations and re-armed
        // their retries; park them again.
        r.engine->postpone_retries_until(window.end);
        append_primary(RecordKind::kPostponedRetries, window.end,
                       r.engine->apply_step(StepKind::kNone));
        break;
      case StepKind::kFlush:
        // Unreachable in a quiet window (arrivals are dropped before
        // they batch), but a crash between batching and flushing must
        // not publish placements nobody computed.
        r.engine->drop_pending_batch();
        append_primary(RecordKind::kDroppedBatch, step.when,
                       r.engine->apply_step(StepKind::kNone));
        break;
      default:
        // Departures and AP fault flips are physical events; they
        // happen with or without a controller.
        append_primary(from_step_kind(step.kind), step.when,
                       r.engine->apply_step(step.kind));
        break;
    }
  }

  r.term = max_term() + 1;
  append_primary(RecordKind::kRestart, window.end,
                 r.engine->apply_step(StepKind::kNone));
  FailoverEvent ev;
  ev.domain = domain_;
  ev.when = window.begin;
  ev.promoted_replica = primary_index_;
  ev.new_term = r.term;
  ev.kind = FailoverKind::kHeadless;
  failovers_.push_back(ev);
}

void ReplicationGroup::handle_outage(const util::TimeInterval& window) {
  append_primary(RecordKind::kCrash, window.begin,
                 primary().engine->apply_step(StepKind::kNone));

  bool has_backup = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i != primary_index_ && replicas_[i].alive) has_backup = true;
  }
  if (!has_backup) {
    run_headless(window);
    return;
  }

  const fault::ReplicaSnapshot crashed = snapshot();
  primary().alive = false;
  pending_restarts_.push_back({primary_index_, window.end});
  take_over(elect(kNoExclude), crashed, window.begin, FailoverKind::kPromotion,
            now_ns());
  ++repl_stats_.failovers;
}

FailoverEvent& ReplicationGroup::take_over(
    std::size_t successor, const fault::ReplicaSnapshot& reference,
    util::SimTime when, FailoverKind kind, std::uint64_t t0) {
  Replica& s = replicas_[successor];
  const std::uint64_t installs_before = repl_stats_.snapshot_installs;
  std::uint64_t replayed = catch_up(s);
  if (s.needs_resync) {
    // A corrupted record sits between the successor and the log head.
    // primary() still points at the outgoing controller, whose engine
    // holds the authoritative state: freeze it as the resync snapshot.
    append_snapshot(when);
    replayed += catch_up(s);
  }
  const std::uint64_t ns = now_ns() - t0;
  s.term = max_term() + 1;
  primary_index_ = successor;

  // The takeover gate: the successor must now carry exactly the state
  // it takes over — placements, social counters, degradation machine,
  // stats, everything.
  const fault::ReplicaSnapshot taken = snapshot();
  const check::CheckReport report =
      check::validate_replica_convergence(reference, taken);
  S3_ASSERT(report.ok(),
            "ReplicationGroup: successor diverged from the state it took over");

  append_primary(takeover_record(kind), when, taken.digest());
  account_catchup(replayed, ns);
  FailoverEvent& ev = failovers_.emplace_back();
  ev.domain = domain_;
  ev.when = when;
  ev.promoted_replica = successor;
  ev.new_term = s.term;
  ev.records_replayed = replayed;
  ev.catchup_wall_ns = ns;
  ev.converged = report.ok();
  ev.kind = kind;
  ev.snapshot_install = repl_stats_.snapshot_installs > installs_before;
  return ev;
}

ControllerId ReplicationGroup::choose_adopter(util::SimTime at) const {
  const std::size_t n = net_->num_controllers();
  for (std::size_t k = 1; k < n; ++k) {
    const auto cand = static_cast<ControllerId>((domain_ + k) % n);
    if (!injector_->controller_down(cand, at)) return cand;
  }
  return kInvalidController;
}

void ReplicationGroup::handle_loss(const util::TimeInterval& window) {
  append_primary(RecordKind::kCrash, window.begin,
                 primary().engine->apply_step(StepKind::kNone));

  const ControllerId adopter = choose_adopter(window.begin);
  if (adopter == kInvalidController) {
    // Every other controller is down too; nobody can adopt. The domain
    // rides the window out headless on the primary's restart path, and
    // its backups stay dark until the window end.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i == primary_index_ || !replicas_[i].alive) continue;
      replicas_[i].alive = false;
      pending_restarts_.push_back({i, window.end});
    }
    run_headless(window);
    return;
  }

  // The whole replica set is gone at once.
  const fault::ReplicaSnapshot lost = snapshot();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!replicas_[i].alive) continue;
    replicas_[i].alive = false;
    pending_restarts_.push_back({i, window.end});
  }

  // The adopter seeds from the last replicated snapshot — all it ever
  // received from this domain — or, before the first snapshot, rebuilds
  // from the full log the way a day-zero replica would. Building it is
  // part of the catch-up bill.
  const SnapshotEntry* seed = log_.latest_snapshot();
  const std::uint64_t t0 = now_ns();
  Replica a;
  a.alive = true;
  if (seed != nullptr) {
    install_snapshot(a, *seed);
  } else {
    S3_ASSERT(log_.base() == 0,
              "ReplicationGroup: truncated log without a snapshot to adopt from");
    a.policy = factory_->create(domain_);
    S3_ASSERT(a.policy != nullptr,
              "ReplicationGroup: factory returned a null policy");
    a.assignment.assign(workload_->size(), kInvalidAp);
    a.engine = std::make_unique<runtime::ControllerEngine>(
        *net_, *workload_, domain_, sessions_, *a.policy, replay_config_,
        std::span<ApId>(a.assignment), injector_, recovery_);
  }
  replicas_.push_back(std::move(a));
  adopter_active_ = true;
  adopter_controller_ = adopter;
  handback_at_ = window.end;

  FailoverEvent& ev = take_over(replicas_.size() - 1, lost, window.begin,
                                FailoverKind::kAdoption, t0);
  ev.adopter = adopter;
  ev.snapshot_install = seed != nullptr;
  ++repl_stats_.adoptions;
  repl_metrics().adoptions->add(1);
}

void ReplicationGroup::handle_handback() {
  // The adopter steps down only once at least one original is back.
  const std::size_t adopter_index = replicas_.size() - 1;
  bool any_original_alive = false;
  for (std::size_t i = 0; i < adopter_index; ++i) {
    if (replicas_[i].alive) any_original_alive = true;
  }
  if (!any_original_alive) return;

  FailoverEvent& ev =
      take_over(elect(adopter_index), snapshot_of(replicas_[adopter_index]),
                handback_at_, FailoverKind::kHandback, now_ns());
  ev.adopter = adopter_controller_;
  ++repl_stats_.handbacks;
  repl_metrics().handbacks->add(1);

  // Retire the transient adopter replica.
  replicas_.pop_back();
  adopter_active_ = false;
  adopter_controller_ = kInvalidController;
}

void ReplicationGroup::run() {
  // One merged, begin-sorted schedule of this domain's crash (outage)
  // and whole-replica-set (loss) windows. fault::validate_plan
  // guarantees windows of the same controller never overlap.
  struct Scheduled {
    util::TimeInterval window;
    bool loss;
  };
  std::vector<Scheduled> windows;
  for (const util::TimeInterval& iv : injector_->controller_outages(domain_)) {
    windows.push_back({iv, false});
  }
  for (const util::TimeInterval& iv : injector_->controller_losses(domain_)) {
    windows.push_back({iv, true});
  }
  // s3lint: allow(det-sort-ties): ties cannot occur: validate_plan keeps one
  // controller's outage and loss windows non-empty and disjoint
  std::sort(windows.begin(), windows.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return a.window.begin < b.window.begin;
            });

  std::size_t wi = 0;
  while (true) {
    const runtime::ControllerEngine::Step step = primary().engine->next_step();
    if (step.kind == StepKind::kNone) break;
    // Restarts strictly before crashes at the same instant: half-open
    // windows mean a controller whose window ends at t is back at t.
    handle_restarts(step.when, /*force=*/false);
    if (wi < windows.size() && step.when >= windows[wi].window.begin) {
      if (windows[wi].loss) {
        handle_loss(windows[wi].window);
      } else {
        handle_outage(windows[wi].window);
      }
      ++wi;
      continue;
    }
    const std::uint64_t digest = primary().engine->apply_step(step.kind);
    append_primary(from_step_kind(step.kind), step.when, digest,
                   primary().engine->last_batch());
    maybe_snapshot(step.when);
    maybe_heartbeat(step.when);
  }
  handle_restarts(runtime::ControllerEngine::kNever, /*force=*/true);

  // Backstop for a replica still waiting out a rejected record after
  // the last heartbeat: freeze the primary once so the sweep below can
  // re-seed it.
  if (repl_config_.snapshot_every > 0 && !log_.empty() && backup_stalled()) {
    append_snapshot(log_.records().back().when);
  }

  // End-of-run convergence sweep: every replica must agree with the
  // acting primary once it has applied the whole log.
  const fault::ReplicaSnapshot final_snap = snapshot();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == primary_index_) continue;
    catch_up(replicas_[i]);
    const check::CheckReport report = check::validate_replica_convergence(
        final_snap, snapshot_of(replicas_[i]));
    S3_ASSERT(report.ok(),
              "ReplicationGroup: backup diverged from primary at end of run");
  }

  primary().engine->finalize();
  repl_stats_.log_records = log_.size();
  repl_stats_.live_log_records = log_.live_size();
  repl_stats_.final_term = max_term();
  finalized_ = true;
}

const sim::ReplayStats& ReplicationGroup::stats() const {
  S3_REQUIRE(finalized_, "ReplicationGroup: stats() before run()");
  return primary().engine->stats();
}

void ReplicationGroup::publish_assignment(std::span<ApId> global) const {
  S3_REQUIRE(finalized_, "ReplicationGroup: publish before run()");
  const Replica& p = primary();
  S3_REQUIRE(global.size() == p.assignment.size(),
             "ReplicationGroup: assignment size mismatch");
  for (const std::size_t s : sessions_) global[s] = p.assignment[s];
}

fault::ReplicaSnapshot ReplicationGroup::snapshot_of(const Replica& r) {
  fault::ReplicaSnapshot snap = r.engine->snapshot();
  snap.term = r.term;
  snap.applied_records = r.applied;
  return snap;
}

fault::ReplicaSnapshot ReplicationGroup::snapshot() const {
  return snapshot_of(primary());
}

}  // namespace s3::repl
