#include "s3/runtime/controller_engine.h"

#include <algorithm>
#include <cmath>

#include "s3/check/contract.h"
#include "s3/check/validators.h"
#include "s3/util/metrics.h"
#include "s3/wlan/radio.h"

namespace s3::runtime {

namespace {

struct SimMetrics {
  util::Counter* batches;
  util::Counter* sessions;
  util::Counter* forced_overloads;
  util::Counter* candidate_violations;
  util::Histogram* batch_size;
  util::Timer* dispatch;
};

/// Instrument handles are resolved once; the registry guarantees
/// pointer stability.
const SimMetrics& sim_metrics() {
  static const SimMetrics m{
      util::metrics().counter("sim.batches"),
      util::metrics().counter("sim.sessions"),
      util::metrics().counter("sim.forced_overloads"),
      util::metrics().counter("sim.candidate_violations"),
      util::metrics().histogram("sim.batch_size"),
      util::metrics().timer("sim.dispatch_ns"),
  };
  return m;
}

struct FaultMetrics {
  util::Counter* evictions;
  util::Counter* reassociations;
  util::Counter* retry_attempts;
  util::Counter* admission_rejections;
  util::Counter* abandoned;
  util::Counter* degraded_batches;
  util::Counter* to_degraded;
  util::Counter* to_recovering;
  util::Counter* to_healthy;
  util::Counter* recovery_migrations;
};

const FaultMetrics& fault_metrics() {
  static const FaultMetrics m{
      util::metrics().counter("fault.evictions"),
      util::metrics().counter("fault.reassociations"),
      util::metrics().counter("fault.retry_attempts"),
      util::metrics().counter("fault.admission_rejections"),
      util::metrics().counter("fault.abandoned_sessions"),
      util::metrics().counter("fault.degraded_batches"),
      util::metrics().counter("fault.transitions_to_degraded"),
      util::metrics().counter("fault.transitions_to_recovering"),
      util::metrics().counter("fault.transitions_to_healthy"),
      util::metrics().counter("fault.recovery_migrations"),
  };
  return m;
}

void mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
}

/// Fold of a placed batch: its size, its fidelity and re-run bit, and
/// each arrival's (session, AP) pair — over the shorter side when a
/// record does not fit the batch.
std::uint64_t fold_batch(std::span<const sim::Arrival> batch,
                         const sim::BatchResult& placed) noexcept {
  std::uint64_t h = 0x6261746368ULL;  // "batch"
  mix(h, placed.placements.size());
  mix(h, placed.full_fidelity ? 1 : 0);
  mix(h, placed.replayable ? 1 : 0);
  const std::size_t n = std::min(batch.size(), placed.placements.size());
  for (std::size_t i = 0; i < n; ++i) {
    mix(h, batch[i].session_index);
    mix(h, placed.placements[i]);
  }
  return h;
}

/// Whether `recorded` can be committed for `batch`: one placement per
/// arrival and, for a record applied without a re-run, each placement
/// among its arrival's candidates, pruned of dead APs (so also an AP of
/// the network). A re-run record is only compared, never committed.
bool record_fits(std::span<const sim::Arrival> batch,
                 const sim::BatchResult& recorded) {
  if (recorded.placements.size() != batch.size()) return false;
  if (!recorded.replayable) return true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<ApId>& heard = batch[i].candidates;
    if (std::find(heard.begin(), heard.end(), recorded.placements[i]) ==
        heard.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

ControllerEngine::ControllerEngine(const wlan::Network& net,
                                   const trace::Trace& workload,
                                   ControllerId domain,
                                   std::vector<std::size_t> sessions,
                                   sim::ApSelector& policy,
                                   const sim::ReplayConfig& config,
                                   std::span<ApId> assignment,
                                   const fault::FaultInjector* injector,
                                   const fault::RecoveryPolicy& recovery)
    : net_(&net),
      workload_(&workload),
      domain_(domain),
      sessions_(std::move(sessions)),
      policy_(&policy),
      config_(config),
      assignment_(assignment),
      tracker_(net),
      injector_(injector),
      recovery_(recovery),
      degradation_(recovery.healthy_after_clean_batches) {
  S3_REQUIRE(config_.dispatch_window_s >= 0,
             "replay: negative dispatch window");
  S3_REQUIRE(assignment_.size() == workload.size(),
             "ControllerEngine: assignment size mismatch");
  stats_.num_sessions = sessions_.size();
  sim_metrics().sessions->add(sessions_.size());
  if (injector_ != nullptr) {
    fault_events_ = injector_->events_for_domain(net, domain_);
  }
}

ControllerEngine::ControllerEngine(const ControllerEngine& other,
                                   sim::ApSelector& policy,
                                   std::span<ApId> assignment)
    : ControllerEngine(other) {
  S3_REQUIRE(assignment.size() == assignment_.size(),
             "ControllerEngine: rebind assignment size mismatch");
  policy_ = &policy;
  assignment_ = assignment;
}

bool ControllerEngine::done() const noexcept {
  return next_arrival_ >= sessions_.size() && departures_.empty() &&
         batch_.empty() && retries_.empty();
}

util::SimTime ControllerEngine::next_arrival_time() const noexcept {
  return next_arrival_ < sessions_.size()
             ? workload_->sessions()[sessions_[next_arrival_]].connect
             : kNever;
}

std::size_t ControllerEngine::next_arrival_session() const noexcept {
  return sessions_[next_arrival_];
}

util::SimTime ControllerEngine::next_departure_time() const noexcept {
  return departures_.empty() ? kNever : departures_.top().when;
}

std::size_t ControllerEngine::next_departure_session() const noexcept {
  return departures_.top().session_index;
}

util::SimTime ControllerEngine::flush_deadline() const noexcept {
  return batch_.empty() ? kNever : batch_deadline_;
}

util::SimTime ControllerEngine::next_fault_time() const noexcept {
  return next_fault_ < fault_events_.size() ? fault_events_[next_fault_].when
                                            : kNever;
}

util::SimTime ControllerEngine::next_retry_time() const noexcept {
  return retries_.empty() ? kNever : retries_.next_due();
}

sim::Arrival ControllerEngine::make_arrival(std::size_t session_index,
                                            util::SimTime connect) const {
  const trace::SessionRecord& s = workload_->sessions()[session_index];
  sim::Arrival a;
  a.session_index = session_index;
  a.user = s.user;
  a.controller = domain_;
  a.connect = connect;
  a.demand_mbps = s.demand_mbps;
  a.candidates = wlan::candidate_aps(*net_, config_.radio, s.building, s.pos);
  return a;
}

void ControllerEngine::process_arrival() { arrive(nullptr, false); }

void ControllerEngine::arrive(const sim::BatchResult* recorded, bool keep) {
  const std::size_t index = sessions_[next_arrival_];
  const trace::SessionRecord& s = workload_->sessions()[index];
  sim::Arrival a = make_arrival(index, s.connect);
  ++next_arrival_;

  if (batch_.empty()) {
    batch_deadline_ = a.connect + util::SimTime(config_.dispatch_window_s);
  }
  batch_.push_back(std::move(a));
  if (config_.dispatch_window_s == 0) flush_batch(recorded, keep);
}

void ControllerEngine::process_departure() {
  const Departure d = departures_.top();
  departures_.pop();
  if (injector_ == nullptr) {
    tracker_.disconnect(d.session_index, d.ap);
    policy_->on_disconnect(d.session_index, d.user, d.ap, d.when);
    return;
  }
  // Under faults the station may have been evicted (and possibly
  // re-placed elsewhere) since the departure was queued; active_ holds
  // the truth. A missing entry means the session is waiting in the
  // retry queue or was abandoned — nothing is associated to release.
  const auto it = active_.find(d.session_index);
  if (it == active_.end()) return;
  tracker_.disconnect(d.session_index, it->second.ap);
  policy_->on_disconnect(d.session_index, d.user, it->second.ap, d.when);
  active_.erase(it);
}

void ControllerEngine::abandon_session(std::size_t session_index) {
  ++stats_.abandoned_sessions;
  attempts_.erase(session_index);
  requeued_.erase(session_index);
}

void ControllerEngine::defer_session(std::size_t session_index,
                                     util::SimTime now) {
  const std::uint32_t attempt = ++attempts_[session_index];
  if (attempt >= recovery_.max_attempts) {
    abandon_session(session_index);
    return;
  }
  retries_.push(session_index, now + recovery_.backoff(attempt));
  requeued_.insert(session_index);
  ++stats_.retry_attempts;
}

void ControllerEngine::evict_ap(ApId ap, util::SimTime when) {
  std::vector<std::size_t> victims;
  // s3lint: allow(det-unordered-iter): keys are collected then sorted.
  for (const auto& [session, info] : active_) {
    if (info.ap == ap) victims.push_back(session);
  }
  std::sort(victims.begin(), victims.end());
  for (const std::size_t session : victims) {
    const ActiveInfo info = active_.at(session);
    tracker_.disconnect(session, info.ap);
    policy_->on_disconnect(session, info.user, info.ap, when);
    active_.erase(session);
    ++stats_.fault_evictions;
    // Immediate re-scan: the first re-association attempt happens in
    // the same instant (surviving APs permitting); backoff only kicks
    // in if that attempt fails.
    retries_.push(session, when);
    requeued_.insert(session);
    ++stats_.retry_attempts;
  }
}

void ControllerEngine::recover_ap(ApId ap, util::SimTime when) {
  // Bounded greedy sweep: pull load from the domain's most loaded AP
  // onto the freshly recovered one while the demand gap stays above the
  // hysteresis band. Mirrors core::Rebalancer's donor/receiver step but
  // runs engine-local so the fault path needs no upper-layer calls.
  const auto domain_aps = net_->aps_of_controller(domain_);
  const auto sessions = workload_->sessions();
  for (std::size_t moved = 0; moved < recovery_.max_recovery_migrations;
       ++moved) {
    const double receiver_load = tracker_.demand_mbps(ap);
    ApId donor = kInvalidAp;
    double donor_load = 0.0;
    for (const ApId d : domain_aps) {
      if (d == ap || injector_->ap_down(d, when)) continue;
      const double load = tracker_.demand_mbps(d);
      if (donor == kInvalidAp || load > donor_load) {
        donor = d;
        donor_load = load;
      }
    }
    if (donor == kInvalidAp) break;
    const double gap = donor_load - receiver_load;
    if (gap <= recovery_.recovery_hysteresis_mbps) break;

    std::vector<std::size_t> on_donor;
    // s3lint: allow(det-unordered-iter): keys are collected then sorted.
    for (const auto& [session, info] : active_) {
      if (info.ap == donor) on_donor.push_back(session);
    }
    std::sort(on_donor.begin(), on_donor.end());

    std::size_t best = workload_->size();
    double best_score = gap;  // require strict improvement
    std::vector<ApId> best_candidates;
    for (const std::size_t session : on_donor) {
      const double demand = active_.at(session).demand_mbps;
      if (demand <= 0.0 || demand >= gap) continue;
      if (tracker_.headroom_mbps(ap) < demand) continue;
      const trace::SessionRecord& rec = sessions[session];
      std::vector<ApId> cands =
          wlan::candidate_aps(*net_, config_.radio, rec.building, rec.pos);
      if (std::find(cands.begin(), cands.end(), ap) == cands.end()) continue;
      const double score = std::abs(gap - 2.0 * demand);
      if (score < best_score) {
        best = session;
        best_score = score;
        best_candidates = std::move(cands);
      }
    }
    if (best == workload_->size()) break;

    ActiveInfo& info = active_.at(best);
    tracker_.disconnect(best, donor);
    policy_->on_disconnect(best, info.user, donor, when);
    tracker_.associate(best, ap, info.user, info.demand_mbps);
    assignment_[best] = ap;
    info.ap = ap;
    sim::Arrival moved_arrival;
    moved_arrival.session_index = best;
    moved_arrival.user = info.user;
    moved_arrival.controller = domain_;
    moved_arrival.connect = when;
    moved_arrival.demand_mbps = info.demand_mbps;
    moved_arrival.candidates = std::move(best_candidates);
    policy_->on_associate(moved_arrival, ap);
    ++stats_.recovery_migrations;
  }
}

void ControllerEngine::process_fault() {
  const fault::ApFaultEvent& ev = fault_events_[next_fault_++];
  if (ev.kind == fault::ApFaultEvent::Kind::kDown) {
    evict_ap(ev.ap, ev.when);
  } else {
    recover_ap(ev.ap, ev.when);
  }
}

void ControllerEngine::process_retries() {
  const util::SimTime due = retries_.next_due();
  const auto ready = retries_.pop_due(due);
  const auto sessions = workload_->sessions();
  for (const std::size_t session : ready) {
    const trace::SessionRecord& rec = sessions[session];
    if (rec.disconnect <= due) {
      // Backed off past its own departure: the station left before the
      // controller could re-admit it.
      abandon_session(session);
      continue;
    }
    sim::Arrival a = make_arrival(session, due);
    std::erase_if(a.candidates,
                  [&](ApId ap) { return injector_->ap_down(ap, due); });
    if (a.candidates.empty()) {
      defer_session(session, due);
      continue;
    }
    batch_deadline_ = batch_.empty() ? due : std::min(batch_deadline_, due);
    batch_.push_back(std::move(a));
  }
}

void ControllerEngine::flush() { flush_batch(nullptr, false); }

void ControllerEngine::flush_batch(const sim::BatchResult* recorded,
                                   bool keep) {
  if (batch_.empty()) return;
  const util::SimTime now = batch_deadline_;

  if (injector_ != nullptr) {
    // Drop candidates that are inside an outage window right now; a
    // request whose whole candidate set is down waits in the retry
    // queue instead of being force-placed on a dead AP.
    std::vector<sim::Arrival> kept;
    kept.reserve(batch_.size());
    for (sim::Arrival& a : batch_) {
      std::erase_if(a.candidates,
                    [&](ApId ap) { return injector_->ap_down(ap, now); });
      if (a.candidates.empty()) {
        defer_session(a.session_index, now);
      } else {
        kept.push_back(std::move(a));
      }
    }
    batch_.swap(kept);
    if (batch_.empty()) {
      batch_deadline_ = kNever;
      return;
    }
  }

  if (recorded != nullptr && !record_fits(batch_, *recorded)) {
    // The record does not fit this batch: commit nothing. The batch
    // stays pending and the fold covers the record, so the step digest
    // differs from the one the record carries.
    last_batch_digest_ = fold_batch(batch_, *recorded);
    return;
  }

  const SimMetrics& m = sim_metrics();
  sim::BatchRequest request;
  request.faults = fault::begin_batch(
      injector_, now, policy_->uses_social_model(), degradation_);
  sim::BatchResult dispatched;
  bool matches_record = true;
  if (recorded != nullptr && recorded->replayable) {
    // The primary's decision; the commit below is the primary's own.
    dispatched = *recorded;
  } else {
    {
      util::ScopedTimer timing(m.dispatch);
      request.arrivals = batch_;
      dispatched = policy_->place_batch(request, tracker_);
    }
    // A re-run must reproduce the record; the digest shows whether it
    // did.
    matches_record =
        recorded == nullptr ||
        (dispatched.placements == recorded->placements &&
         dispatched.full_fidelity == recorded->full_fidelity);
  }
  const std::vector<ApId>& chosen = dispatched.placements;
  S3_ASSERT(chosen.size() == batch_.size(),
            "replay: policy returned wrong batch arity");
  fault::end_batch(injector_, request.faults, dispatched.full_fidelity,
                   degradation_);
  const auto sessions = workload_->sessions();
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const sim::Arrival& a = batch_[i];
    const ApId ap = chosen[i];
    if (injector_ != nullptr) {
      const auto att = attempts_.find(a.session_index);
      const std::uint32_t attempt = att == attempts_.end() ? 0U : att->second;
      if (injector_->admission_fails(a.session_index, attempt, now)) {
        ++stats_.admission_rejections;
        defer_session(a.session_index, now);
        continue;
      }
    }
    if (std::find(a.candidates.begin(), a.candidates.end(), ap) ==
        a.candidates.end()) {
      // Broken policy contract: keep the placement (the association
      // already happened from the stations' point of view) but make
      // the breach observable instead of trusting silently.
      ++stats_.candidate_violations;
      m.candidate_violations->add();
      S3_POSTCONDITION(false,
                       "replay: policy picked an AP outside the candidate set");
      S3_DEBUG_ASSERT(false,
                      "replay: policy picked an AP outside the candidate set");
    }
    if (tracker_.headroom_mbps(ap) < a.demand_mbps) {
      ++stats_.forced_overloads;
      m.forced_overloads->add();
      // Per-AP breakdown, created lazily — overload is the cold path,
      // so the registry lookup cost does not matter here.
      util::metrics()
          .counter("sim.forced_overloads.ap" + std::to_string(ap))
          ->add();
    }
    tracker_.associate(a.session_index, ap, a.user, a.demand_mbps);
    assignment_[a.session_index] = ap;
    policy_->on_associate(a, ap);
    if (injector_ == nullptr) {
      departures_.push(Departure{sessions[a.session_index].disconnect,
                                 a.session_index, ap, a.user});
    } else {
      active_[a.session_index] = ActiveInfo{a.user, ap, a.demand_mbps};
      if (requeued_.erase(a.session_index) > 0) ++stats_.reassociations;
      attempts_.erase(a.session_index);
      // The departure is queued exactly once per session; after an
      // eviction + re-association the original entry still fires and
      // resolves the then-current AP through active_.
      if (departure_queued_.insert(a.session_index).second) {
        departures_.push(Departure{sessions[a.session_index].disconnect,
                                   a.session_index, ap, a.user});
      }
    }
  }
  ++stats_.num_batches;
  stats_.max_batch_size = std::max(stats_.max_batch_size, batch_.size());
  m.batches->add();
  m.batch_size->record(batch_.size());
  // Post-batch structural invariant: per-AP load conservation and
  // β ∈ [1/n, 1]. Evaluated only when contract checking is on.
  if (check::contracts_enabled()) {
    check::validate_load_state(tracker_);
  }
  if (keep) {
    last_batch_digest_ = fold_batch(batch_, dispatched);
    if (!matches_record) mix(last_batch_digest_, fold_batch(batch_, *recorded));
    last_batch_ = std::move(dispatched);
  }
  batch_.clear();
  batch_deadline_ = kNever;
}

ControllerEngine::Step ControllerEngine::next_step() const noexcept {
  if (done()) return Step{};
  const util::SimTime ta = next_arrival_time();
  const util::SimTime td = next_departure_time();
  const util::SimTime tf = flush_deadline();
  if (injector_ == nullptr) {
    // Legacy tie order: departures free capacity first, then arrivals
    // join their batch, then due batches flush.
    if (td <= ta && td <= tf) return {StepKind::kDeparture, td};
    if (ta <= tf) return {StepKind::kArrival, ta};
    return {StepKind::kFlush, tf};
  }
  // Fault-aware order: fault flips first (an AP that dies at t must not
  // accept the batch due at t), then the legacy order, then due retries
  // merge into the batch, then flushes.
  const util::SimTime tfault = next_fault_time();
  const util::SimTime tr = next_retry_time();
  if (tfault != kNever && tfault <= td && tfault <= ta && tfault <= tr &&
      tfault <= tf) {
    return {StepKind::kFault, tfault};
  }
  if (td != kNever && td <= ta && td <= tr && td <= tf) {
    return {StepKind::kDeparture, td};
  }
  if (ta != kNever && ta <= tr && ta <= tf) return {StepKind::kArrival, ta};
  if (tr != kNever && tr <= tf) return {StepKind::kRetries, tr};
  return {StepKind::kFlush, tf};
}

std::uint64_t ControllerEngine::step_digest() const noexcept {
  std::uint64_t h = 0x73746570ULL;  // "step"
  mix(h, next_arrival_);
  mix(h, batch_.size());
  mix(h, departures_.size());
  mix(h, retries_.size());
  mix(h, active_.size());
  mix(h, stats_.num_batches);
  mix(h, stats_.forced_overloads);
  mix(h, stats_.fault_evictions);
  mix(h, stats_.reassociations);
  mix(h, stats_.retry_attempts);
  mix(h, stats_.admission_rejections);
  mix(h, stats_.abandoned_sessions);
  mix(h, stats_.dropped_sessions);
  mix(h, static_cast<std::uint64_t>(degradation_.state()));
  mix(h, last_batch_digest_);
  return h;
}

void ControllerEngine::step(StepKind kind, const sim::BatchResult* recorded,
                            bool keep) {
  switch (kind) {
    case StepKind::kFault:
      process_fault();
      break;
    case StepKind::kDeparture:
      process_departure();
      break;
    case StepKind::kArrival:
      arrive(recorded, keep);
      break;
    case StepKind::kRetries:
      process_retries();
      break;
    case StepKind::kFlush:
      flush_batch(recorded, keep);
      break;
    case StepKind::kNone:
      break;
  }
}

std::uint64_t ControllerEngine::apply_step(StepKind kind,
                                           const sim::BatchResult* recorded) {
  last_batch_.reset();
  last_batch_digest_ = 0;
  step(kind, recorded, /*keep=*/true);
  return step_digest();
}

fault::ReplicaSnapshot ControllerEngine::snapshot() const {
  fault::ReplicaSnapshot snap;
  snap.controller = domain_;
  snap.placements.reserve(sessions_.size());
  for (const std::size_t s : sessions_) {
    snap.placements.push_back({s, assignment_[s]});
  }
  snap.retries = retries_.sorted_entries();
  snap.attempts.reserve(attempts_.size());
  // s3lint: allow(det-unordered-iter): entries are collected then sorted.
  for (const auto& [session, count] : attempts_) {
    snap.attempts.push_back({session, count});
  }
  // s3lint: allow(det-sort-ties): total order: session indices are unique
  std::sort(snap.attempts.begin(), snap.attempts.end(),
            [](const fault::SessionAttempts& a, const fault::SessionAttempts& b) {
              return a.session_index < b.session_index;
            });
  snap.health = degradation_.state();
  snap.clean_run = degradation_.clean_run();
  snap.degradation = degradation_.stats();
  snap.policy_digest = policy_->state_digest();
  snap.stats = stats_;
  return snap;
}

void ControllerEngine::drop_next_arrival() {
  S3_REQUIRE(next_arrival_ < sessions_.size(),
             "drop_next_arrival: no pending arrival");
  ++next_arrival_;
  ++stats_.dropped_sessions;
}

void ControllerEngine::drop_pending_batch() {
  for (const sim::Arrival& a : batch_) {
    attempts_.erase(a.session_index);
    requeued_.erase(a.session_index);
    ++stats_.dropped_sessions;
  }
  batch_.clear();
  batch_deadline_ = kNever;
}

void ControllerEngine::postpone_retries_until(util::SimTime t) {
  retries_.postpone_until(t);
}

void ControllerEngine::run() {
  while (!done()) step(next_step().kind);
  finalize();
}

void ControllerEngine::finalize() {
  stats_.mean_batch_size =
      stats_.num_batches > 0
          ? static_cast<double>(stats_.num_sessions) /
                static_cast<double>(stats_.num_batches)
          : 0.0;
  if (injector_ == nullptr) return;
  const fault::DegradationStats& d = degradation_.stats();
  stats_.degraded_batches = d.degraded_batches;
  stats_.transitions_to_degraded = d.to_degraded;
  stats_.transitions_to_recovering = d.to_recovering;
  stats_.transitions_to_healthy = d.to_healthy;
  const FaultMetrics& fm = fault_metrics();
  fm.evictions->add(stats_.fault_evictions);
  fm.reassociations->add(stats_.reassociations);
  fm.retry_attempts->add(stats_.retry_attempts);
  fm.admission_rejections->add(stats_.admission_rejections);
  fm.abandoned->add(stats_.abandoned_sessions);
  fm.degraded_batches->add(stats_.degraded_batches);
  fm.to_degraded->add(stats_.transitions_to_degraded);
  fm.to_recovering->add(stats_.transitions_to_recovering);
  fm.to_healthy->add(stats_.transitions_to_healthy);
  fm.recovery_migrations->add(stats_.recovery_migrations);
}

}  // namespace s3::runtime
