// s3::repl determinism: a replicated replay is bit-identical across
// thread counts and backup counts, a promoted backup provably converges
// to the crashed primary, failover with >= 1 backup is transparent
// (identical to the same run without controller outages), and a
// headless domain drops exactly the in-window arrivals.
//
// Snapshot/truncation/adoption coverage: snapshot-seeded catch-up and
// prefix truncation are invisible to the replay outcome, catch-up work
// stays bounded by the snapshot interval, a corrupted log record is
// rejected + counted + healed by a snapshot resync, and a whole-set
// controller loss is adopted by a neighbor domain and handed back —
// all bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "s3/util/metrics.h"

#include "s3/core/evaluation.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/runtime/replay_driver.h"
#include "s3/trace/generator.h"
#include "s3/wlan/radio.h"
#include "testing/mini.h"

namespace s3::repl {
namespace {

const trace::GeneratedTrace& shared_world() {
  static const trace::GeneratedTrace world = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 11;
    cfg.num_users = 150;
    cfg.num_days = 3;
    cfg.layout.num_buildings = 3;
    cfg.layout.aps_per_building = 5;
    return trace::generate_campus_trace(cfg);
  }();
  return world;
}

const social::SocialIndexModel& shared_model() {
  static const social::SocialIndexModel model = [] {
    const trace::GeneratedTrace& w = shared_world();
    core::EvaluationConfig eval;
    eval.train_days = 2;
    eval.test_days = 1;
    return core::train_from_workload(w.network, w.workload, eval);
  }();
  return model;
}

/// Controller churn over every domain, stacked on AP churn, a model
/// outage and admission failures — replication has to preserve the
/// whole fault state machine, not just placements.
fault::FaultPlan churn_plan() {
  const trace::GeneratedTrace& w = shared_world();
  const util::SimTime begin(0);
  const util::SimTime end = w.workload.end_time();
  fault::FaultPlan plan;
  // One midday 4-hour crash per domain (one per day) — midday so the
  // windows actually contain arrivals, unlike the canned midnight
  // stagger would on this 3-day world.
  for (ControllerId c = 0; c < w.network.num_controllers(); ++c) {
    const std::int64_t day = static_cast<std::int64_t>(c) * 86400;
    plan.controller_outages.push_back({c, util::SimTime(day + 10 * 3600),
                                       util::SimTime(day + 14 * 3600)});
  }
  const fault::FaultPlan ap =
      fault::canned_ap_churn_plan(w.network, begin, end, 4, 2 * 3600);
  plan.ap_outages = ap.ap_outages;
  const fault::FaultPlan model = fault::canned_model_outage_plan(begin, end);
  plan.model_outages = model.model_outages;
  plan.admission.failure_probability = 0.2;
  plan.admission.begin = util::SimTime(end.seconds() / 4);
  plan.admission.end = util::SimTime(end.seconds() / 2);
  return plan;
}

/// churn_plan() plus one whole-replica-set loss per domain, placed in
/// the late afternoon so it never overlaps the same controller's midday
/// outage and the next controller (the deterministic adopter candidate)
/// is alive at the loss begin.
fault::FaultPlan loss_plan() {
  fault::FaultPlan plan = churn_plan();
  const trace::GeneratedTrace& w = shared_world();
  for (ControllerId c = 0; c < w.network.num_controllers(); ++c) {
    const std::int64_t day = static_cast<std::int64_t>(c) * 86400;
    plan.controller_losses.push_back({c, util::SimTime(day + 16 * 3600),
                                      util::SimTime(day + 19 * 3600)});
  }
  return plan;
}

ReplicatedReplayResult run_replicated(const sim::SelectorFactory& factory,
                                      const fault::FaultInjector& injector,
                                      std::size_t backups, unsigned threads,
                                      const ReplicationConfig& repl = {}) {
  const trace::GeneratedTrace& w = shared_world();
  ReplicatedDriverConfig rc;
  rc.threads = threads;
  rc.injector = &injector;
  rc.repl = repl;
  rc.repl.backups = backups;
  return ReplicatedReplayDriver(w.network, rc).run(w.workload, factory);
}

void expect_identical(const sim::ReplayResult& a, const sim::ReplayResult& b) {
  ASSERT_EQ(a.assigned.size(), b.assigned.size());
  for (std::size_t i = 0; i < a.assigned.size(); ++i) {
    ASSERT_EQ(a.assigned.session(i).ap, b.assigned.session(i).ap)
        << "session " << i;
  }
  EXPECT_EQ(a.stats, b.stats);
}

/// Counts place_batch calls across every selector a factory creates
/// and every clone of one (snapshots clone); forwards every other
/// virtual unchanged.
class CountingSelector final : public sim::ApSelector {
 public:
  CountingSelector(std::unique_ptr<sim::ApSelector> inner,
                   std::atomic<std::uint64_t>* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  std::string_view name() const override { return inner_->name(); }
  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override {
    return inner_->select_one(arrival, loads);
  }
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_->place_batch(request, loads);
  }
  void on_associate(const sim::Arrival& arrival, ApId ap) override {
    inner_->on_associate(arrival, ap);
  }
  void on_disconnect(std::size_t session_index, UserId user, ApId ap,
                     util::SimTime when) override {
    inner_->on_disconnect(session_index, user, ap, when);
  }
  bool uses_social_model() const override {
    return inner_->uses_social_model();
  }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  std::unique_ptr<sim::ApSelector> clone() const override {
    std::unique_ptr<sim::ApSelector> copy = inner_->clone();
    if (copy == nullptr) return nullptr;
    return std::make_unique<CountingSelector>(std::move(copy), calls_);
  }

 private:
  std::unique_ptr<sim::ApSelector> inner_;
  std::atomic<std::uint64_t>* calls_;
};

class CountingFactory final : public sim::SelectorFactory {
 public:
  CountingFactory(std::unique_ptr<sim::SelectorFactory> inner,
                  std::atomic<std::uint64_t>* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<sim::ApSelector> create(ControllerId domain) const override {
    return std::make_unique<CountingSelector>(inner_->create(domain), calls_);
  }

 private:
  std::unique_ptr<sim::SelectorFactory> inner_;
  std::atomic<std::uint64_t>* calls_;
};

TEST(Replication, ThreadCountInvariant) {
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  const ReplicatedReplayResult one = run_replicated(f, injector, 1, 1);
  const ReplicatedReplayResult eight = run_replicated(f, injector, 1, 8);
  expect_identical(one.result, eight.result);
  EXPECT_EQ(one.repl.failovers, eight.repl.failovers);
  EXPECT_EQ(one.repl.log_records, eight.repl.log_records);
  EXPECT_EQ(one.repl.final_term, eight.repl.final_term);
  ASSERT_EQ(one.failovers.size(), eight.failovers.size());
  for (std::size_t i = 0; i < one.failovers.size(); ++i) {
    EXPECT_EQ(one.failovers[i].when, eight.failovers[i].when);
    EXPECT_EQ(one.failovers[i].promoted_replica,
              eight.failovers[i].promoted_replica);
    EXPECT_EQ(one.failovers[i].new_term, eight.failovers[i].new_term);
  }
}

TEST(Replication, BackupCountInvariant) {
  // One backup or two — the promoted state is the same, so the whole
  // replay is. Only the replica count in the ledger may differ.
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  const ReplicatedReplayResult one = run_replicated(f, injector, 1, 4);
  const ReplicatedReplayResult two = run_replicated(f, injector, 2, 4);
  expect_identical(one.result, two.result);
  EXPECT_EQ(one.repl.failovers, two.repl.failovers);
  EXPECT_EQ(two.repl.replicas, 3u);
}

TEST(Replication, PromotionsConvergeAndPreserveTheSocialModel) {
  // S3 with a live model outage in the plan: the promoted backup must
  // carry the degradation machine and the policy's internal state —
  // every FailoverEvent records the convergence check it passed.
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::S3Factory s3(&shared_world().network, &shared_model());
  const ReplicatedReplayResult r = run_replicated(s3, injector, 1, 4);
  EXPECT_GT(r.repl.failovers, 0u);
  EXPECT_EQ(r.repl.failovers, r.repl.rejoins);
  for (const FailoverEvent& ev : r.failovers) {
    EXPECT_TRUE(ev.converged) << "domain " << ev.domain;
    EXPECT_NE(ev.kind, FailoverKind::kHeadless);
    EXPECT_GE(ev.new_term, 2u);
  }
  EXPECT_EQ(r.result.stats.dropped_sessions, 0u);
}

TEST(Replication, FailoverWithBackupsIsTransparent) {
  // The same plan with the controller outages stripped, run through the
  // plain driver, must match the replicated run byte for byte: a crash
  // with a backup costs nothing.
  const trace::GeneratedTrace& w = shared_world();
  fault::FaultPlan plan = churn_plan();
  const fault::FaultInjector replicated_injector(plan, 5);
  plan.controller_outages.clear();
  const fault::FaultInjector plain_injector(plan, 5);

  const core::LlfFactory f(core::LoadMetric::kStations);
  const ReplicatedReplayResult replicated =
      run_replicated(f, replicated_injector, 1, 4);
  runtime::ReplayDriverConfig rc;
  rc.threads = 4;
  rc.injector = &plain_injector;
  const sim::ReplayResult plain =
      runtime::ReplayDriver(w.network, rc).run(w.workload, f);
  expect_identical(replicated.result, plain);
}

TEST(Replication, HeadlessDomainsDropInWindowArrivals) {
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  const ReplicatedReplayResult r = run_replicated(f, injector, 0, 4);
  EXPECT_EQ(r.repl.failovers, 0u);
  EXPECT_GT(r.repl.headless_windows, 0u);
  EXPECT_GT(r.result.stats.dropped_sessions, 0u);
  for (const FailoverEvent& ev : r.failovers) {
    EXPECT_EQ(ev.kind, FailoverKind::kHeadless);
  }
  // Headless runs stay deterministic too.
  const ReplicatedReplayResult again = run_replicated(f, injector, 0, 1);
  expect_identical(r.result, again.result);
}

TEST(Replication, PlainDriverRejectsControllerOutagePlans) {
  const trace::GeneratedTrace& w = shared_world();
  const fault::FaultInjector injector(churn_plan(), 5);
  runtime::ReplayDriverConfig rc;
  rc.injector = &injector;
  const core::LlfFactory f(core::LoadMetric::kStations);
  EXPECT_THROW(runtime::ReplayDriver(w.network, rc).run(w.workload, f),
               std::invalid_argument);

  // Loss-only plans are just as much the replicated driver's business.
  fault::FaultPlan losses;
  losses.controller_losses.push_back(
      {0, util::SimTime(3600), util::SimTime(7200)});
  const fault::FaultInjector loss_injector(losses, 5);
  rc.injector = &loss_injector;
  EXPECT_THROW(runtime::ReplayDriver(w.network, rc).run(w.workload, f),
               std::invalid_argument);
}

TEST(Replication, SnapshotCatchUpIsTransparentAndBounded) {
  // Same churn, with and without snapshots in the log: a rejoin that
  // installs a checkpoint instead of replaying from record zero must
  // change nothing about the replay — and no single catch-up may
  // replay more than ~two snapshot intervals of records, however long
  // the log is.
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::S3Factory s3(&shared_world().network, &shared_model());
  const ReplicatedReplayResult plain = run_replicated(s3, injector, 1, 4);
  ReplicationConfig repl;
  repl.snapshot_every = 25;
  const ReplicatedReplayResult snap = run_replicated(s3, injector, 1, 4, repl);
  expect_identical(plain.result, snap.result);
  EXPECT_EQ(plain.repl.failovers, snap.repl.failovers);
  EXPECT_GT(snap.repl.snapshots, 0u);
  EXPECT_GT(snap.repl.snapshot_installs, 0u);
  EXPECT_EQ(snap.repl.digest_mismatches, 0u);
  // Control records (crash/promotion/restart/snapshot) ride along in
  // the replayed suffix; a small constant covers them.
  EXPECT_LE(snap.repl.max_catchup_records, 2 * repl.snapshot_every + 64);
  EXPECT_GT(plain.repl.max_catchup_records, snap.repl.max_catchup_records);
}

TEST(Replication, TruncationBoundsTheLiveLogTransparently) {
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  const ReplicatedReplayResult plain = run_replicated(f, injector, 1, 4);
  ReplicationConfig repl;
  repl.snapshot_every = 200;
  repl.truncate = true;
  const ReplicatedReplayResult cut = run_replicated(f, injector, 1, 4, repl);
  expect_identical(plain.result, cut.result);
  EXPECT_GT(cut.repl.truncated_records, 0u);
  // Snapshots are the only extra records a snapshotting log carries.
  EXPECT_EQ(cut.repl.log_records, plain.repl.log_records + cut.repl.snapshots);
  EXPECT_LT(cut.repl.live_log_records, cut.repl.log_records);
  EXPECT_EQ(cut.repl.live_log_records + cut.repl.truncated_records,
            cut.repl.log_records);
}

TEST(Replication, TruncationRequiresSnapshots) {
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  ReplicationConfig repl;
  repl.truncate = true;  // snapshot_every left 0
  EXPECT_THROW(run_replicated(f, injector, 1, 1, repl), std::invalid_argument);
}

TEST(Replication, CorruptedRecordIsRejectedCountedAndHealed) {
  // Tamper with one mid-log record at append time. The backups must
  // reject it on replay (digest mismatch), the rejection must land on
  // the metrics bus, a snapshot resync must heal them — and the replay
  // outcome must be identical to the untampered run, because the
  // primary's own state was never corrupt.
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  ReplicationConfig repl;
  repl.snapshot_every = 200;
  const ReplicatedReplayResult clean = run_replicated(f, injector, 1, 4, repl);
  ASSERT_GT(clean.repl.log_records, 600u);

  util::Counter* const mismatches =
      util::metrics().counter("repl.digest_mismatches");
  const std::uint64_t bus_before = mismatches->value();
  repl.corrupt_record = 500;
  const ReplicatedReplayResult healed = run_replicated(f, injector, 1, 4, repl);
  expect_identical(clean.result, healed.result);
  EXPECT_GT(healed.repl.digest_mismatches, 0u);
  EXPECT_GT(healed.repl.resyncs, 0u);
  EXPECT_EQ(mismatches->value() - bus_before, healed.repl.digest_mismatches);
}

TEST(Replication, CorruptedRecordWithoutSnapshotsIsFatal) {
  // Without snapshots there is no resync path: the old fail-stop
  // behavior must survive.
  const fault::FaultInjector injector(churn_plan(), 5);
  const core::LlfFactory f(core::LoadMetric::kStations);
  ReplicationConfig repl;
  repl.corrupt_record = 500;
  EXPECT_THROW(run_replicated(f, injector, 1, 1, repl), std::logic_error);
}

TEST(Replication, ControllerLossIsAdoptedAndHandedBackTransparently) {
  // A whole replica set dies; the neighbor domain adopts from the last
  // replicated snapshot and hands back at the window end. Sessions of
  // the lost domain keep flowing — the result matches a run whose plan
  // has no controller faults at all.
  const trace::GeneratedTrace& w = shared_world();
  fault::FaultPlan plan = loss_plan();
  const fault::FaultInjector injector(plan, 5);
  plan.controller_outages.clear();
  plan.controller_losses.clear();
  const fault::FaultInjector no_controller_faults(plan, 5);

  const core::LlfFactory f(core::LoadMetric::kStations);
  ReplicationConfig repl;
  repl.snapshot_every = 150;
  repl.truncate = true;
  const ReplicatedReplayResult lost = run_replicated(f, injector, 1, 4, repl);
  runtime::ReplayDriverConfig rc;
  rc.threads = 4;
  rc.injector = &no_controller_faults;
  const sim::ReplayResult baseline =
      runtime::ReplayDriver(w.network, rc).run(w.workload, f);
  expect_identical(lost.result, baseline);

  EXPECT_EQ(lost.repl.adoptions, w.network.num_controllers());
  EXPECT_EQ(lost.repl.adoptions, lost.repl.handbacks);
  EXPECT_EQ(lost.result.stats.dropped_sessions, 0u);
  std::size_t adoptions = 0;
  std::size_t handbacks = 0;
  for (const FailoverEvent& ev : lost.failovers) {
    EXPECT_TRUE(ev.converged) << "domain " << ev.domain;
    if (ev.kind == FailoverKind::kAdoption) {
      ++adoptions;
      EXPECT_NE(ev.adopter, ev.domain);
      EXPECT_NE(ev.adopter, kInvalidController);
    } else if (ev.kind == FailoverKind::kHandback) {
      ++handbacks;
      EXPECT_NE(ev.adopter, kInvalidController);
    }
  }
  EXPECT_EQ(adoptions, lost.repl.adoptions);
  EXPECT_EQ(handbacks, lost.repl.handbacks);

  // Deterministic adoption order: same run, same adopters, any thread
  // count.
  const ReplicatedReplayResult again = run_replicated(f, injector, 1, 1, repl);
  expect_identical(lost.result, again.result);
  ASSERT_EQ(lost.failovers.size(), again.failovers.size());
  for (std::size_t i = 0; i < lost.failovers.size(); ++i) {
    EXPECT_EQ(lost.failovers[i].kind, again.failovers[i].kind);
    EXPECT_EQ(lost.failovers[i].adopter, again.failovers[i].adopter);
  }
}

TEST(Replication, AdoptionBeforeTheFirstSnapshotReplaysTheFullLog) {
  // Losses with snapshots disabled: the adopter rebuilds the orphaned
  // domain from record zero, like a day-zero replica, and still
  // converges bit-identically.
  const fault::FaultInjector injector(loss_plan(), 5);
  const core::S3Factory s3(&shared_world().network, &shared_model());
  const ReplicatedReplayResult r = run_replicated(s3, injector, 1, 4);
  EXPECT_GT(r.repl.adoptions, 0u);
  EXPECT_EQ(r.repl.snapshot_installs, 0u);
  for (const FailoverEvent& ev : r.failovers) {
    EXPECT_TRUE(ev.converged);
    if (ev.kind == FailoverKind::kAdoption) {
      EXPECT_FALSE(ev.snapshot_install);
    }
  }
  EXPECT_EQ(r.result.stats.dropped_sessions, 0u);
}

TEST(Replication, EveryPolicyFailsOverWhileBackupsApplyRecordedBatches) {
  // Every shipped policy through controller outages and losses with one
  // backup, snapshots and truncation: each takeover converges and the
  // outcome equals the run with the controller faults stripped. Backups
  // commit the recorded batches of llf, s3 and s3-online without
  // placing them again, so those policies place each batch once; rssi
  // and random batches are re-run (random's draws advance its RNG).
  const trace::GeneratedTrace& w = shared_world();
  fault::FaultPlan plan = loss_plan();
  const fault::FaultInjector injector(plan, 5);
  plan.controller_outages.clear();
  plan.controller_losses.clear();
  const fault::FaultInjector stripped(plan, 5);
  ReplicationConfig repl;
  repl.snapshot_every = 150;
  repl.truncate = true;
  core::SelectorSpec spec;
  spec.net = &w.network;
  spec.llf_metric = core::LoadMetric::kStations;
  spec.model = &shared_model();
  spec.base_model = &shared_model();
  for (const std::string name : {"llf", "rssi", "random", "s3", "s3-online"}) {
    SCOPED_TRACE(name);
    const bool replayable = name != "rssi" && name != "random";
    std::atomic<std::uint64_t> calls{0};
    const CountingFactory counted(core::make_selector_factory(name, spec),
                                  &calls);
    runtime::ReplayDriverConfig rc;
    rc.threads = 4;
    rc.injector = &stripped;
    const sim::ReplayResult baseline =
        runtime::ReplayDriver(w.network, rc).run(w.workload, counted);
    ASSERT_GT(baseline.stats.num_batches, 0u);
    EXPECT_EQ(calls.load(), baseline.stats.num_batches);

    for (const unsigned threads : {1u, 4u}) {
      calls = 0;
      const ReplicatedReplayResult r =
          run_replicated(counted, injector, 1, threads, repl);
      expect_identical(r.result, baseline);
      EXPECT_GT(r.repl.failovers, 0u);
      EXPECT_GT(r.repl.adoptions, 0u);
      EXPECT_GT(r.repl.truncated_records, 0u);
      for (const FailoverEvent& ev : r.failovers) {
        EXPECT_TRUE(ev.converged) << "domain " << ev.domain;
      }
      if (replayable) {
        EXPECT_EQ(calls.load(), r.result.stats.num_batches);
      } else {
        EXPECT_GT(calls.load(), r.result.stats.num_batches);
      }
    }

    // No controller faults and no snapshots: the backup replays every
    // record once, so a re-run policy places every batch exactly twice.
    calls = 0;
    const ReplicatedReplayResult quiet =
        run_replicated(counted, stripped, 1, 1);
    expect_identical(quiet.result, baseline);
    EXPECT_EQ(calls.load(),
              (replayable ? 1 : 2) * quiet.result.stats.num_batches);
  }
}

/// Steps a primary and a replica engine of domain 0 under `policy_name`
/// and, at each of the first `checks` batches the primary places whose
/// first arrival hears another AP, applies the batch to throwaway
/// copies of the replica with that arrival moved to the other AP, to an
/// AP of the network it does not hear and to an AP id past the network,
/// and with one placement dropped: each must give a digest other than
/// the primary's, without throwing. The replica itself applies the
/// untouched record and must match it.
void expect_tampered_batches_rejected(const std::string& policy_name,
                                      std::size_t checks) {
  const trace::GeneratedTrace& w = shared_world();
  core::SelectorSpec spec;
  spec.net = &w.network;
  const auto factory = core::make_selector_factory(policy_name, spec);
  const std::vector<std::size_t> sessions =
      runtime::shard_sessions(w.network, w.workload)[0];
  const sim::ReplayConfig config;
  const std::unique_ptr<sim::ApSelector> p_policy = factory->create(0);
  const std::unique_ptr<sim::ApSelector> r_policy = factory->create(0);
  std::vector<ApId> p_slots(w.workload.size(), kInvalidAp);
  std::vector<ApId> r_slots(w.workload.size(), kInvalidAp);
  runtime::ControllerEngine primary(w.network, w.workload, 0, sessions,
                                    *p_policy, config, p_slots);
  runtime::ControllerEngine replica(w.network, w.workload, 0, sessions,
                                    *r_policy, config, r_slots);

  const auto apply_to_copy = [&](runtime::ControllerEngine::StepKind kind,
                                 const sim::BatchResult& record) {
    const std::unique_ptr<sim::ApSelector> policy = r_policy->clone();
    std::vector<ApId> slots = r_slots;
    runtime::ControllerEngine copy(replica, *policy, slots);
    return copy.apply_step(kind, &record);
  };

  std::size_t checked = 0;
  while (checked < checks && !primary.done()) {
    const auto kind = primary.next_step().kind;
    const std::vector<ApId> before = p_slots;
    const std::uint64_t digest = primary.apply_step(kind);
    const sim::BatchResult* batch = primary.last_batch();
    if (batch != nullptr) {
      EXPECT_EQ(batch->replayable, policy_name == "llf");
      // Arrivals batch in trace order, so the first is the lowest
      // session this step placed.
      std::size_t first = 0;
      while (before[first] != kInvalidAp || p_slots[first] == kInvalidAp) {
        ++first;
      }
      const trace::SessionRecord& rec = w.workload.sessions()[first];
      const std::vector<ApId> heard =
          wlan::candidate_aps(w.network, config.radio, rec.building, rec.pos);
      const auto other =
          std::find_if(heard.begin(), heard.end(),
                       [&](ApId ap) { return ap != batch->placements[0]; });
      if (other != heard.end()) {
        ApId unheard = 0;
        while (std::find(heard.begin(), heard.end(), unheard) != heard.end()) {
          ++unheard;
        }
        ASSERT_LT(unheard, w.network.num_aps());
        const auto expect_rejected = [&](const sim::BatchResult& record,
                                         const char* what) {
          std::uint64_t got = digest;
          EXPECT_NO_THROW(got = apply_to_copy(kind, record))
              << what << ", batch " << checked;
          EXPECT_NE(got, digest) << what << ", batch " << checked;
        };
        const auto moved_to = [&](ApId ap) {
          sim::BatchResult changed = *batch;
          changed.placements[0] = ap;
          return changed;
        };
        expect_rejected(moved_to(*other), "moved to an AP it hears");
        expect_rejected(moved_to(unheard), "moved to an AP it does not hear");
        expect_rejected(moved_to(static_cast<ApId>(w.network.num_aps())),
                        "moved past the network");
        sim::BatchResult dropped = *batch;
        dropped.placements.pop_back();
        expect_rejected(dropped, "one placement dropped");
        ++checked;
      }
    }
    ASSERT_EQ(replica.apply_step(kind, batch), digest);
  }
  EXPECT_EQ(checked, checks);
  EXPECT_EQ(r_slots, p_slots);
}

TEST(RecordedBatch, ChangedOrMissizedPlacementsChangeTheDigest) {
  expect_tampered_batches_rejected("llf", 40);     // applied as recorded
  expect_tampered_batches_rejected("random", 40);  // placed again
}

TEST(EventLog, SuffixAndKindPredicates) {
  EventLog log;
  log.append(RecordKind::kArrival, 1, util::SimTime(10), 0xa);
  log.append(RecordKind::kFlush, 1, util::SimTime(20), 0xb);
  log.append(RecordKind::kCrash, 1, util::SimTime(30), 0xc);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.suffix(1).size(), 2u);
  EXPECT_EQ(log.suffix(3).size(), 0u);
  EXPECT_THROW(log.suffix(4), std::invalid_argument);
  EXPECT_EQ(log.records()[1].index, 1u);

  EXPECT_TRUE(is_engine_step(RecordKind::kFault));
  EXPECT_TRUE(is_engine_step(RecordKind::kFlush));
  EXPECT_FALSE(is_engine_step(RecordKind::kDroppedArrival));
  EXPECT_TRUE(is_headless_step(RecordKind::kPostponedRetries));
  EXPECT_FALSE(is_headless_step(RecordKind::kPromotion));
  using StepKind = runtime::ControllerEngine::StepKind;
  EXPECT_EQ(to_step_kind(RecordKind::kRetries), StepKind::kRetries);
  EXPECT_EQ(from_step_kind(StepKind::kDeparture), RecordKind::kDeparture);
  EXPECT_FALSE(is_engine_step(RecordKind::kSnapshot));
  EXPECT_FALSE(is_headless_step(RecordKind::kAdoption));
}

TEST(EventLog, TruncationKeepsIndicesGlobal) {
  EventLog log;
  for (int i = 0; i < 6; ++i) {
    log.append(RecordKind::kArrival, 1, util::SimTime(10 * i),
               static_cast<std::uint64_t>(i));
  }
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log.truncate_prefix(4), 4u);
  EXPECT_EQ(log.base(), 4u);
  EXPECT_EQ(log.size(), 6u);  // total ever appended, not retained
  EXPECT_EQ(log.live_size(), 2u);
  EXPECT_EQ(log.records().front().index, 4u);
  EXPECT_EQ(log.record(5).digest, 5u);
  EXPECT_EQ(log.suffix(4).size(), 2u);
  EXPECT_EQ(log.suffix(6).size(), 0u);
  // The truncated prefix is gone for good.
  EXPECT_THROW(log.suffix(3), std::invalid_argument);
  EXPECT_THROW(log.record(3), std::invalid_argument);
  EXPECT_THROW(log.truncate_prefix(7), std::invalid_argument);
  // Re-truncating at or below the base is a no-op.
  EXPECT_EQ(log.truncate_prefix(4), 0u);
  EXPECT_EQ(log.truncate_prefix(2), 0u);
  // New appends keep counting from the global index.
  log.append(RecordKind::kFlush, 2, util::SimTime(100), 0xf);
  EXPECT_EQ(log.records().back().index, 6u);
  EXPECT_EQ(log.size(), 7u);
}

TEST(EventLog, TruncationDropsBatchesWithTheirRecords) {
  EventLog log;
  for (std::uint64_t i = 0; i < 6; ++i) {
    sim::BatchResult batch;
    batch.placements = {static_cast<ApId>(i), static_cast<ApId>(i + 1)};
    batch.full_fidelity = i % 2 == 0;
    batch.replayable = true;
    if (i == 3) {
      log.append(RecordKind::kDeparture, 1, util::SimTime(10), i);
    } else {
      log.append(RecordKind::kFlush, 1, util::SimTime(10), i, batch);
    }
  }
  EXPECT_EQ(log.truncate_prefix(4), 4u);
  ASSERT_EQ(log.live_size(), 2u);
  // Only the retained records' batches remain, each with its record.
  for (const LogRecord& rec : log.records()) {
    ASSERT_TRUE(rec.batch.has_value()) << "record " << rec.index;
    EXPECT_EQ(rec.batch->placements,
              (std::vector<ApId>{static_cast<ApId>(rec.index),
                                 static_cast<ApId>(rec.index + 1)}));
    EXPECT_EQ(rec.batch->full_fidelity, rec.index % 2 == 0);
    EXPECT_TRUE(rec.batch->replayable);
  }
  EXPECT_EQ(log.truncate_prefix(6), 2u);
  EXPECT_EQ(log.live_size(), 0u);
  log.append(RecordKind::kFlush, 2, util::SimTime(20), 7);
  EXPECT_FALSE(log.record(6).batch.has_value());
}

TEST(EventLog, TamperFlipsOneDigest) {
  EventLog log;
  log.append(RecordKind::kArrival, 1, util::SimTime(10), 0xaa);
  log.append(RecordKind::kFlush, 1, util::SimTime(20), 0xbb);
  log.tamper_digest(1);
  EXPECT_EQ(log.record(0).digest, 0xaau);
  EXPECT_NE(log.record(1).digest, 0xbbu);
  EXPECT_THROW(log.tamper_digest(2), std::invalid_argument);
}

}  // namespace
}  // namespace s3::repl
