#include "s3/runtime/replay_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "s3/core/baselines.h"
#include "s3/core/evaluation.h"
#include "s3/core/selector_factory.h"
#include "s3/sim/replay.h"
#include "s3/trace/generator.h"
#include "s3/util/metrics.h"
#include "testing/mini.h"

namespace s3::runtime {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using s3::testing::mini_network;

/// Multi-building campus so the driver actually has several shards.
const trace::GeneratedTrace& shared_world() {
  static const trace::GeneratedTrace world = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.num_users = 150;
    cfg.num_days = 3;
    cfg.layout.num_buildings = 3;
    cfg.layout.aps_per_building = 5;
    return trace::generate_campus_trace(cfg);
  }();
  return world;
}

sim::ReplayResult run_with(const sim::SelectorFactory& factory,
                           unsigned threads) {
  const trace::GeneratedTrace& w = shared_world();
  ReplayDriverConfig rc;
  rc.threads = threads;
  return ReplayDriver(w.network, rc).run(w.workload, factory);
}

void expect_identical(const sim::ReplayResult& a, const sim::ReplayResult& b) {
  ASSERT_EQ(a.assigned.size(), b.assigned.size());
  for (std::size_t i = 0; i < a.assigned.size(); ++i) {
    ASSERT_EQ(a.assigned.session(i).ap, b.assigned.session(i).ap)
        << "session " << i;
  }
  EXPECT_EQ(a.stats.num_sessions, b.stats.num_sessions);
  EXPECT_EQ(a.stats.num_batches, b.stats.num_batches);
  EXPECT_EQ(a.stats.max_batch_size, b.stats.max_batch_size);
  EXPECT_DOUBLE_EQ(a.stats.mean_batch_size, b.stats.mean_batch_size);
  EXPECT_EQ(a.stats.forced_overloads, b.stats.forced_overloads);
  EXPECT_EQ(a.stats.candidate_violations, b.stats.candidate_violations);
}

TEST(ReplayDriver, ThreadCountInvariantForLlf) {
  const core::LlfFactory f(core::LoadMetric::kStations);
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForRssi) {
  const core::StrongestRssiFactory f;
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForRandom) {
  // Per-domain RNG streams are derived from (seed, domain), never from
  // thread identity — the whole point of the factory contract.
  const core::RandomFactory f(99);
  expect_identical(run_with(f, 1), run_with(f, 4));
}

TEST(ReplayDriver, ThreadCountInvariantForS3AndOnlineS3) {
  const trace::GeneratedTrace& w = shared_world();
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const social::SocialIndexModel model =
      core::train_from_workload(w.network, w.workload, eval);

  const core::S3Factory s3(&w.network, &model);
  expect_identical(run_with(s3, 1), run_with(s3, 4));

  // Online-S3 learns, but each domain instance only ever sees its own
  // domain's events, so sharding is still schedule-independent.
  const core::OnlineS3Factory online(&w.network, &model);
  expect_identical(run_with(online, 1), run_with(online, 4));
}

TEST(ReplayDriver, SequentialMatchesShardedForStatelessPolicy) {
  const trace::GeneratedTrace& w = shared_world();
  const core::LlfFactory f(core::LoadMetric::kStations);
  core::LlfSelector shared(core::LoadMetric::kStations);
  const ReplayDriver driver(w.network);
  expect_identical(driver.run(w.workload, f),
                   driver.run_sequential(w.workload, shared));
}

TEST(ReplayDriver, CompatShimIsTheSequentialDriver) {
  const trace::GeneratedTrace& w = shared_world();
  core::LlfSelector a, b;
  const sim::ReplayResult via_shim = sim::replay(w.network, w.workload, a);
  const sim::ReplayResult via_driver =
      ReplayDriver(w.network).run_sequential(w.workload, b);
  expect_identical(via_shim, via_driver);
}

TEST(ReplayDriver, EffectiveThreadsResolvesZeroToAtLeastOne) {
  const auto net = mini_network(2);
  ReplayDriverConfig rc;
  rc.threads = 0;
  EXPECT_GE(ReplayDriver(net, rc).effective_threads(), 1u);
  rc.threads = 3;
  EXPECT_EQ(ReplayDriver(net, rc).effective_threads(), 3u);
}

/// LLF that throws `message` on its `throw_at`-th placement (1-based).
class ThrowingSelector final : public sim::ApSelector {
 public:
  ThrowingSelector(std::string message, std::size_t throw_at)
      : message_(std::move(message)), throw_at_(throw_at) {}
  std::string_view name() const override { return "throwing"; }
  ApId select_one(const sim::Arrival& a,
                  const sim::ApLoadTracker& loads) override {
    if (++placed_ == throw_at_) throw std::runtime_error(message_);
    return llf_.select_one(a, loads);
  }

 private:
  std::string message_;
  std::size_t throw_at_;
  std::size_t placed_ = 0;
  core::LlfSelector llf_;
};

/// Domain 2 fails at once, domain 1 only on its last placement, so a
/// pool that keeps the first error to arrive reports domain 2 whenever
/// both run concurrently.
class TwoFailingDomainsFactory final : public sim::SelectorFactory {
 public:
  explicit TwoFailingDomainsFactory(std::size_t domain1_sessions)
      : domain1_sessions_(domain1_sessions) {}
  std::string_view name() const override { return "throwing"; }
  std::unique_ptr<sim::ApSelector> create(ControllerId domain) const override {
    if (domain == 1) {
      return std::make_unique<ThrowingSelector>("domain 1", domain1_sessions_);
    }
    if (domain == 2) return std::make_unique<ThrowingSelector>("domain 2", 1);
    return std::make_unique<core::LlfSelector>();
  }

 private:
  std::size_t domain1_sessions_;
};

TEST(ReplayDriver, WorkerErrorIsTheLowestFailingDomainAtEveryThreadCount) {
  const trace::GeneratedTrace& w = shared_world();
  ASSERT_EQ(w.network.num_controllers(), 3u);
  std::size_t domain1_sessions = 0;
  for (const trace::SessionRecord& s : w.workload.sessions()) {
    if (w.network.controller_of_building(s.building) == 1) ++domain1_sessions;
  }
  ASSERT_GT(domain1_sessions, 1u);
  const TwoFailingDomainsFactory factory(domain1_sessions);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ReplayDriverConfig rc;
    rc.replay.dispatch_window_s = 0;
    rc.threads = threads;
    try {
      (void)ReplayDriver(w.network, rc).run(w.workload, factory);
      ADD_FAILURE() << "no error at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "domain 1") << "threads " << threads;
    }
  }
}

TEST(ReplayDriver, EmptyWorkload) {
  const auto net = mini_network(2);
  const trace::Trace workload(1, 1, {});
  const core::LlfFactory f;
  const sim::ReplayResult r = ReplayDriver(net).run(workload, f);
  EXPECT_EQ(r.stats.num_sessions, 0u);
  EXPECT_EQ(r.stats.num_batches, 0u);
  EXPECT_DOUBLE_EQ(r.stats.mean_batch_size, 0.0);  // no 0/0
}

TEST(MergeStats, EmptyAndZeroBatchShardsDoNotDivide) {
  EXPECT_DOUBLE_EQ(merge_stats(std::span<const sim::ReplayStats>{})
                       .mean_batch_size,
                   0.0);

  // Shards that saw sessions but never flushed a batch.
  const sim::ReplayStats idle[2]{};
  const sim::ReplayStats merged = merge_stats(idle);
  EXPECT_EQ(merged.num_batches, 0u);
  EXPECT_DOUBLE_EQ(merged.mean_batch_size, 0.0);
}

TEST(MergeStats, SumsAndMaxes) {
  sim::ReplayStats a, b;
  a.num_sessions = 6;
  a.num_batches = 2;
  a.max_batch_size = 4;
  a.forced_overloads = 1;
  a.candidate_violations = 2;
  b.num_sessions = 4;
  b.num_batches = 3;
  b.max_batch_size = 2;
  b.forced_overloads = 2;
  b.candidate_violations = 0;
  const sim::ReplayStats shards[] = {a, b};
  const sim::ReplayStats m = merge_stats(shards);
  EXPECT_EQ(m.num_sessions, 10u);
  EXPECT_EQ(m.num_batches, 5u);
  EXPECT_EQ(m.max_batch_size, 4u);
  EXPECT_EQ(m.forced_overloads, 3u);
  EXPECT_EQ(m.candidate_violations, 2u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 2.0);
}

/// Deliberately broken policy: always answers with an AP from the
/// other building, violating the candidate-set contract.
class OutOfCandidatesSelector final : public sim::ApSelector {
 public:
  std::string_view name() const override { return "broken"; }
  ApId select_one(const sim::Arrival& a, const sim::ApLoadTracker&) override {
    ApId worst = 0;
    while (std::find(a.candidates.begin(), a.candidates.end(), worst) !=
           a.candidates.end()) {
      ++worst;
    }
    return worst;
  }
};

TEST(ReplayDriver, CandidateViolationObservable) {
  const auto net = mini_network(4, 2);  // 2 buildings: 4 foreign APs
  const auto workload = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 600},
      SessionSpec{.user = 1, .connect_s = 30, .disconnect_s = 900},
  });
  OutOfCandidatesSelector broken;
  const ReplayDriver driver(net);
#ifdef NDEBUG
  // Release: the breach is kept (the association already happened) but
  // surfaces as a counted stat.
  const sim::ReplayResult r = driver.run_sequential(workload, broken);
  EXPECT_EQ(r.stats.candidate_violations, 2u);
  EXPECT_TRUE(r.assigned.fully_assigned());
#else
  // Debug: the S3_DEBUG_ASSERT trips immediately.
  EXPECT_THROW(driver.run_sequential(workload, broken), std::logic_error);
#endif
}

/// Counter/histogram values on the global bus, keyed by name. Timer
/// durations are wall clock and excluded; their call counts are kept.
std::map<std::string, std::uint64_t> deterministic_metrics() {
  std::map<std::string, std::uint64_t> out;
  for (const util::MetricSample& s : util::metrics().snapshot()) {
    if (s.name.rfind("sim.", 0) != 0) continue;
    switch (s.kind) {
      case util::MetricKind::kCounter:
        out[s.name] = s.count;
        break;
      case util::MetricKind::kHistogram:
        out[s.name + ".count"] = s.count;
        out[s.name + ".sum"] = s.total;
        out[s.name + ".max"] = s.max;
        break;
      case util::MetricKind::kTimer:
        out[s.name + ".calls"] = s.count;
        break;
    }
  }
  return out;
}

TEST(ReplayDriver, InstrumentationCountersStableAcrossRunsAndThreads) {
  const core::LlfFactory f;

  util::metrics().reset();
  (void)run_with(f, 1);
  const auto first = deterministic_metrics();
  ASSERT_GT(first.at("sim.sessions"), 0u);
  ASSERT_GT(first.at("sim.batches"), 0u);
  ASSERT_GT(first.at("sim.batch_size.count"), 0u);

  util::metrics().reset();
  (void)run_with(f, 1);
  EXPECT_EQ(deterministic_metrics(), first) << "not stable across runs";

  util::metrics().reset();
  (void)run_with(f, 4);
  EXPECT_EQ(deterministic_metrics(), first) << "not stable across threads";
}

}  // namespace
}  // namespace s3::runtime
