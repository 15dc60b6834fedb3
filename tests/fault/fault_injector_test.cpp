#include "s3/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "s3/fault/degradation.h"
#include "s3/fault/retry_queue.h"
#include "testing/mini.h"

namespace s3::fault {
namespace {

using s3::testing::mini_network;

TEST(FaultInjector, ApOutageWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.ap_outages.push_back({2, util::SimTime(100), util::SimTime(200)});
  plan.ap_outages.push_back({2, util::SimTime(300), util::SimTime(400)});
  const FaultInjector inj(plan);

  EXPECT_FALSE(inj.ap_down(2, util::SimTime(99)));
  EXPECT_TRUE(inj.ap_down(2, util::SimTime(100)));  // begin inclusive
  EXPECT_TRUE(inj.ap_down(2, util::SimTime(199)));
  EXPECT_FALSE(inj.ap_down(2, util::SimTime(200)));  // end exclusive
  EXPECT_TRUE(inj.ap_down(2, util::SimTime(350)));
  EXPECT_FALSE(inj.ap_down(2, util::SimTime(250)));
  EXPECT_FALSE(inj.ap_down(0, util::SimTime(150)));  // other AP untouched
}

// ap_down answers from the last window starting at or before t, so
// overlapping windows of one AP would hide an outage: [0, 20) covers
// t = 15 s, but [5, 10) is the last window to start before it. Such a
// plan is refused; touching half-open windows are not overlaps.
TEST(FaultInjector, RejectsOverlappingApOutagesAndAcceptsTouchingOnes) {
  FaultPlan plan;
  plan.ap_outages.push_back({0, util::SimTime(0), util::SimTime(20)});
  plan.ap_outages.push_back({0, util::SimTime(5), util::SimTime(10)});
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);

  plan.ap_outages[1] = {0, util::SimTime(20), util::SimTime(30)};
  plan.ap_outages.push_back({1, util::SimTime(5), util::SimTime(10)});
  const FaultInjector inj(plan);
  EXPECT_TRUE(inj.ap_down(0, util::SimTime(15)));
  EXPECT_TRUE(inj.ap_down(0, util::SimTime(20)));
  EXPECT_FALSE(inj.ap_down(0, util::SimTime(30)));
  EXPECT_TRUE(inj.ap_down(1, util::SimTime(5)));
}

TEST(FaultInjector, ModelAvailabilityAndCliqueBudget) {
  FaultPlan plan;
  plan.model_outages.push_back({util::SimTime(10), util::SimTime(20)});
  plan.clique_squeezes.push_back({util::SimTime(0), util::SimTime(50), 100});
  plan.clique_squeezes.push_back({util::SimTime(5), util::SimTime(15), 32});
  const FaultInjector inj(plan);

  EXPECT_TRUE(inj.model_available(util::SimTime(9)));
  EXPECT_FALSE(inj.model_available(util::SimTime(10)));
  EXPECT_FALSE(inj.model_available(util::SimTime(19)));
  EXPECT_TRUE(inj.model_available(util::SimTime(20)));

  EXPECT_EQ(inj.clique_budget(util::SimTime(2)), 100u);
  EXPECT_EQ(inj.clique_budget(util::SimTime(10)), 32u);  // tightest wins
  EXPECT_EQ(inj.clique_budget(util::SimTime(40)), 100u);
  EXPECT_EQ(inj.clique_budget(util::SimTime(60)), 0u);  // no squeeze
}

TEST(FaultInjector, ControllerOutageWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.controller_outages.push_back({1, util::SimTime(100), util::SimTime(200)});
  plan.controller_outages.push_back({1, util::SimTime(300), util::SimTime(400)});
  plan.controller_outages.push_back({0, util::SimTime(50), util::SimTime(60)});
  const FaultInjector inj(plan);

  EXPECT_FALSE(inj.controller_down(1, util::SimTime(99)));
  EXPECT_TRUE(inj.controller_down(1, util::SimTime(100)));  // begin inclusive
  EXPECT_TRUE(inj.controller_down(1, util::SimTime(199)));
  EXPECT_FALSE(inj.controller_down(1, util::SimTime(200)));  // end exclusive
  EXPECT_TRUE(inj.controller_down(1, util::SimTime(350)));
  EXPECT_FALSE(inj.controller_down(0, util::SimTime(150)));  // other domain

  // Per-domain windows come back sorted by begin regardless of plan
  // order — the replication layer walks them front to back.
  const std::vector<util::TimeInterval> windows = inj.controller_outages(1);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].begin.seconds(), 100);
  EXPECT_EQ(windows[1].begin.seconds(), 300);
  EXPECT_TRUE(inj.controller_outages(2).empty());
}

TEST(FaultInjector, ControllerLossWindowsCountAsDownToo) {
  // A loss (whole replica set gone) makes the controller "down" for
  // every observer — including a neighbor domain probing for an alive
  // adopter — but stays a separate window list from plain outages.
  FaultPlan plan;
  plan.controller_losses.push_back({1, util::SimTime(100), util::SimTime(200)});
  plan.controller_losses.push_back({1, util::SimTime(400), util::SimTime(500)});
  plan.controller_outages.push_back({1, util::SimTime(250), util::SimTime(300)});
  const FaultInjector inj(plan);

  EXPECT_TRUE(inj.controller_down(1, util::SimTime(100)));  // loss
  EXPECT_FALSE(inj.controller_down(1, util::SimTime(200)));
  EXPECT_TRUE(inj.controller_down(1, util::SimTime(250)));  // outage
  EXPECT_FALSE(inj.controller_down(0, util::SimTime(150)));

  const std::vector<util::TimeInterval> losses = inj.controller_losses(1);
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_EQ(losses[0].begin.seconds(), 100);
  EXPECT_EQ(losses[1].begin.seconds(), 400);
  const std::vector<util::TimeInterval> outages = inj.controller_outages(1);
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_TRUE(inj.controller_losses(0).empty());
}

TEST(FaultInjector, AdmissionDrawsAreDeterministicAndWindowed) {
  FaultPlan plan;
  plan.admission.failure_probability = 0.5;
  plan.admission.begin = util::SimTime(100);
  plan.admission.end = util::SimTime(200);
  const FaultInjector a(plan, 7);
  const FaultInjector b(plan, 7);
  const FaultInjector other_seed(plan, 8);

  // Identical (seed, session, attempt) => identical draw; outside the
  // window nothing ever fails.
  bool any_differs_by_seed = false;
  for (std::size_t s = 0; s < 200; ++s) {
    EXPECT_EQ(a.admission_fails(s, 0, util::SimTime(150)),
              b.admission_fails(s, 0, util::SimTime(150)));
    EXPECT_FALSE(a.admission_fails(s, 0, util::SimTime(99)));
    EXPECT_FALSE(a.admission_fails(s, 0, util::SimTime(200)));
    if (a.admission_fails(s, 0, util::SimTime(150)) !=
        other_seed.admission_fails(s, 0, util::SimTime(150))) {
      any_differs_by_seed = true;
    }
  }
  EXPECT_TRUE(any_differs_by_seed);

  // Empirical frequency tracks p (hash quality, not statistics: 2000
  // draws at p=0.5 land well inside [0.4, 0.6]).
  std::size_t failures = 0;
  for (std::size_t s = 0; s < 1000; ++s) {
    for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
      if (a.admission_fails(s, attempt, util::SimTime(150))) ++failures;
    }
  }
  EXPECT_GT(failures, 800u);
  EXPECT_LT(failures, 1200u);
}

TEST(FaultInjector, AdmissionProbabilityExtremes) {
  FaultPlan zero;
  zero.admission.failure_probability = 0.0;
  zero.admission.begin = util::SimTime(0);
  FaultPlan one;
  one.admission.failure_probability = 1.0;
  one.admission.begin = util::SimTime(0);
  const FaultInjector never(zero), always(one);
  for (std::size_t s = 0; s < 50; ++s) {
    EXPECT_FALSE(never.admission_fails(s, 0, util::SimTime(10)));
    EXPECT_TRUE(always.admission_fails(s, 0, util::SimTime(10)));
  }
}

TEST(FaultInjector, DomainEventsAreSortedWithRecoveryFirst) {
  const auto net = mini_network(4, 2);  // APs 0-3 ctrl 0, 4-7 ctrl 1
  FaultPlan plan;
  plan.ap_outages.push_back({1, util::SimTime(100), util::SimTime(300)});
  plan.ap_outages.push_back({2, util::SimTime(300), util::SimTime(400)});
  plan.ap_outages.push_back({5, util::SimTime(50), util::SimTime(60)});
  const FaultInjector inj(plan);

  const auto events = inj.events_for_domain(net, 0);
  ASSERT_EQ(events.size(), 4u);  // only the domain's APs
  EXPECT_EQ(events[0].ap, 1u);
  EXPECT_EQ(events[0].kind, ApFaultEvent::Kind::kDown);
  // At t=300 AP 1 recovers before AP 2 fails: a station evicted from
  // AP 2 may immediately land on the restored AP 1.
  EXPECT_EQ(events[1].when.seconds(), 300);
  EXPECT_EQ(events[1].kind, ApFaultEvent::Kind::kUp);
  EXPECT_EQ(events[1].ap, 1u);
  EXPECT_EQ(events[2].when.seconds(), 300);
  EXPECT_EQ(events[2].kind, ApFaultEvent::Kind::kDown);
  EXPECT_EQ(events[2].ap, 2u);

  const auto other = inj.events_for_domain(net, 1);
  ASSERT_EQ(other.size(), 2u);
  EXPECT_EQ(other[0].ap, 5u);
}

TEST(RetryQueue, DrainsInDueThenSessionOrder) {
  RetryQueue q;
  EXPECT_TRUE(q.empty());
  q.push(7, util::SimTime(100));
  q.push(3, util::SimTime(100));
  q.push(9, util::SimTime(50));
  q.push(1, util::SimTime(200));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.next_due().seconds(), 50);

  const auto due = q.pop_due(util::SimTime(100));
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0], 9u);  // earliest due first
  EXPECT_EQ(due[1], 3u);  // ties broken by session index
  EXPECT_EQ(due[2], 7u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.pop_due(util::SimTime(150)).empty());
  EXPECT_EQ(q.pop_due(util::SimTime(200)).size(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(RecoveryPolicy, BackoffIsExponentialAndCapped) {
  RecoveryPolicy p;
  p.initial_backoff_s = 5;
  p.backoff_multiplier = 2.0;
  p.max_backoff_s = 30;
  EXPECT_EQ(p.backoff(1).seconds(), 5);
  EXPECT_EQ(p.backoff(2).seconds(), 10);
  EXPECT_EQ(p.backoff(3).seconds(), 20);
  EXPECT_EQ(p.backoff(4).seconds(), 30);   // capped
  EXPECT_EQ(p.backoff(40).seconds(), 30);  // stays capped, no overflow
}

TEST(DegradationTracker, TransitionsWithHysteresis) {
  DegradationTracker t(2);
  EXPECT_EQ(t.state(), HealthState::kHealthy);

  // Stress degrades and routes the batch to the fallback.
  EXPECT_TRUE(t.on_batch_start(true));
  EXPECT_EQ(t.state(), HealthState::kDegraded);
  EXPECT_TRUE(t.on_batch_start(true));

  // First unstressed batch: RECOVERING, but served at full fidelity.
  EXPECT_FALSE(t.on_batch_start(false));
  EXPECT_EQ(t.state(), HealthState::kRecovering);
  t.on_batch_end(true);

  // One clean batch is not enough with hysteresis 2...
  EXPECT_EQ(t.state(), HealthState::kRecovering);
  EXPECT_FALSE(t.on_batch_start(false));
  t.on_batch_end(true);
  EXPECT_EQ(t.state(), HealthState::kHealthy);

  const DegradationStats& s = t.stats();
  EXPECT_EQ(s.to_degraded, 1u);
  EXPECT_EQ(s.to_recovering, 1u);
  EXPECT_EQ(s.to_healthy, 1u);
  EXPECT_EQ(s.degraded_batches, 2u);
  EXPECT_EQ(s.observed_batches, 4u);
}

TEST(DegradationTracker, NonExactResultWhileRecoveringDegradesAgain) {
  DegradationTracker t(3);
  EXPECT_TRUE(t.on_batch_start(true));
  EXPECT_FALSE(t.on_batch_start(false));
  EXPECT_EQ(t.state(), HealthState::kRecovering);
  // The cover came back non-exact: not actually recovered.
  t.on_batch_end(false);
  EXPECT_EQ(t.state(), HealthState::kDegraded);
  EXPECT_EQ(t.stats().to_degraded, 2u);
}

}  // namespace
}  // namespace s3::fault
