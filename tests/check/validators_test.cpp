#include "s3/check/validators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "s3/fault/fault_plan.h"
#include "s3/fault/replica_snapshot.h"
#include "s3/social/graph.h"
#include "s3/util/metrics.h"
#include "testing/mini.h"

namespace s3::check {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t counter(const char* name) {
  return util::metrics().counter(name)->value();
}

bool mentions(const CheckReport& report, const std::string& needle) {
  for (const CheckIssue& issue : report.issues()) {
    if (issue.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

class ValidatorsTest : public ::testing::Test {
 protected:
  void SetUp() override { util::metrics().reset(); }
  void TearDown() override {
    set_contract_mode(ContractMode::kOff);
    util::metrics().reset();
  }
};

// --- validate_trace -------------------------------------------------

std::vector<trace::SessionRecord> corrupted_sessions() {
  // Record 1 regresses in time relative to record 0; record 2 names an
  // AP the topology does not have.
  return {
      testing::make_session({.user = 0, .connect_s = 500, .disconnect_s = 900}),
      testing::make_session({.user = 1, .connect_s = 100, .disconnect_s = 400}),
      testing::make_session(
          {.user = 2, .connect_s = 600, .disconnect_s = 700, .ap = 9}),
  };
}

TEST_F(ValidatorsTest, TraceCountModeReportsRegressionAndUnknownAp) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network net = testing::mini_network(4);
  const std::vector<trace::SessionRecord> sessions = corrupted_sessions();
  const CheckReport report = validate_trace(sessions, 3, &net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "regress"));
  EXPECT_TRUE(mentions(report, "unknown AP id 9"));
  EXPECT_EQ(counter("check.validate_trace.violations"),
            report.issues().size());
}

TEST_F(ValidatorsTest, TraceAbortModeThrowsOnTheFirstViolation) {
  const ScopedContractMode scoped(ContractMode::kAbort);
  const wlan::Network net = testing::mini_network(4);
  const std::vector<trace::SessionRecord> sessions = corrupted_sessions();
  EXPECT_THROW(validate_trace(sessions, 3, &net), ContractViolation);
}

TEST_F(ValidatorsTest, TraceAcceptsAWellFormedWorkload) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network net = testing::mini_network(4);
  const trace::Trace t = testing::make_trace(
      2, {{.user = 0, .connect_s = 0, .disconnect_s = 300},
          {.user = 1, .connect_s = 100, .disconnect_s = 400, .ap = 2}});
  EXPECT_TRUE(validate_trace(t, &net).ok());
  EXPECT_EQ(counter("check.validate_trace.violations"), 0u);
}

TEST_F(ValidatorsTest, TraceRejectsUnknownUserAndZeroUsers) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const std::vector<trace::SessionRecord> sessions = {
      testing::make_session({.user = 7})};
  EXPECT_TRUE(mentions(validate_trace(sessions, 3), "unknown user id 7"));
  EXPECT_TRUE(mentions(validate_trace(sessions, 0), "zero users"));
}

// --- validate_social_graph ------------------------------------------

/// A θ provider with an injectable (and deliberately breakable) rule.
class FakeTheta : public social::ThetaProvider {
 public:
  FakeTheta(std::size_t n, double (*rule)(UserId, UserId))
      : n_(n), rule_(rule) {}
  double theta(UserId u, UserId v) const override { return rule_(u, v); }
  std::size_t num_users() const override { return n_; }

 private:
  std::size_t n_;
  double (*rule_)(UserId, UserId);
};

TEST_F(ValidatorsTest, SocialGraphCountModeReportsAsymmetricTheta) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const FakeTheta theta(3, [](UserId u, UserId v) {
    if (u == v) return 0.0;
    return u < v ? 0.5 : 0.4;  // θ(u,v) ≠ θ(v,u)
  });
  const CheckReport report = validate_social_graph(theta);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "asymmetric"));
  EXPECT_EQ(counter("check.validate_social_graph.violations"),
            report.issues().size());
}

TEST_F(ValidatorsTest, SocialGraphAbortModeThrowsOnAsymmetricTheta) {
  const ScopedContractMode scoped(ContractMode::kAbort);
  const FakeTheta theta(2, [](UserId u, UserId v) {
    if (u == v) return 0.0;
    return u < v ? 0.5 : 0.4;
  });
  EXPECT_THROW(validate_social_graph(theta), ContractViolation);
}

TEST_F(ValidatorsTest, SocialGraphReportsNegativeAndNonZeroDiagonal) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const FakeTheta theta(2, [](UserId u, UserId v) {
    if (u == v) return 0.25;  // θ(u,u) must be 0
    return -0.15;             // θ must be non-negative
  });
  const CheckReport report = validate_social_graph(theta);
  EXPECT_TRUE(mentions(report, "expected 0"));
  EXPECT_TRUE(mentions(report, "negative"));
}

TEST_F(ValidatorsTest, SocialGraphAcceptsAConsistentProviderAndGraph) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const FakeTheta theta(3, [](UserId u, UserId v) {
    if (u == v) return 0.0;
    return (u + v == 1) ? 0.9 : 0.1;  // only the (0,1) tie is social
  });
  EXPECT_TRUE(validate_social_graph(theta).ok());
  const social::WeightedGraph g = social::build_theta_graph(theta, 0.3);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(validate_social_graph(g, &theta).ok());
}

TEST_F(ValidatorsTest, SocialGraphReportsEdgesDisagreeingWithTheta) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const FakeTheta theta(3, [](UserId u, UserId v) {
    if (u == v) return 0.0;
    return (u + v == 1) ? 0.9 : 0.1;
  });
  social::WeightedGraph g(3);
  g.add_edge(0, 2, 0.8);  // θ(0,2) = 0.1: neither weight nor edge belong
  const CheckReport report = validate_social_graph(g, &theta);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "disagrees with theta"));
  EXPECT_TRUE(mentions(report, "missing although theta"));
}

// --- validate_clique_cover ------------------------------------------

social::WeightedGraph two_pairs_graph() {
  social::WeightedGraph g(4);
  g.add_edge(0, 1, 0.9);
  g.add_edge(2, 3, 0.8);
  return g;
}

TEST_F(ValidatorsTest, CliqueCoverAcceptsAnExactPartition) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const std::vector<std::vector<std::size_t>> cover = {{0, 1}, {2, 3}};
  EXPECT_TRUE(validate_clique_cover(two_pairs_graph(), cover).ok());
  EXPECT_EQ(counter("check.validate_clique_cover.violations"), 0u);
}

TEST_F(ValidatorsTest, CliqueCoverCountModeReportsNonPartition) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // Vertex 3 uncovered, vertex 0 covered twice, {0, 2} not a clique.
  const std::vector<std::vector<std::size_t>> cover = {{0, 1}, {0, 2}};
  const CheckReport report = validate_clique_cover(two_pairs_graph(), cover);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "not a clique"));
  EXPECT_TRUE(mentions(report, "vertex 3 is uncovered"));
  EXPECT_TRUE(mentions(report, "vertex 0 is covered 2 times"));
  EXPECT_EQ(counter("check.validate_clique_cover.violations"),
            report.issues().size());
}

TEST_F(ValidatorsTest, CliqueCoverAbortModeThrowsOnNonPartition) {
  const ScopedContractMode scoped(ContractMode::kAbort);
  const std::vector<std::vector<std::size_t>> cover = {{0, 1}};
  EXPECT_THROW(validate_clique_cover(two_pairs_graph(), cover),
               ContractViolation);
}

TEST_F(ValidatorsTest, CliqueCoverFlagsStaleCoverAfterEdgeDeletions) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // The cover {0,1},{2,3} was valid before every θ-edge at vertex 1
  // decayed away; against the current graph it must be reported as
  // stale, naming the dead vertex — not just as a generic non-clique.
  social::WeightedGraph g(4);
  g.add_edge(2, 3, 0.8);  // the (0, 1) edge is gone
  const std::vector<std::vector<std::size_t>> cover = {{0, 1}, {2, 3}};
  const CheckReport report = validate_clique_cover(g, cover);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "clique 0 is stale"));
  EXPECT_TRUE(mentions(report, "vertex 0 has no remaining theta-edges"));
  EXPECT_TRUE(mentions(report, "vertex 1 has no remaining theta-edges"));
  EXPECT_TRUE(mentions(report, "not a clique"));
}

TEST_F(ValidatorsTest, CliqueCoverDoesNotFlagIsolatedSingletonsAsStale) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // A degree-0 vertex in its own singleton clique is the *correct*
  // cover for an isolated vertex — only multi-member cliques go stale.
  social::WeightedGraph g(3);
  g.add_edge(0, 1, 0.9);
  const std::vector<std::vector<std::size_t>> cover = {{0, 1}, {2}};
  EXPECT_TRUE(validate_clique_cover(g, cover).ok());
}

TEST_F(ValidatorsTest, CliqueCoverReportsOutOfRangeAndEmptyCliques) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const std::vector<std::vector<std::size_t>> cover = {
      {0, 1}, {2, 3}, {}, {17}};
  const CheckReport report = validate_clique_cover(two_pairs_graph(), cover);
  EXPECT_TRUE(mentions(report, "is empty"));
  EXPECT_TRUE(mentions(report, "out of range"));
}

// --- validate_load_state --------------------------------------------

TEST_F(ValidatorsTest, LoadStateAcceptsABalancedVector) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const std::vector<double> demand = {2.0, 2.0, 2.0};
  EXPECT_TRUE(validate_load_state(demand).ok());
  EXPECT_EQ(counter("check.validate_load_state.violations"), 0u);
}

TEST_F(ValidatorsTest, LoadStateCountModeReportsBetaOutsideRange) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // Infinite load drives β = (ΣT)²/(n·ΣT²) to NaN — the only way the
  // Chiu–Jain index leaves [1/n, 1].
  const std::vector<double> demand = {kInf, 1.0};
  const CheckReport report = validate_load_state(demand);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "non-finite load"));
  EXPECT_TRUE(mentions(report, "outside [1/n, 1]"));
  EXPECT_EQ(counter("check.validate_load_state.violations"),
            report.issues().size());
}

TEST_F(ValidatorsTest, LoadStateAbortModeThrowsOnNonFiniteLoad) {
  const ScopedContractMode scoped(ContractMode::kAbort);
  const std::vector<double> demand = {kInf, 1.0};
  EXPECT_THROW(validate_load_state(demand), ContractViolation);
}

TEST_F(ValidatorsTest, LoadStateReportsNegativeLoad) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const std::vector<double> demand = {-3.0, 1.0};
  EXPECT_TRUE(mentions(validate_load_state(demand), "negative load"));
}

TEST_F(ValidatorsTest, LoadStateAcceptsALiveTracker) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network net = testing::mini_network(3);
  sim::ApLoadTracker tracker(net);
  tracker.associate(0, 0, 0, 2.0);
  tracker.associate(1, 1, 1, 3.0);
  tracker.associate(2, 1, 2, 1.0);
  EXPECT_TRUE(validate_load_state(tracker).ok());
  tracker.disconnect(2, 1);
  EXPECT_TRUE(validate_load_state(tracker).ok());
}

TEST_F(ValidatorsTest, LoadStateChecksAnAssignedTrace) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network net = testing::mini_network(4);
  const trace::Trace ok = testing::make_trace(
      2, {{.user = 0, .ap = 0, .demand_mbps = 1.5},
          {.user = 1, .ap = 1, .demand_mbps = 2.5}});
  EXPECT_TRUE(validate_load_state(net, ok).ok());

  // An unassigned workload carries no load to validate.
  const trace::Trace unassigned = testing::make_trace(1, {{.user = 0}});
  EXPECT_TRUE(
      mentions(validate_load_state(net, unassigned), "not fully assigned"));

  // Infinite per-session demand survives trace construction (inf ≥ 0)
  // but must be caught here.
  const trace::Trace inf_demand = testing::make_trace(
      1, {{.user = 0, .ap = 0, .demand_mbps = kInf}});
  const CheckReport report = validate_load_state(net, inf_demand);
  EXPECT_TRUE(mentions(report, "non-finite load"));
}

// --- validate_model_freshness ---------------------------------------

social::SocialIndexModel model_trained_until(std::int64_t trained_end_s) {
  social::SocialModelConfig cfg;
  cfg.trained_end_s = trained_end_s;
  analysis::PairStatsMap stats;
  stats[UserPair(0, 1)] = {4, 2, 1};
  social::UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user = {0, 0};
  typing.centroids.assign(apps::kNumCategories, 0.1);
  social::TypeCoLeaveMatrix matrix(1);
  matrix.set(0, 0, 0.5);
  return social::SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), std::move(matrix));
}

TEST_F(ValidatorsTest, ModelFreshnessAcceptsARecentModel) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const auto model = model_trained_until(util::SimTime::from_days(10).seconds());
  EXPECT_TRUE(validate_model_freshness(model, util::SimTime::from_days(12),
                                       util::SimTime::from_days(7))
                  .ok());
  EXPECT_EQ(counter("check.validate_model_freshness.violations"), 0u);
}

TEST_F(ValidatorsTest, ModelFreshnessFlagsAStaleModel) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const auto model = model_trained_until(util::SimTime::from_days(2).seconds());
  const CheckReport report = validate_model_freshness(
      model, util::SimTime::from_days(30), util::SimTime::from_days(7));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "stale"));
  EXPECT_EQ(counter("check.validate_model_freshness.violations"),
            report.issues().size());
}

TEST_F(ValidatorsTest, ModelFreshnessFlagsAnUnknownHorizon) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const auto model = model_trained_until(-1);
  const CheckReport report = validate_model_freshness(
      model, util::SimTime::from_days(1), util::SimTime::from_days(7));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "training horizon unknown"));
}

TEST_F(ValidatorsTest, ModelFreshnessFlagsAFutureHorizon) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const auto model = model_trained_until(util::SimTime::from_days(9).seconds());
  const CheckReport report = validate_model_freshness(
      model, util::SimTime::from_days(1), util::SimTime::from_days(7));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "future"));
}

TEST_F(ValidatorsTest, ModelFreshnessAbortModeThrowsOnStale) {
  const ScopedContractMode scoped(ContractMode::kAbort);
  const auto model = model_trained_until(0);
  EXPECT_THROW(validate_model_freshness(model, util::SimTime::from_days(30),
                                        util::SimTime::from_days(7)),
               ContractViolation);
}

// --- validate_fault_plan --------------------------------------------

TEST_F(ValidatorsTest, FaultPlanAcceptsACleanPlan) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network net = testing::mini_network(4, 2);
  fault::FaultPlan plan;
  plan.ap_outages.push_back({1, util::SimTime(100), util::SimTime(200)});
  plan.ap_outages.push_back({1, util::SimTime(200), util::SimTime(300)});
  plan.controller_outages.push_back({0, util::SimTime(50), util::SimTime(150)});
  plan.controller_outages.push_back({1, util::SimTime(50), util::SimTime(150)});
  plan.model_outages.push_back({util::SimTime(0), util::SimTime(10)});
  plan.admission.failure_probability = 0.5;
  plan.admission.begin = util::SimTime(0);
  plan.admission.end = util::SimTime(100);
  EXPECT_TRUE(validate_fault_plan(plan, &net).ok());
  EXPECT_EQ(counter("check.validate_fault_plan.violations"), 0u);
}

TEST_F(ValidatorsTest, FaultPlanFlagsWindowProblems) {
  const ScopedContractMode scoped(ContractMode::kCount);
  fault::FaultPlan plan;
  // Inverted AP window; overlapping controller windows (touching ones,
  // as in the clean-plan test above, are fine — windows are half-open).
  plan.ap_outages.push_back({0, util::SimTime(200), util::SimTime(100)});
  plan.controller_outages.push_back({3, util::SimTime(0), util::SimTime(150)});
  plan.controller_outages.push_back({3, util::SimTime(100), util::SimTime(250)});
  plan.clique_squeezes.push_back({util::SimTime(0), util::SimTime(10), 0});
  plan.admission.failure_probability = 1.5;
  const CheckReport report = validate_fault_plan(plan);
  EXPECT_TRUE(mentions(report, "ap 0: empty outage window"));
  EXPECT_TRUE(mentions(report, "controller 3: outage windows overlap"));
  EXPECT_TRUE(mentions(report, "budget must be positive"));
  EXPECT_TRUE(mentions(report, "probability 1.5 outside [0, 1]"));
  EXPECT_EQ(counter("check.validate_fault_plan.violations"),
            report.issues().size());
}

// Each window is compared with the latest end among its AP's earlier
// windows, so an empty window between two others hides no overlap.
TEST_F(ValidatorsTest, FaultPlanEmptyWindowDoesNotHideAnOverlap) {
  const ScopedContractMode scoped(ContractMode::kCount);
  fault::FaultPlan plan;
  plan.ap_outages.push_back({0, util::SimTime(6), util::SimTime(8)});
  plan.ap_outages.push_back({0, util::SimTime(5), util::SimTime(5)});
  plan.ap_outages.push_back({0, util::SimTime(0), util::SimTime(10)});
  const CheckReport report = validate_fault_plan(plan);
  EXPECT_TRUE(mentions(report, "ap 0: empty outage window [5, 5)"));
  EXPECT_TRUE(mentions(report, "ap 0: outage windows overlap: [0, 10) and [6, 8)"));
  EXPECT_EQ(report.issues().size(), 2u);
}

TEST_F(ValidatorsTest, FaultPlanFlagsUnknownIdsOnlyWithATopology) {
  const ScopedContractMode scoped(ContractMode::kCount);
  fault::FaultPlan plan;
  plan.ap_outages.push_back({99, util::SimTime(0), util::SimTime(10)});
  plan.controller_outages.push_back({7, util::SimTime(0), util::SimTime(10)});
  // Without a network the ids cannot be checked — plan is clean.
  EXPECT_TRUE(validate_fault_plan(plan).ok());

  const wlan::Network net = testing::mini_network(4, 2);
  const CheckReport report = validate_fault_plan(plan, &net);
  EXPECT_TRUE(mentions(report, "unknown AP 99"));
  EXPECT_TRUE(mentions(report, "unknown controller 7"));
}

// fault::validate_plan and validate_fault_plan apply one rule list:
// the first throws the first finding the second reports. Checked over
// every plan the fault-plan and validator tests build, plus a loss
// over an outage of the same controller.
TEST_F(ValidatorsTest, FaultPlanReportAgreesWithValidatePlan) {
  using util::SimTime;
  const ScopedContractMode scoped(ContractMode::kCount);
  const wlan::Network one = testing::mini_network(4);
  const wlan::Network two = testing::mini_network(4, 2);
  const wlan::Network three = testing::mini_network(4, 3);
  const wlan::Network four = testing::mini_network(4, 4);
  std::vector<std::pair<fault::FaultPlan, const wlan::Network*>> cases;
  const auto add = [&](const fault::FaultPlan& plan,
                       const wlan::Network* net = nullptr) {
    cases.emplace_back(plan, net);
  };
  const auto parsed = [](const std::string& text) {
    const fault::FaultPlanParseResult r = fault::parse_fault_plan(text);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.plan;
  };

  // tests/fault/fault_plan_test.cpp
  add(parsed("s3fault v1\nap-outage 3 100 200\nap-outage 1 50 75\n"
             "model-outage 10 20\nclique-budget 5 15 64\n"
             "admission-failure 0.25 100 400\n"));
  add(parsed("s3fault v1\nmodel-stale 0 10\n"));
  add(parsed("s3fault v1\ncontroller-outage 2 100 200\n"
             "controller-outage 0 300 400\n"));
  add(parsed("s3fault v1\ncontroller-loss 1 500 900\n"
             "controller-outage 1 100 200\n"));
  fault::FaultPlan plan;
  add(plan);
  plan.admission.failure_probability = 0.1;
  add(plan);
  plan = {};
  plan.ap_outages = {{99, SimTime(0), SimTime(10)}};
  add(plan);
  add(plan, &one);
  plan = {};
  plan.controller_outages = {{0, SimTime(0), SimTime(100)},
                             {0, SimTime(50), SimTime(150)}};
  add(plan);
  plan.controller_outages[1].controller = 1;
  add(plan);
  plan.controller_outages[1] = {0, SimTime(100), SimTime(150)};
  add(plan);
  plan = {};
  plan.controller_outages = {{7, SimTime(0), SimTime(10)}};
  add(plan);
  add(plan, &two);
  plan = {};
  plan.controller_losses = {{0, SimTime(0), SimTime(100)},
                            {0, SimTime(50), SimTime(150)}};
  add(plan);
  plan.controller_losses.pop_back();
  plan.controller_outages = {{0, SimTime(50), SimTime(150)}};
  add(plan);
  plan.controller_outages[0].controller = 1;
  add(plan);
  plan.controller_outages[0] = {0, SimTime(100), SimTime(150)};
  add(plan);
  plan.controller_losses[0].controller = 9;
  add(plan, &two);
  plan = {};
  plan.controller_outages = {{0, SimTime(0), SimTime(10)},
                             {0, SimTime(5), SimTime(8)},
                             {0, SimTime(5), SimTime(5)}};
  add(plan);
  plan.controller_outages.pop_back();
  add(plan);
  add(fault::canned_ap_churn_plan(three, SimTime(1000),
                                  SimTime(1000 + 24 * 3600)),
      &three);
  add(fault::canned_controller_churn_plan(four, SimTime(1000),
                                          SimTime(1000 + 24 * 3600)),
      &four);
  add(fault::canned_controller_loss_plan(three, SimTime(0),
                                         SimTime(24 * 3600)),
      &three);
  add(fault::canned_model_outage_plan(SimTime(0), SimTime(900)));
  add(fault::canned_admission_storm_plan(SimTime(0), SimTime(1000)));

  // The FaultPlan tests above.
  plan = {};
  plan.ap_outages = {{1, SimTime(100), SimTime(200)},
                     {1, SimTime(200), SimTime(300)}};
  plan.controller_outages = {{0, SimTime(50), SimTime(150)},
                             {1, SimTime(50), SimTime(150)}};
  plan.model_outages = {{SimTime(0), SimTime(10)}};
  plan.admission = {0.5, SimTime(0), SimTime(100)};
  add(plan, &two);
  plan = {};
  plan.ap_outages = {{0, SimTime(200), SimTime(100)}};
  plan.controller_outages = {{3, SimTime(0), SimTime(150)},
                             {3, SimTime(100), SimTime(250)}};
  plan.clique_squeezes = {{SimTime(0), SimTime(10), 0}};
  plan.admission.failure_probability = 1.5;
  add(plan);
  plan = {};
  plan.ap_outages = {{0, SimTime(6), SimTime(8)},
                     {0, SimTime(5), SimTime(5)},
                     {0, SimTime(0), SimTime(10)}};
  add(plan);
  plan = {};
  plan.ap_outages = {{99, SimTime(0), SimTime(10)}};
  plan.controller_outages = {{7, SimTime(0), SimTime(10)}};
  add(plan);
  add(plan, &two);
  plan = {};
  plan.controller_losses = {{2, SimTime(0), SimTime(100)},
                            {2, SimTime(50), SimTime(150)},
                            {9, SimTime(200), SimTime(300)}};
  add(plan, &two);

  add(parsed("s3fault v1\ncontroller-outage 0 100 200\n"
             "controller-loss 0 150 300\n"));

  std::size_t refused = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [p, net] = cases[i];
    const CheckReport report = validate_fault_plan(p, net);
    try {
      fault::validate_plan(p, net);
      EXPECT_TRUE(report.ok()) << "case " << i << ": accepted, but reported "
                               << report.issues().front().message;
    } catch (const std::invalid_argument& e) {
      ++refused;
      ASSERT_FALSE(report.ok()) << "case " << i << ": refused with "
                                << e.what() << ", but reported clean";
      EXPECT_EQ(e.what(), report.issues().front().message) << "case " << i;
    }
  }
  EXPECT_EQ(refused, 13u);
  const CheckReport last = validate_fault_plan(cases.back().first);
  ASSERT_EQ(last.issues().size(), 1u);
  EXPECT_EQ(last.issues()[0].message,
            "controller-loss 0: outage windows overlap: controller-outage "
            "[100, 200) and [150, 300)");
}

// --- validate_replica_convergence -----------------------------------

fault::ReplicaSnapshot converged_snapshot() {
  fault::ReplicaSnapshot s;
  s.controller = 1;
  s.term = 3;
  s.applied_records = 40;
  s.placements = {{0, 2}, {5, 1}};
  s.retries = {{util::SimTime(500), 7}};
  s.attempts = {{7, 2}};
  s.health = fault::HealthState::kRecovering;
  s.clean_run = 1;
  s.policy_digest = 0xfeedULL;
  s.stats.num_sessions = 6;
  return s;
}

TEST_F(ValidatorsTest, ReplicaConvergenceAcceptsIdenticalSnapshots) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const fault::ReplicaSnapshot a = converged_snapshot();
  fault::ReplicaSnapshot b = converged_snapshot();
  EXPECT_TRUE(validate_replica_convergence(a, b).ok());
  EXPECT_EQ(a.digest(), b.digest());

  // A promoted backup is one term ahead of the snapshot the crashed
  // primary left behind; that only matters under require_equal_terms.
  b.term = 4;
  b.applied_records = 43;
  EXPECT_TRUE(validate_replica_convergence(a, b).ok());
  ReplicaConvergenceOptions strict;
  strict.require_equal_terms = true;
  EXPECT_TRUE(mentions(validate_replica_convergence(a, b, strict),
                       "replication positions differ"));
}

TEST_F(ValidatorsTest, ReplicaConvergenceNamesDivergentState) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const fault::ReplicaSnapshot a = converged_snapshot();

  fault::ReplicaSnapshot placed = converged_snapshot();
  placed.placements[1].ap = 3;
  const CheckReport p = validate_replica_convergence(a, placed);
  EXPECT_TRUE(mentions(p, "placement diverges at session 5: ap 1 vs 3"));
  EXPECT_NE(a.digest(), placed.digest());

  fault::ReplicaSnapshot drifted = converged_snapshot();
  drifted.retries.clear();
  drifted.attempts[0].attempts = 3;
  drifted.health = fault::HealthState::kDegraded;
  drifted.policy_digest = 0xbeefULL;
  drifted.stats.num_sessions = 7;
  const CheckReport d = validate_replica_convergence(a, drifted);
  EXPECT_TRUE(mentions(d, "retry queues differ"));
  EXPECT_TRUE(mentions(d, "attempt counters differ"));
  EXPECT_TRUE(mentions(d, "degradation state differs"));
  EXPECT_TRUE(mentions(d, "policy state digests differ"));
  EXPECT_TRUE(mentions(d, "replay stats differ"));
  EXPECT_EQ(counter("check.validate_replica_convergence.violations"),
            p.issues().size() + d.issues().size());
}

TEST_F(ValidatorsTest, ReplicaConvergenceRejectsCrossDomainComparison) {
  const ScopedContractMode scoped(ContractMode::kCount);
  const fault::ReplicaSnapshot a = converged_snapshot();
  fault::ReplicaSnapshot other = converged_snapshot();
  other.controller = 2;
  other.placements[0].ap = 9;  // masked: cross-domain returns early
  const CheckReport report = validate_replica_convergence(a, other);
  EXPECT_TRUE(mentions(report, "different domains"));
  EXPECT_EQ(report.issues().size(), 1u);
}

// --- validate_log_truncation ----------------------------------------

TEST_F(ValidatorsTest, LogTruncationAcceptsACoveredCut) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // Cut at 40: the latest snapshot (50) survives, every alive replica
  // is past it, and the dead replica behind it will re-seed from the
  // snapshot.
  const std::vector<ReplicaLogPosition> replicas = {
      {0, true, 100}, {1, true, 40}, {2, false, 10}};
  EXPECT_TRUE(
      validate_log_truncation(40, 100, true, 50, replicas).ok());
  EXPECT_EQ(counter("check.validate_log_truncation.violations"), 0u);
}

TEST_F(ValidatorsTest, LogTruncationFlagsEveryWayACutCanOrphan) {
  const ScopedContractMode scoped(ContractMode::kCount);
  // An alive replica behind the base; a snapshot the cut would drop; a
  // replica claiming a position past the end.
  const std::vector<ReplicaLogPosition> replicas = {
      {0, true, 100}, {1, true, 30}, {2, true, 120}};
  const CheckReport report =
      validate_log_truncation(40, 100, true, 35, replicas);
  EXPECT_TRUE(mentions(report, "alive replica 1 still needs record 30"));
  EXPECT_TRUE(mentions(report, "latest snapshot at index 35 precedes"));
  EXPECT_TRUE(mentions(report, "replica 2 claims applied 120 past the log"));
  EXPECT_EQ(counter("check.validate_log_truncation.violations"),
            report.issues().size());

  // A cut without any snapshot at all, and one past the log end.
  EXPECT_TRUE(mentions(validate_log_truncation(10, 100, false, 0, {}),
                       "without any snapshot"));
  EXPECT_TRUE(mentions(validate_log_truncation(200, 100, true, 90, {}),
                       "past the log end"));
  // Base 0 is always safe: nothing is dropped.
  const std::vector<ReplicaLogPosition> sane = {{0, true, 100}, {1, true, 30}};
  EXPECT_TRUE(validate_log_truncation(0, 100, false, 0, sane).ok());
}

TEST_F(ValidatorsTest, FaultPlanFlagsLossWindows) {
  const ScopedContractMode scoped(ContractMode::kCount);
  fault::FaultPlan plan;
  plan.controller_losses.push_back({2, util::SimTime(0), util::SimTime(100)});
  plan.controller_losses.push_back({2, util::SimTime(50), util::SimTime(150)});
  plan.controller_losses.push_back({9, util::SimTime(200), util::SimTime(300)});
  const wlan::Network net = testing::mini_network(4, 2);
  const CheckReport report = validate_fault_plan(plan, &net);
  EXPECT_TRUE(mentions(report, "controller-loss 2: outage windows overlap"));
  EXPECT_TRUE(mentions(report, "unknown controller 9"));
}

// --- report mechanics -----------------------------------------------

TEST_F(ValidatorsTest, ReportCapsIssuesAndCountsTheRest) {
  const ScopedContractMode scoped(ContractMode::kCount);
  TraceCheckOptions options;
  options.max_issues = 2;
  std::vector<trace::SessionRecord> sessions;
  for (int i = 0; i < 5; ++i) {
    sessions.push_back(testing::make_session({.user = 9}));  // all unknown
  }
  const CheckReport report = validate_trace(sessions, 1, nullptr, options);
  EXPECT_EQ(report.issues().size(), 2u);
  EXPECT_EQ(report.dropped(), 3u);
  EXPECT_FALSE(report.ok());
}

TEST_F(ValidatorsTest, OffModeStillReturnsFindingsWithoutCounting) {
  const ScopedContractMode scoped(ContractMode::kOff);
  const std::vector<double> demand = {-1.0};
  EXPECT_FALSE(validate_load_state(demand).ok());
  EXPECT_EQ(counter("check.validate_load_state.violations"), 0u);
}

}  // namespace
}  // namespace s3::check
