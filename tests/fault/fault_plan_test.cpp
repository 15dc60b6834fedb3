#include "s3/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "testing/mini.h"

namespace s3::fault {
namespace {

using s3::testing::mini_network;

TEST(FaultPlanParse, FullPlanRoundTrips) {
  const std::string text =
      "# resilience drill\n"
      "s3fault v1\n"
      "ap-outage 3 100 200\n"
      "ap-outage 1 50 75\n"
      "model-outage 10 20\n"
      "clique-budget 5 15 64\n"
      "admission-failure 0.25 100 400\n";
  const FaultPlanParseResult r = parse_fault_plan(text);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan.ap_outages.size(), 2u);
  EXPECT_EQ(r.plan.ap_outages[0].ap, 3u);
  EXPECT_EQ(r.plan.ap_outages[0].begin.seconds(), 100);
  EXPECT_EQ(r.plan.ap_outages[0].end.seconds(), 200);
  ASSERT_EQ(r.plan.model_outages.size(), 1u);
  ASSERT_EQ(r.plan.clique_squeezes.size(), 1u);
  EXPECT_EQ(r.plan.clique_squeezes[0].node_budget, 64u);
  EXPECT_DOUBLE_EQ(r.plan.admission.failure_probability, 0.25);
  EXPECT_EQ(r.plan.admission.begin.seconds(), 100);
  EXPECT_EQ(r.plan.admission.end.seconds(), 400);

  // write -> parse is the identity on the plan content.
  const FaultPlanParseResult again = parse_fault_plan(write_fault_plan(r.plan));
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_EQ(again.plan.ap_outages.size(), 2u);
  EXPECT_EQ(again.plan.ap_outages[1].ap, 1u);
  EXPECT_DOUBLE_EQ(again.plan.admission.failure_probability, 0.25);
}

TEST(FaultPlanParse, ModelStaleIsAnAliasForModelOutage) {
  const FaultPlanParseResult r =
      parse_fault_plan("s3fault v1\nmodel-stale 0 10\n");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan.model_outages.size(), 1u);
}

TEST(FaultPlanParse, ErrorsNameTheLine) {
  const FaultPlanParseResult no_magic = parse_fault_plan("ap-outage 0 1 2\n");
  EXPECT_FALSE(no_magic.ok());
  EXPECT_NE(no_magic.error.find("s3fault v1"), std::string::npos);

  const FaultPlanParseResult bad_window =
      parse_fault_plan("s3fault v1\nap-outage 0 200 100\n");
  EXPECT_FALSE(bad_window.ok());
  EXPECT_NE(bad_window.error.find("line 2"), std::string::npos);

  const FaultPlanParseResult bad_p =
      parse_fault_plan("s3fault v1\nadmission-failure 1.5\n");
  EXPECT_FALSE(bad_p.ok());

  const FaultPlanParseResult junk =
      parse_fault_plan("s3fault v1\nap-outage 0 1 2trailing\n");
  EXPECT_FALSE(junk.ok());

  const FaultPlanParseResult unknown =
      parse_fault_plan("s3fault v1\npower-cut 0 1\n");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error.find("power-cut"), std::string::npos);
}

TEST(FaultPlanParse, EmptyPlanPredicate) {
  const FaultPlanParseResult r = parse_fault_plan("s3fault v1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.plan.empty());
  FaultPlan p = r.plan;
  p.admission.failure_probability = 0.1;
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlanValidate, RejectsUnknownApAgainstTopology) {
  const auto net = mini_network(4);
  FaultPlan plan;
  plan.ap_outages.push_back({99, util::SimTime(0), util::SimTime(10)});
  EXPECT_NO_THROW(validate_plan(plan));  // no topology: ids unbounded
  EXPECT_THROW(validate_plan(plan, &net), std::invalid_argument);
}

TEST(FaultPlanCanned, ApChurnStaysInsideHorizonAndTopology) {
  const auto net = mini_network(4, 3);  // 12 APs over 3 controllers
  const util::SimTime begin(1000), end(1000 + 24 * 3600);
  const FaultPlan plan = canned_ap_churn_plan(net, begin, end);
  ASSERT_FALSE(plan.ap_outages.empty());
  for (const ApOutage& o : plan.ap_outages) {
    EXPECT_LT(o.ap, net.num_aps());
    EXPECT_GE(o.begin, begin);
    EXPECT_LE(o.end, end);
    EXPECT_LT(o.begin, o.end);
  }
}

TEST(FaultPlanParse, ControllerOutageRoundTrips) {
  const std::string text =
      "s3fault v1\n"
      "controller-outage 2 100 200\n"
      "controller-outage 0 300 400\n";
  const FaultPlanParseResult r = parse_fault_plan(text);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan.controller_outages.size(), 2u);
  EXPECT_EQ(r.plan.controller_outages[0].controller, 2u);
  EXPECT_EQ(r.plan.controller_outages[0].begin.seconds(), 100);
  EXPECT_EQ(r.plan.controller_outages[0].end.seconds(), 200);
  EXPECT_FALSE(r.plan.empty());

  const FaultPlanParseResult again = parse_fault_plan(write_fault_plan(r.plan));
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_EQ(again.plan.controller_outages.size(), 2u);
  EXPECT_EQ(again.plan.controller_outages[1].controller, 0u);
  EXPECT_EQ(again.plan.controller_outages[1].begin.seconds(), 300);
}

TEST(FaultPlanParse, ControllerOutageErrorsNameTheLine) {
  const FaultPlanParseResult short_line =
      parse_fault_plan("s3fault v1\ncontroller-outage 0 100\n");
  EXPECT_FALSE(short_line.ok());
  EXPECT_NE(short_line.error.find("line 2"), std::string::npos);

  const FaultPlanParseResult inverted =
      parse_fault_plan("s3fault v1\ncontroller-outage 0 200 100\n");
  EXPECT_FALSE(inverted.ok());

  const FaultPlanParseResult negative =
      parse_fault_plan("s3fault v1\ncontroller-outage 0 -5 100\n");
  EXPECT_FALSE(negative.ok());
}

TEST(FaultPlanValidate, RejectsOverlappingControllerWindows) {
  // Overlap for one controller is nonsensical — the window's begin
  // crashes the replica its end restarts — so it is a hard error even
  // without a topology.
  FaultPlan plan;
  plan.controller_outages.push_back({0, util::SimTime(0), util::SimTime(100)});
  plan.controller_outages.push_back({0, util::SimTime(50), util::SimTime(150)});
  EXPECT_THROW(validate_plan(plan), std::invalid_argument);

  // The same windows on different controllers are fine.
  plan.controller_outages[1].controller = 1;
  EXPECT_NO_THROW(validate_plan(plan));

  // Touching half-open windows on one controller are fine too.
  plan.controller_outages[1].controller = 0;
  plan.controller_outages[1].begin = util::SimTime(100);
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(FaultPlanValidate, RejectsUnknownControllerAgainstTopology) {
  const auto net = mini_network(4, 2);  // 2 controllers
  FaultPlan plan;
  plan.controller_outages.push_back({7, util::SimTime(0), util::SimTime(10)});
  EXPECT_NO_THROW(validate_plan(plan));
  EXPECT_THROW(validate_plan(plan, &net), std::invalid_argument);
}

TEST(FaultPlanCanned, ControllerChurnStridesDisjointWindows) {
  const auto net = mini_network(4, 4);
  const util::SimTime begin(1000), end(1000 + 24 * 3600);
  const FaultPlan plan = canned_controller_churn_plan(net, begin, end);
  ASSERT_FALSE(plan.controller_outages.empty());
  for (const ControllerOutage& o : plan.controller_outages) {
    EXPECT_LT(o.controller, net.num_controllers());
    EXPECT_GE(o.begin, begin);
    EXPECT_LE(o.end, end);
    EXPECT_LT(o.begin, o.end);
  }
  // Staggered starts never go backwards, and validate_plan accepted the
  // per-controller disjointness by construction.
  for (std::size_t i = 1; i < plan.controller_outages.size(); ++i) {
    EXPECT_LE(plan.controller_outages[i - 1].begin,
              plan.controller_outages[i].begin);
  }
  EXPECT_NO_THROW(validate_plan(plan, &net));
}

TEST(FaultPlanParse, ControllerLossRoundTrips) {
  const std::string text =
      "s3fault v1\n"
      "controller-loss 1 500 900\n"
      "controller-outage 1 100 200\n";
  const FaultPlanParseResult r = parse_fault_plan(text);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.plan.controller_losses.size(), 1u);
  EXPECT_EQ(r.plan.controller_losses[0].controller, 1u);
  EXPECT_EQ(r.plan.controller_losses[0].begin.seconds(), 500);
  EXPECT_EQ(r.plan.controller_losses[0].end.seconds(), 900);
  EXPECT_FALSE(r.plan.empty());

  const FaultPlanParseResult again = parse_fault_plan(write_fault_plan(r.plan));
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_EQ(again.plan.controller_losses.size(), 1u);
  EXPECT_EQ(again.plan.controller_losses[0].end.seconds(), 900);

  EXPECT_FALSE(parse_fault_plan("s3fault v1\ncontroller-loss 0 100\n").ok());
  EXPECT_FALSE(
      parse_fault_plan("s3fault v1\ncontroller-loss 0 200 100\n").ok());
}

TEST(FaultPlanValidate, RejectsLossOverlappingLossOrOutage) {
  // A loss window overlapping another loss — or an outage — of the same
  // controller is nonsensical: the replica set cannot die twice at once.
  FaultPlan plan;
  plan.controller_losses.push_back({0, util::SimTime(0), util::SimTime(100)});
  plan.controller_losses.push_back({0, util::SimTime(50), util::SimTime(150)});
  EXPECT_THROW(validate_plan(plan), std::invalid_argument);

  plan.controller_losses.pop_back();
  plan.controller_outages.push_back({0, util::SimTime(50), util::SimTime(150)});
  EXPECT_THROW(validate_plan(plan), std::invalid_argument);

  // Different controllers, or touching half-open windows, are fine.
  plan.controller_outages[0].controller = 1;
  EXPECT_NO_THROW(validate_plan(plan));
  plan.controller_outages[0].controller = 0;
  plan.controller_outages[0].begin = util::SimTime(100);
  EXPECT_NO_THROW(validate_plan(plan));

  const auto net = mini_network(4, 2);
  plan.controller_losses[0].controller = 9;
  EXPECT_THROW(validate_plan(plan, &net), std::invalid_argument);
}

// Every controller window is checked for emptiness before any is
// compared with its neighbour, so a plan holding both an empty window
// and an overlap is always refused as empty, whatever order the sort
// leaves tied windows in.
TEST(FaultPlanValidate, EmptyControllerWindowIsReportedBeforeAnOverlap) {
  FaultPlan plan;
  plan.controller_outages.push_back({0, util::SimTime(0), util::SimTime(10)});
  plan.controller_outages.push_back({0, util::SimTime(5), util::SimTime(8)});
  plan.controller_outages.push_back({0, util::SimTime(5), util::SimTime(5)});
  try {
    validate_plan(plan);
    ADD_FAILURE() << "plan with an empty window accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }
  plan.controller_outages.pop_back();
  try {
    validate_plan(plan);
    ADD_FAILURE() << "overlapping windows accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanCanned, ControllerLossStaggersDisjointWindows) {
  const auto net = mini_network(4, 3);
  const util::SimTime begin(0), end(24 * 3600);
  const FaultPlan plan = canned_controller_loss_plan(net, begin, end);
  ASSERT_FALSE(plan.controller_losses.empty());
  EXPECT_LE(plan.controller_losses.size(), net.num_controllers());
  for (const ControllerLoss& o : plan.controller_losses) {
    EXPECT_LT(o.controller, net.num_controllers());
    EXPECT_GE(o.begin, begin);
    EXPECT_LE(o.end, end);
    EXPECT_LT(o.begin, o.end);
  }
  // Windows never overlap *across* controllers either, so an alive
  // neighbor (the adopter) always exists.
  for (std::size_t i = 1; i < plan.controller_losses.size(); ++i) {
    EXPECT_LE(plan.controller_losses[i - 1].end,
              plan.controller_losses[i].begin);
  }
  EXPECT_NO_THROW(validate_plan(plan, &net));
}

TEST(FaultPlanCanned, ModelOutageCoversTheMiddleThird) {
  const FaultPlan plan =
      canned_model_outage_plan(util::SimTime(0), util::SimTime(900));
  ASSERT_EQ(plan.model_outages.size(), 1u);
  EXPECT_EQ(plan.model_outages[0].begin.seconds(), 300);
  EXPECT_EQ(plan.model_outages[0].end.seconds(), 600);
}

TEST(FaultPlanCanned, AdmissionStormPairsFailuresWithASqueeze) {
  const FaultPlan plan =
      canned_admission_storm_plan(util::SimTime(0), util::SimTime(1000));
  EXPECT_DOUBLE_EQ(plan.admission.failure_probability, 0.3);
  ASSERT_EQ(plan.clique_squeezes.size(), 1u);
  EXPECT_EQ(plan.clique_squeezes[0].begin, plan.admission.begin);
  EXPECT_EQ(plan.clique_squeezes[0].end, plan.admission.end);
}

}  // namespace
}  // namespace s3::fault
