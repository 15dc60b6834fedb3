#include "s3/core/rebalancer.h"

#include <gtest/gtest.h>

#include "s3/analysis/balance.h"
#include "s3/util/stats.h"
#include "s3/trace/generator.h"
#include "testing/mini.h"

namespace s3::core {
namespace {

using s3::testing::SessionSpec;
using s3::testing::make_trace;
using s3::testing::mini_network;

TEST(Rebalancer, ValidatesConfig) {
  const auto net = mini_network(2);
  const auto t = make_trace(1, {SessionSpec{}});
  RebalancerConfig bad;
  bad.sweep_period_s = 0;
  EXPECT_THROW(simulate_with_migration(net, t, bad), std::invalid_argument);
  bad = RebalancerConfig{};
  bad.slot_s = 0;
  EXPECT_THROW(simulate_with_migration(net, t, bad), std::invalid_argument);
}

TEST(Rebalancer, NoMigrationWhenBalanced) {
  const auto net = mini_network(2);
  // Two equal users on two APs via LLF: nothing to migrate.
  const auto t = make_trace(2, {
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 3600},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 3600},
  });
  RebalancerConfig cfg;
  cfg.radio.association_threshold_dbm = -75.0;  // both APs audible
  const RebalanceResult r = simulate_with_migration(net, t, cfg);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.disrupted_session_fraction, 0.0);
}

TEST(Rebalancer, MigratesAfterCoLeaving) {
  // Four users land on AP pair; two leave together from one AP later a
  // heavy user remains concentrated: the sweep should move load.
  const auto net = mini_network(2);
  const auto t = make_trace(4, {
      // Two long-stay users with unequal demands.
      SessionSpec{.user = 0, .connect_s = 0, .disconnect_s = 7200,
                  .demand_mbps = 4.0},
      SessionSpec{.user = 1, .connect_s = 0, .disconnect_s = 7200,
                  .demand_mbps = 4.0},
      // A later arrival that unbalances whatever AP it joins after the
      // early leaver departs.
      SessionSpec{.user = 2, .connect_s = 10, .disconnect_s = 1200,
                  .demand_mbps = 4.0},
      SessionSpec{.user = 3, .connect_s = 20, .disconnect_s = 7200,
                  .demand_mbps = 8.0},
  });
  RebalancerConfig cfg;
  cfg.sweep_period_s = 600;
  cfg.radio.association_threshold_dbm = -75.0;
  const RebalanceResult r = simulate_with_migration(net, t, cfg);
  // After user 2 leaves at t=1200, loads are uneven (8 vs 4 or worse);
  // a sweep must fire at least one migration.
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.disrupted_session_fraction, 0.0);
}

TEST(Rebalancer, DisruptionLedgerConsistent) {
  trace::GeneratorConfig cfg;
  cfg.seed = 12;
  cfg.num_users = 200;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  RebalancerConfig rc;
  const RebalanceResult r = simulate_with_migration(g.network, g.workload, rc);
  std::size_t ledger = 0;
  for (std::uint32_t d : r.disruptions_per_user) ledger += d;
  EXPECT_EQ(ledger, r.migrations);
  EXPECT_GE(r.disrupted_session_fraction, 0.0);
  EXPECT_LE(r.disrupted_session_fraction, 1.0);
}

TEST(Rebalancer, BetterBalanceThanPlainLlfButDisruptive) {
  // The paper's §I claim: online rebalancing achieves better balance at
  // the cost of constant disruptions.
  trace::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.num_users = 400;
  cfg.num_days = 3;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 6;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);

  RebalancerConfig with_migration;
  const RebalanceResult mig =
      simulate_with_migration(g.network, g.workload, with_migration);

  RebalancerConfig without = with_migration;
  without.max_migrations_per_sweep = 0;  // plain LLF arrivals only
  const RebalanceResult plain =
      simulate_with_migration(g.network, g.workload, without);
  EXPECT_EQ(plain.migrations, 0u);

  auto mean_beta = [&](const RebalanceResult& r) {
    util::RunningStats stats;
    for (ControllerId c = 0; c < g.network.num_controllers(); ++c) {
      const std::size_t width = g.network.aps_of_controller(c).size();
      for (std::size_t slot = 0; slot < r.num_slots; ++slot) {
        const auto loads = r.loads(c, slot, width);
        double total = 0.0;
        for (double v : loads) total += v;
        if (total < 5.0) continue;
        stats.add(analysis::normalized_balance_index(loads));
      }
    }
    return stats.mean();
  };
  EXPECT_GT(mean_beta(mig), mean_beta(plain));
  EXPECT_GT(mig.migrations, 50u);  // "constant disruptions"
}

TEST(Rebalancer, SlotLoadsMatchDemandIntegral) {
  const auto net = mini_network(1);
  const auto t = make_trace(1, {SessionSpec{.connect_s = 0,
                                            .disconnect_s = 1200,
                                            .demand_mbps = 3.0}});
  RebalancerConfig cfg;
  cfg.slot_s = 600;
  const RebalanceResult r = simulate_with_migration(net, t, cfg);
  ASSERT_GE(r.num_slots, 2u);
  EXPECT_NEAR(r.loads(0, 0, 1)[0], 3.0, 1e-9);
  EXPECT_NEAR(r.loads(0, 1, 1)[0], 3.0, 1e-9);
}

}  // namespace
}  // namespace s3::core
