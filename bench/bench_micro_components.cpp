// Micro-benchmarks (google-benchmark) for the hot components:
// Östergård's clique solver, clique cover, k-means, the balance-index
// kernel, pairwise event extraction and full trace replay.

#include <benchmark/benchmark.h>

#include "s3/analysis/balance.h"
#include "s3/analysis/events.h"
#include "s3/cluster/kmeans.h"
#include "s3/core/baselines.h"
#include "s3/core/evaluation.h"
#include "s3/core/s3_selector.h"
#include "s3/core/selector_factory.h"
#include "s3/runtime/replay_driver.h"
#include "s3/sim/replay.h"
#include "s3/social/clique.h"
#include "s3/trace/generator.h"
#include "s3/util/rng.h"

namespace {

using namespace s3;

social::WeightedGraph random_graph(std::size_t n, double p,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  social::WeightedGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) g.add_edge(i, j, rng.uniform(0.1, 1.0));
    }
  }
  return g;
}

void BM_MaxClique(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  const social::WeightedGraph g = random_graph(n, p, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(social::max_clique(g));
  }
  state.SetLabel("n=" + std::to_string(n) + " p=0." +
                 std::to_string(state.range(1)));
}
BENCHMARK(BM_MaxClique)
    ->Args({16, 30})
    ->Args({32, 30})
    ->Args({64, 30})
    ->Args({32, 60})
    ->Args({64, 60});

void BM_CliqueCover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const social::WeightedGraph g = random_graph(n, 0.3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(social::clique_cover(g));
  }
}
BENCHMARK(BM_CliqueCover)->Arg(16)->Arg(32)->Arg(64);

void BM_KMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  cluster::Dataset d;
  d.dim = 6;
  d.num_points = n;
  for (std::size_t i = 0; i < n * 6; ++i) {
    d.values.push_back(rng.uniform(0.0, 1.0));
  }
  cluster::KMeansConfig cfg;
  cfg.k = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans(d, cfg));
  }
}
BENCHMARK(BM_KMeans)->Arg(500)->Arg(2000)->Arg(10000);

void BM_BalanceIndex(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> loads(static_cast<std::size_t>(state.range(0)));
  for (double& v : loads) v = rng.uniform(0.0, 20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::normalized_balance_index(loads));
  }
}
BENCHMARK(BM_BalanceIndex)->Arg(15)->Arg(334);

const trace::GeneratedTrace& bench_world() {
  static const trace::GeneratedTrace world = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 9;
    cfg.num_users = 600;
    cfg.num_days = 4;
    cfg.layout.num_buildings = 2;
    cfg.layout.aps_per_building = 8;
    return trace::generate_campus_trace(cfg);
  }();
  return world;
}

void BM_GenerateTrace(benchmark::State& state) {
  trace::GeneratorConfig cfg;
  cfg.seed = 1;
  cfg.num_users = static_cast<std::size_t>(state.range(0));
  cfg.num_days = 4;
  cfg.layout.num_buildings = 2;
  cfg.layout.aps_per_building = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_campus_trace(cfg));
  }
}
BENCHMARK(BM_GenerateTrace)->Arg(300)->Arg(1200)->Unit(benchmark::kMillisecond);

void BM_ReplayLlf(benchmark::State& state) {
  const trace::GeneratedTrace& world = bench_world();
  for (auto _ : state) {
    core::LlfSelector llf;
    benchmark::DoNotOptimize(
        sim::replay(world.network, world.workload, llf));
  }
  state.counters["sessions/s"] = benchmark::Counter(
      static_cast<double>(world.workload.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayLlf)->Unit(benchmark::kMillisecond);

void BM_ReplayLlfSharded(benchmark::State& state) {
  const trace::GeneratedTrace& world = bench_world();
  const core::LlfFactory llf;
  runtime::ReplayDriverConfig rc;
  rc.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    runtime::ReplayDriver driver(world.network, rc);
    benchmark::DoNotOptimize(driver.run(world.workload, llf));
  }
  state.counters["sessions/s"] = benchmark::Counter(
      static_cast<double>(world.workload.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayLlfSharded)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_ReplayS3(benchmark::State& state) {
  const trace::GeneratedTrace& world = bench_world();
  core::EvaluationConfig eval;
  eval.train_days = 3;
  eval.test_days = 1;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  const trace::Trace test = world.workload.slice(
      util::SimTime::from_days(3), util::SimTime::from_days(4));
  for (auto _ : state) {
    core::S3Selector s3(&world.network, &model, eval.s3);
    benchmark::DoNotOptimize(sim::replay(world.network, test, s3,
                                         eval.replay));
  }
  state.counters["sessions/s"] = benchmark::Counter(
      static_cast<double>(test.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayS3)->Unit(benchmark::kMillisecond);

void BM_ExtractPairStats(benchmark::State& state) {
  const trace::GeneratedTrace& world = bench_world();
  core::LlfSelector llf;
  const sim::ReplayResult r = sim::replay(world.network, world.workload, llf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::extract_pair_stats(r.assigned, {}));
  }
}
BENCHMARK(BM_ExtractPairStats)->Unit(benchmark::kMillisecond);

void BM_TrainSocialModel(benchmark::State& state) {
  const trace::GeneratedTrace& world = bench_world();
  core::LlfSelector llf;
  const sim::ReplayResult r = sim::replay(world.network, world.workload, llf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(social::SocialIndexModel::train(r.assigned, {}));
  }
}
BENCHMARK(BM_TrainSocialModel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
