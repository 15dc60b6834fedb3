// Live-pipeline throughput bench — the concurrency claim, measured.
//
// Trains a model on a generated campus, then hammers one shared
// ServePipeline from T worker threads. Every worker keeps a sliding
// window of active sessions in its own id space: each iteration places
// one arrival and departs its oldest session once the window is full,
// so the run continuously exercises placement, the load tracker, the
// degradation path and the live encounter/co-leave writes into each
// domain's learner. Workers hit random domains, so they contend on the
// domain locks under which every S3 placement reads its domain's θ
// rows and every departure writes them.
//
// For each thread count (default 1, 8, 32) the bench reports p50 /
// p95 / p99 ns per placement (measured per call, merged across
// workers) and aggregate placements/s, to BENCH_serve.json. The
// scaling ratio placements/s(8) ÷ placements/s(1) is the headline:
// it can only materialize on a machine that has the cores, so the
// JSON also records hardware_concurrency — read single-core numbers
// accordingly.
//
// Extra flags on top of the common bench set:
//   --quick           small workload + short loops (CI smoke)
//   --out FILE        JSON destination (default BENCH_serve.json)
//   --ops N           placements per worker thread (default 20000,
//                     quick 4000)
//   --min-scaling X   exit 1 if placements/s at 8 threads is below
//                     X * placements/s at 1 thread (skipped — with a
//                     warning — when the host has fewer than 8 cores)

#include <algorithm>
#include <chrono>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Exact quantile over the merged per-placement samples (ns). The
/// bench owns every sample, so no histogram approximation is needed.
double quantile_ns(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

struct RunResult {
  unsigned threads = 0;
  std::uint64_t placements = 0;
  double seconds = 0.0;
  double placements_per_s = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
};

/// One full pipeline run at `threads` workers. A fresh pipeline per
/// run keeps the live store comparable across thread counts.
RunResult run_at(const wlan::Network& net,
                 const social::SocialIndexModel& model, std::size_t num_users,
                 unsigned threads, std::size_t ops_per_thread,
                 std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.policy = "s3";
  serve::ServePipeline pipeline(&net, &model, cfg);

  constexpr std::size_t kWindow = 32;  // active sessions per worker
  std::vector<std::vector<double>> samples(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + t);
      std::uniform_int_distribution<UserId> pick_user(
          0, static_cast<UserId>(num_users - 1));
      std::uniform_int_distribution<BuildingId> pick_building(
          0, static_cast<BuildingId>(net.num_buildings() - 1));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::vector<double>& lat = samples[t];
      lat.reserve(ops_per_thread);
      std::vector<std::uint64_t> window;
      window.reserve(kWindow);
      std::uint64_t next_id = (static_cast<std::uint64_t>(t) + 1) << 32;
      // Sim time marches one minute per op so sliding-window sessions
      // overlap long enough to register as encounters.
      std::int64_t now_s = 0;
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const BuildingId b = pick_building(rng);
        const wlan::BuildingConfig& bc = net.building(b);
        serve::PlaceRequest req;
        req.id = next_id++;
        req.user = pick_user(rng);
        req.building = b;
        req.pos = {bc.origin.x + unit(rng) * bc.width_m,
                   bc.origin.y + unit(rng) * bc.depth_m};
        req.when = util::SimTime::from_seconds(now_s);
        req.demand_mbps = 1.0 + unit(rng);
        const auto p0 = std::chrono::steady_clock::now();
        const serve::PlaceResult r = pipeline.place(req);
        lat.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - p0)
                .count()));
        if (r.placed) window.push_back(req.id);
        if (window.size() >= kWindow) {
          pipeline.depart(window.front(),
                          util::SimTime::from_seconds(now_s));
          window.erase(window.begin());
        }
        now_s += 60;
      }
      for (const std::uint64_t id : window) {
        pipeline.depart(id, util::SimTime::from_seconds(now_s));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed = seconds_since(t0);

  std::vector<double> merged;
  for (std::vector<double>& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());

  RunResult r;
  r.threads = threads;
  r.placements = pipeline.stats().placements;
  r.seconds = elapsed;
  r.placements_per_s =
      elapsed > 0 ? static_cast<double>(r.placements) / elapsed : 0.0;
  r.p50_ns = quantile_ns(merged, 50.0);
  r.p95_ns = quantile_ns(merged, 95.0);
  r.p99_ns = quantile_ns(merged, 99.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kExtra[] = {
      {"quick", util::ArgKind::kFlag, "small workload, short loops"},
      {"out", util::ArgKind::kString, "JSON output (BENCH_serve.json)"},
      {"ops", util::ArgKind::kInt, "placements per worker thread"},
      {"min-scaling", util::ArgKind::kReal,
       "fail if tput(8 threads)/tput(1 thread) drops below this"},
  };
  const util::ParsedArgs raw = bench::parse_raw_args(argc, argv, kExtra);
  const bench::BenchArgs args = bench::common_args(raw);
  const bool quick = raw.has("quick");
  const std::string out_path = raw.get("out", "BENCH_serve.json");
  const std::size_t ops = static_cast<std::size_t>(
      raw.num("ops", quick ? 4000 : 20000));
  const double min_scaling = raw.real("min-scaling", 0.0);
  const unsigned hw = std::thread::hardware_concurrency();

  trace::GeneratorConfig cfg = bench::generator_config(args);
  core::EvaluationConfig eval = bench::evaluation_config(args);
  if (quick) {
    cfg.num_users = 1200;
    cfg.num_days = 8;
    cfg.layout.num_buildings = 4;
    eval.train_days = 7;
    eval.test_days = 1;
  }
  std::cerr << "generating workload: " << cfg.num_users << " users, "
            << cfg.layout.num_buildings << " buildings, " << cfg.num_days
            << " days (seed " << cfg.seed << ")\n";
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);
  std::cerr << "trained: " << model.pair_stats().size() << " pairs ("
            << hw << " hardware threads)\n";

  const unsigned sweep[] = {1, 8, 32};
  std::vector<RunResult> results;
  for (const unsigned t : sweep) {
    RunResult r = run_at(world.network, model, cfg.num_users, t, ops,
                         args.seed);
    std::cout << t << " threads: "
              << util::fmt(r.placements_per_s / 1e3, 1) << " K placements/s"
              << "  p50 " << util::fmt(r.p50_ns, 0) << " ns  p95 "
              << util::fmt(r.p95_ns, 0) << " ns  p99 "
              << util::fmt(r.p99_ns, 0) << " ns (" << r.placements
              << " placements)\n";
    results.push_back(r);
  }
  const double scaling_8x =
      results[0].placements_per_s > 0
          ? results[1].placements_per_s / results[0].placements_per_s
          : 0.0;

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"scale\": \"" << args.scale << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"num_users\": " << cfg.num_users << ",\n"
       << "  \"ops_per_thread\": " << ops << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"threads\": " << r.threads
         << ", \"placements\": " << r.placements
         << ", \"seconds\": " << util::fmt(r.seconds, 4)
         << ", \"placements_per_s\": " << util::fmt(r.placements_per_s, 0)
         << ", \"p50_ns\": " << util::fmt(r.p50_ns, 0)
         << ", \"p95_ns\": " << util::fmt(r.p95_ns, 0)
         << ", \"p99_ns\": " << util::fmt(r.p99_ns, 0) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"scaling_8_over_1\": " << util::fmt(scaling_8x, 3) << "\n"
       << "}\n";
  std::cout << "scaling 8/1 threads: " << util::fmt(scaling_8x, 2) << "x\n"
            << "wrote " << out_path << "\n";
  bench::maybe_dump_metrics(args);

  if (min_scaling > 0.0) {
    if (hw < 8) {
      std::cerr << "WARN: --min-scaling skipped, host has only " << hw
                << " hardware threads\n";
    } else if (scaling_8x < min_scaling) {
      std::cerr << "FAIL: 8-thread scaling " << util::fmt(scaling_8x, 3)
                << " < required " << util::fmt(min_scaling, 3) << "\n";
      return 1;
    }
  }
  return 0;
}
