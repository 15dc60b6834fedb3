// Clique hot-path bench — the serve `social` cover on a trained campus.
//
// CliqueMaintainer keeps the clique cover of the θ > 0.3 graph that the
// serve `social` verb reports. On a campus that graph is one giant
// component plus a few isolated users (DESIGN.md §16), so every edge
// change re-solves nearly the whole cover. This bench generates a
// campus (bench::make_world), collects its LLF training logs
// (bench::collected_trace), trains a SocialIndexModel on them, and
// times
//
//   reset_from   mirroring the model's strict-threshold edge set
//   first cover  the first cover() over that mirror
//   re-solves    --rounds rounds of one seeded re-weight of a random
//                edge followed by cover()
//
// The final cover must equal the cover of a freshly seeded maintainer
// given the same re-weights, bit for bit; the bench exits 1 otherwise.
// Results go to BENCH_clique.json: the times and the first cover's
// shape and digest (a changed digest is a changed cover).
// `--scale full` is the paper-scale campus of ROADMAP item 4's ≤ 2 s
// goal.
//
// Extra flags on top of the common bench set:
//   --quick      3 re-solve rounds (CI smoke; the default scale is small)
//   --out FILE   JSON destination (default BENCH_clique.json)
//   --rounds N   timed re-solve rounds (default 10; quick: 3)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "s3/social/clique_maintainer.h"
#include "s3/util/rng.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over every clique's size and members, in cover order.
std::uint64_t cover_digest(const social::CliqueCoverResult& cover) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const std::vector<std::size_t>& clique : cover.cliques) {
    mix(clique.size());
    for (const std::size_t v : clique) mix(v);
  }
  return h;
}

bool same_cover(const social::CliqueCoverResult& a,
                const social::CliqueCoverResult& b) {
  return a.cliques == b.cliques && a.exact == b.exact &&
         a.nodes_explored == b.nodes_explored;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kExtra[] = {
      {"quick", util::ArgKind::kFlag, "3 re-solve rounds"},
      {"out", util::ArgKind::kString, "JSON output (BENCH_clique.json)"},
      {"rounds", util::ArgKind::kInt, "timed re-solve rounds (default 10)"},
  };
  const util::ParsedArgs raw = bench::parse_raw_args(argc, argv, kExtra);
  const bench::BenchArgs args = bench::common_args(raw);
  const bool quick = raw.has("quick");
  const std::string out_path = raw.get("out", "BENCH_clique.json");
  const std::size_t rounds =
      static_cast<std::size_t>(raw.num("rounds", quick ? 3 : 10));

  const trace::GeneratedTrace world = bench::make_world(args);
  const core::EvaluationConfig eval = bench::evaluation_config(args);
  const trace::Trace training = world.workload.slice(
      util::SimTime::from_days(0), util::SimTime::from_days(eval.train_days));
  const social::SocialIndexModel model = social::SocialIndexModel::train(
      bench::collected_trace(world.network, training, eval), eval.social);

  social::CliqueMaintainerConfig config;
  config.theta_threshold = eval.s3.theta_threshold;
  config.clique = eval.s3.clique;
  social::CliqueMaintainer m(0, config);
  const auto t_reset = std::chrono::steady_clock::now();
  m.reset_from(model);
  const double reset_s = seconds_since(t_reset);
  if (m.num_edges() == 0) {
    std::cerr << "FAIL: the trained θ graph has no edge above "
              << config.theta_threshold << "\n";
    return 1;
  }

  const auto t_first = std::chrono::steady_clock::now();
  const social::CliqueCoverResult first = m.cover();
  const double first_cover_s = seconds_since(t_first);
  const std::uint64_t components = m.stats().components_solved;

  // The re-weighted edges are drawn from the seeded mirror; each keeps
  // its edge (θ stays above the threshold) but changes its weight.
  std::vector<std::pair<UserId, UserId>> edges;
  edges.reserve(m.num_edges());
  for (UserId u = 0; u < m.num_users(); ++u) {
    for (const social::Neighbor& nb : m.neighbors(u)) {
      if (nb.id > u) edges.emplace_back(u, nb.id);
    }
  }
  util::Rng rng(args.seed);
  std::vector<std::tuple<UserId, UserId, double>> reweights;
  std::vector<double> resolve_s;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto [u, v] = edges[rng.index(edges.size())];
    const double theta = rng.uniform(0.35, 1.0);
    reweights.emplace_back(u, v, theta);
    m.set_theta(u, v, theta);
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t cliques = m.cover().cliques.size();
    resolve_s.push_back(seconds_since(t0));
    std::cerr << "round " << r << ": " << util::fmt(resolve_s.back(), 3)
              << " s, " << cliques << " cover entries\n";
  }

  social::CliqueMaintainer fresh(0, config);
  fresh.reset_from(model);
  for (const auto& [u, v, theta] : reweights) fresh.set_theta(u, v, theta);
  if (!same_cover(m.cover(), fresh.cover())) {
    std::cerr << "FAIL: the maintained cover differs from a freshly seeded "
                 "maintainer's\n";
    return 1;
  }

  std::size_t multi = 0;
  std::size_t largest = 0;
  for (const std::vector<std::size_t>& clique : first.cliques) {
    largest = std::max(largest, clique.size());
    if (clique.size() > 1) ++multi;
  }
  std::vector<double> sorted = resolve_s;
  std::sort(sorted.begin(), sorted.end());
  const double resolve_median =
      sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(cover_digest(first)));

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"clique_hotpath\",\n"
       << "  \"scale\": \"" << args.scale << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"num_users\": " << m.num_users() << ",\n"
       << "  \"num_edges\": " << m.num_edges() << ",\n"
       << "  \"components\": " << components << ",\n"
       << "  \"reset_from_s\": " << util::fmt(reset_s, 4) << ",\n"
       << "  \"first_cover_s\": " << util::fmt(first_cover_s, 4) << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"resolve_s_min\": "
       << util::fmt(sorted.empty() ? 0.0 : sorted.front(), 4) << ",\n"
       << "  \"resolve_s_median\": " << util::fmt(resolve_median, 4) << ",\n"
       << "  \"resolve_s_max\": "
       << util::fmt(sorted.empty() ? 0.0 : sorted.back(), 4) << ",\n"
       << "  \"cover\": {\n"
       << "    \"cliques\": " << multi << ",\n"
       << "    \"singletons\": " << first.cliques.size() - multi << ",\n"
       << "    \"largest\": " << largest << ",\n"
       << "    \"exact\": " << (first.exact ? "true" : "false") << ",\n"
       << "    \"nodes_explored\": " << first.nodes_explored << ",\n"
       << "    \"digest\": \"" << digest << "\"\n"
       << "  }\n"
       << "}\n";
  std::cout << "graph: " << m.num_users() << " users, " << m.num_edges()
            << " edges, " << components << " components\n"
            << "reset_from " << util::fmt(reset_s, 3) << " s, first cover "
            << util::fmt(first_cover_s, 3) << " s (" << multi
            << " cliques, largest " << largest << ", digest " << digest
            << "), re-solve median " << util::fmt(resolve_median, 3)
            << " s over " << rounds << " rounds\n"
            << "wrote " << out_path << "\n";
  bench::maybe_dump_metrics(args);
  return 0;
}
