// Clique hot-path microbench — the incremental-maintenance speedup
// claim, measured.
//
// CliqueMaintainer keeps the clique cover of the θ > 0.3 graph that the
// serve `social` verb reports (S3 placement builds its batch graphs
// from θ probes and never reads it), and between two cover queries
// churn touches only a few pairs. This bench builds a campus-scale
// community universe (communities of 8, the paper's typical
// close-relation group size), then times rounds of
//
//   churn  — a seeded batch of θ re-writes (inserts, deletes,
//            re-weights) touching a few percent of the population
//   select — obtaining the current cover, two ways:
//              from_scratch   CliqueMaintainer::solve_from_scratch()
//                             (rediscover components, re-solve all)
//              incremental    CliqueMaintainer::cover() (re-solve only
//                             components the churn made dirty)
//
// Both modes apply bit-identical churn streams and the bench asserts
// the covers agree bitwise at every sweep's end — the differential
// guarantee the randomized test suite enforces, re-checked here on the
// benchmark universe.
//
// Results go to BENCH_clique.json (selections/s per churn level,
// speedup, maintainer telemetry) so CI can archive the numbers and
// fail the build if the incremental path ever loses its edge
// (--min-speedup, gated on the *worst* swept churn level; the
// acceptance bar for this repo is 3.0 at 5% churn, 10k users).
//
// Extra flags on top of the common bench set:
//   --quick           small universe + short loops (CI smoke)
//   --out FILE        JSON destination (default BENCH_clique.json)
//   --min-speedup X   exit 1 if min speedup over churn levels < X
//   --users N         population size (default 10000; quick: 2000)
//   --rounds N        timed rounds per mode per churn level (default 40)

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "s3/social/clique_maintainer.h"
#include "s3/util/rng.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr std::size_t kCommunity = 8;

/// One θ re-write: pair plus its new value.
struct ChurnEvent {
  UserId u;
  UserId v;
  double theta;
};

/// Seeds every intra-community pair above the threshold: the steady
/// state is one 8-clique per community, the dense-relation regime the
/// paper's clique machinery exists for.
void seed_universe(social::CliqueMaintainer& m, std::size_t users,
                   util::Rng& rng) {
  for (std::size_t base = 0; base + kCommunity <= users; base += kCommunity) {
    for (std::size_t i = 0; i < kCommunity; ++i) {
      for (std::size_t j = i + 1; j < kCommunity; ++j) {
        m.set_theta(static_cast<UserId>(base + i),
                    static_cast<UserId>(base + j), rng.uniform(0.35, 0.9));
      }
    }
  }
}

/// A churn batch in which ~`pct`% of the population sees its social
/// row change: each event re-writes one intra-community pair to a θ
/// drawn across the threshold, so edges appear, vanish, and re-weight
/// — dirtying the touched community's component and nothing else. A
/// pair re-write churns exactly two users, hence events = users·pct/200.
std::vector<ChurnEvent> make_churn(std::size_t users, double pct,
                                   util::Rng& rng) {
  const std::size_t communities = users / kCommunity;
  const std::size_t events = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(users) * pct / 200.0));
  std::vector<ChurnEvent> out;
  out.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    const std::size_t c = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(communities) - 1));
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kCommunity) - 1));
    std::size_t j;
    do {
      j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kCommunity) - 1));
    } while (j == i);
    out.push_back(ChurnEvent{static_cast<UserId>(c * kCommunity + i),
                             static_cast<UserId>(c * kCommunity + j),
                             rng.uniform(0.2, 0.9)});
  }
  return out;
}

struct ModeTiming {
  double selections_per_s = 0.0;
  double ms_per_selection = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kExtra[] = {
      {"quick", util::ArgKind::kFlag, "small universe, short loops"},
      {"out", util::ArgKind::kString, "JSON output (BENCH_clique.json)"},
      {"min-speedup", util::ArgKind::kReal,
       "fail if the worst churn level's speedup drops below this"},
      {"users", util::ArgKind::kInt, "population size (default 10000)"},
      {"rounds", util::ArgKind::kInt, "timed rounds per mode (default 40)"},
  };
  const util::ParsedArgs raw = bench::parse_raw_args(argc, argv, kExtra);
  const bool quick = raw.has("quick");
  const std::string out_path = raw.get("out", "BENCH_clique.json");
  const double min_speedup = raw.real("min-speedup", 0.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(raw.num("seed", 42));
  const std::size_t users = static_cast<std::size_t>(
      raw.num("users", quick ? 2000 : 10000));
  const std::size_t rounds =
      static_cast<std::size_t>(raw.num("rounds", quick ? 15 : 40));
  const std::vector<double> churn_levels = {1.0, 2.0, 5.0};

  std::cerr << "universe: " << users << " users, " << users / kCommunity
            << " communities of " << kCommunity << " (seed " << seed
            << ")\n";

  struct LevelResult {
    double churn_pct = 0.0;
    std::size_t churn_events = 0;
    ModeTiming scratch;
    ModeTiming incremental;
    double speedup = 0.0;
    std::uint64_t components_solved = 0;
    std::uint64_t components_reused = 0;
  };
  std::vector<LevelResult> results;

  for (const double pct : churn_levels) {
    // Identical universes and churn streams for both modes: only the
    // cover-maintenance strategy differs.
    util::Rng seed_rng(seed);
    social::CliqueMaintainer scratch_m(users);
    seed_universe(scratch_m, users, seed_rng);
    util::Rng seed_rng2(seed);
    social::CliqueMaintainer inc_m(users);
    seed_universe(inc_m, users, seed_rng2);

    util::Rng churn_rng(seed + 1);
    std::vector<std::vector<ChurnEvent>> batches(rounds);
    for (std::vector<ChurnEvent>& b : batches) {
      b = make_churn(users, pct, churn_rng);
    }

    // Warm both caches so round 0 is steady-state, not the seed solve.
    do_not_optimize(scratch_m.cover().cliques.size());
    do_not_optimize(inc_m.cover().cliques.size());

    const auto t_scratch = std::chrono::steady_clock::now();
    for (const std::vector<ChurnEvent>& batch : batches) {
      for (const ChurnEvent& e : batch) {
        scratch_m.set_theta(e.u, e.v, e.theta);
      }
      const social::CliqueCoverResult cover = scratch_m.solve_from_scratch();
      do_not_optimize(cover.cliques.size());
    }
    const double scratch_s = seconds_since(t_scratch);

    const std::uint64_t solved_before = inc_m.stats().components_solved;
    const std::uint64_t reused_before = inc_m.stats().components_reused;
    const auto t_inc = std::chrono::steady_clock::now();
    for (const std::vector<ChurnEvent>& batch : batches) {
      for (const ChurnEvent& e : batch) {
        inc_m.set_theta(e.u, e.v, e.theta);
      }
      do_not_optimize(inc_m.cover().cliques.size());
    }
    const double inc_s = seconds_since(t_inc);

    // Differential guarantee, re-checked on the benchmark universe.
    if (inc_m.cover().cliques != inc_m.solve_from_scratch().cliques) {
      std::cerr << "FAIL: incremental cover diverged from from-scratch at "
                << pct << "% churn\n";
      return 1;
    }

    LevelResult r;
    r.churn_pct = pct;
    r.churn_events = batches.front().size();
    r.scratch.selections_per_s = static_cast<double>(rounds) / scratch_s;
    r.scratch.ms_per_selection = scratch_s / static_cast<double>(rounds) * 1e3;
    r.incremental.selections_per_s = static_cast<double>(rounds) / inc_s;
    r.incremental.ms_per_selection = inc_s / static_cast<double>(rounds) * 1e3;
    r.speedup = r.incremental.selections_per_s / r.scratch.selections_per_s;
    r.components_solved = inc_m.stats().components_solved - solved_before;
    r.components_reused = inc_m.stats().components_reused - reused_before;
    results.push_back(r);

    std::cout << "churn " << util::fmt(pct, 1) << "% (" << r.churn_events
              << " events/round): scratch "
              << util::fmt(r.scratch.ms_per_selection, 3) << " ms  incremental "
              << util::fmt(r.incremental.ms_per_selection, 3)
              << " ms  speedup " << util::fmt(r.speedup, 2) << "x\n";
  }

  double worst = results.front().speedup;
  for (const LevelResult& r : results) worst = std::min(worst, r.speedup);

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"clique_hotpath\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"num_users\": " << users << ",\n"
       << "  \"community_size\": " << kCommunity << ",\n"
       << "  \"rounds_per_mode\": " << rounds << ",\n"
       << "  \"min_speedup\": " << util::fmt(worst, 3) << ",\n"
       << "  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    json << "    {\n"
         << "      \"churn_pct\": " << util::fmt(r.churn_pct, 1) << ",\n"
         << "      \"churn_events_per_round\": " << r.churn_events << ",\n"
         << "      \"scratch_selections_per_s\": "
         << util::fmt(r.scratch.selections_per_s, 2) << ",\n"
         << "      \"scratch_ms_per_selection\": "
         << util::fmt(r.scratch.ms_per_selection, 4) << ",\n"
         << "      \"incremental_selections_per_s\": "
         << util::fmt(r.incremental.selections_per_s, 2) << ",\n"
         << "      \"incremental_ms_per_selection\": "
         << util::fmt(r.incremental.ms_per_selection, 4) << ",\n"
         << "      \"speedup\": " << util::fmt(r.speedup, 3) << ",\n"
         << "      \"components_solved\": " << r.components_solved << ",\n"
         << "      \"components_reused\": " << r.components_reused << "\n"
         << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::cout << "worst speedup over churn levels: " << util::fmt(worst, 2)
            << "x\nwrote " << out_path << "\n";

  if (min_speedup > 0.0 && worst < min_speedup) {
    std::cerr << "FAIL: incremental speedup " << util::fmt(worst, 3)
              << " < required " << util::fmt(min_speedup, 3) << "\n";
    return 1;
  }
  return 0;
}
