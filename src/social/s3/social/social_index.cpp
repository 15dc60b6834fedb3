#include "s3/social/social_index.h"

#include <algorithm>
#include <utility>

#include "s3/util/metrics.h"

namespace s3::social {

namespace {

struct ThetaMetrics {
  util::Counter* evals;        ///< θ(u,v) queries answered
  util::Counter* pair_lookups; ///< pair-history probes
  util::Counter* pair_hits;    ///< probes answered from learned pair stats
  util::Counter* row_calls;    ///< batched theta_row invocations
};

const ThetaMetrics& theta_metrics() {
  static const ThetaMetrics m{
      util::metrics().counter("social.theta_evals"),
      util::metrics().counter("social.pair_lookups"),
      util::metrics().counter("social.pair_hits"),
      util::metrics().counter("social.theta_row_calls"),
  };
  return m;
}

}  // namespace

void ThetaProvider::theta_row(UserId u, std::span<const UserId> vs,
                              std::span<double> out) const {
  S3_REQUIRE(out.size() >= vs.size(), "theta_row: output span too small");
  for (std::size_t i = 0; i < vs.size(); ++i) out[i] = theta(u, vs[i]);
}

ThetaDeltaPoll ThetaProvider::poll_theta_deltas(
    std::uint64_t cursor, std::vector<ThetaDelta>& out) const {
  (void)out;  // no feed: nothing to append
  const std::uint64_t now = read_epoch();
  return ThetaDeltaPoll{now, cursor == now};
}

SocialIndexModel SocialIndexModel::train(const trace::Trace& training,
                                         const SocialModelConfig& config) {
  S3_REQUIRE(training.fully_assigned(),
             "SocialIndexModel::train: training trace must be assigned");
  S3_REQUIRE(config.alpha >= 0.0, "SocialIndexModel::train: negative alpha");
  S3_REQUIRE(config.history_days >= 0,
             "SocialIndexModel::train: negative history");

  // Optionally restrict to the last `history_days` days of the trace
  // (Fig. 11's look-back sweep); otherwise learn from `training` itself.
  trace::Trace sliced;
  const trace::Trace* window = &training;
  if (config.history_days > 0) {
    const util::SimTime end = training.end_time();
    const util::SimTime begin =
        end - util::SimTime::from_days(config.history_days);
    sliced = training.slice(begin, end);
    window = &sliced;
  }

  SocialIndexModel model;
  model.config_ = config;
  model.config_.trained_end_s = training.end_time().seconds();
  {
    const std::vector<analysis::PairEventEntry> events =
        analysis::extract_pair_events(*window, config.events);
    PairStore::SortedBuilder builder(events.size(), window->num_users());
    for (const analysis::PairEventEntry& e : events) {
      builder.append(e.pair, e.stats);
    }
    model.stats_ = std::move(builder).finish();
  }

  const apps::ProfileStore profiles = analysis::build_profiles(*window);
  model.typing_ = cluster_users(profiles.normalized_profiles(), config.typing);
  model.matrix_ = estimate_type_matrix(model.typing_, model.stats_);
  model.finalize();
  return model;
}

double SocialIndexModel::co_leave_probability(UserId u, UserId v) const {
  if (u == v) return 0.0;
  const ThetaMetrics& m = theta_metrics();
  m.pair_lookups->add();
  const PairStore::Stats* stats = stats_.find(UserPair(u, v));
  if (stats == nullptr) return 0.0;
  if (stats->encounters < config_.min_encounters) return 0.0;
  m.pair_hits->add();
  return stats->co_leave_probability();
}

double SocialIndexModel::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
  S3_REQUIRE(u < num_users() && v < num_users(), "theta: user out of range");
  theta_metrics().evals->add();
  const double type_term =
      matrix_.num_types() > 0
          ? matrix_.at(typing_.type(u), typing_.type(v))
          : 0.0;
  return co_leave_probability(u, v) + config_.alpha * type_term;
}

void SocialIndexModel::theta_row(UserId u, std::span<const UserId> vs,
                                 std::span<double> out) const {
  S3_REQUIRE(out.size() >= vs.size(), "theta_row: output span too small");
  if (vs.empty()) return;
  S3_REQUIRE(u < num_users(), "theta_row: user out of range");
  const bool typed = matrix_.num_types() > 0;
  const std::size_t type_u = typed ? typing_.type(u) : 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  stats_.find_row(u, vs, [&](std::size_t i, const PairStore::Stats* stats) {
    const UserId v = vs[i];
    if (v == u) {
      out[i] = 0.0;
      return;
    }
    S3_REQUIRE(v < num_users(), "theta_row: user out of range");
    const double type_term = typed ? matrix_.at(type_u, typing_.type(v)) : 0.0;
    // Same expression shape as theta(): P + α·T, so the batched and
    // scalar paths agree bit for bit.
    double p = 0.0;
    ++lookups;
    if (stats != nullptr && stats->encounters >= config_.min_encounters) {
      ++hits;
      p = stats->co_leave_probability();
    }
    out[i] = p + config_.alpha * type_term;
  });
  const ThetaMetrics& m = theta_metrics();
  m.row_calls->add();
  m.evals->add(vs.size());
  m.pair_lookups->add(lookups);
  m.pair_hits->add(hits);
}

double SocialIndexModel::max_type_term() const {
  double max_entry = 0.0;
  for (std::size_t i = 0; i < matrix_.num_types(); ++i) {
    for (std::size_t j = i; j < matrix_.num_types(); ++j) {
      max_entry = std::max(max_entry, matrix_.at(i, j));
    }
  }
  return config_.alpha * max_entry;
}

void SocialIndexModel::finalize() {
  const std::size_t n = num_users();
  if (n > 0 && stats_.neighbor_index_users() != n) {
    stats_.build_neighbor_index(n);
  }
}

SocialIndexModel SocialIndexModel::from_parts(SocialModelConfig config,
                                              PairStore stats,
                                              UserTyping typing,
                                              TypeCoLeaveMatrix matrix) {
  SocialIndexModel model;
  model.config_ = std::move(config);
  model.stats_ = std::move(stats);
  model.typing_ = std::move(typing);
  model.matrix_ = std::move(matrix);
  model.finalize();
  return model;
}

SocialIndexModel SocialIndexModel::from_parts(SocialModelConfig config,
                                              analysis::PairStatsMap stats,
                                              UserTyping typing,
                                              TypeCoLeaveMatrix matrix) {
  return from_parts(std::move(config), PairStore::from_map(stats),
                    std::move(typing), std::move(matrix));
}

}  // namespace s3::social
