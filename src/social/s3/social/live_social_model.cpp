#include "s3/social/live_social_model.h"

#include <utility>

#include "s3/util/error.h"

namespace s3::social {

LiveSocialModel::LiveSocialModel(const SocialIndexModel* base,
                                 std::size_t expected_live_pairs)
    : base_(base), live_(expected_live_pairs) {
  S3_REQUIRE(base_ != nullptr, "LiveSocialModel: null base model");
}

std::size_t LiveSocialModel::type_of(UserId u) const {
  return base_->type_matrix().num_types() > 0 ? base_->typing().type(u) : 0;
}

double LiveSocialModel::live_theta(std::size_t type_u, UserId v,
                                   const PairStore::Stats& live) const {
  const double type_term =
      base_->type_matrix().num_types() > 0
          ? base_->type_matrix().at(type_u, base_->typing().type(v))
          : 0.0;
  return live.co_leave_probability() + base_->alpha() * type_term;
}

double LiveSocialModel::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
  const PairStore::Stats* live = live_.find(UserPair(u, v));
  return live != nullptr ? live_theta(type_of(u), v, *live)
                         : base_->theta(u, v);
}

void LiveSocialModel::theta_row(UserId u, std::span<const UserId> vs,
                                std::span<double> out) const {
  // Overwrite the few entries whose pair has live history, through the
  // same expression as the scalar theta(): batched and scalar agree
  // bit for bit.
  base_->theta_row(u, vs, out);
  if (live_.empty()) return;
  const std::size_t type_u = type_of(u);
  live_.find_row(u, vs, [&](std::size_t i, const PairStore::Stats* live) {
    if (live != nullptr) out[i] = live_theta(type_u, vs[i], *live);
  });
}

void LiveSocialModel::for_each_live_theta(
    const std::function<void(UserPair, double)>& fn) const {
  for (const auto& e : live_.sorted_entries()) {
    fn(e.pair, live_theta(type_of(e.pair.a), e.pair.b, e.stats));
  }
}

template <typename Fn>
void LiveSocialModel::bump(UserId u, UserId v, Fn&& fn) {
  const UserPair key(u, v);
  // Live entries are never erased, so a pair found here needs no seed;
  // only a first touch pays the probe into the (much larger) base.
  const PairStore::Stats* seed =
      live_.find(key) ? nullptr : base_->pair_stats().find(key);
  live_.update(key, std::forward<Fn>(fn), seed);
  ++writes_;
}

void LiveSocialModel::learn(const DepartureEvents& events) {
  for (const UserId peer : events.encountered) {
    bump(events.user, peer, [](PairStore::Stats& s) { ++s.encounters; });
  }
  for (const UserId peer : events.co_left) {
    bump(events.user, peer, [](PairStore::Stats& s) { ++s.co_leaves; });
  }
}

void LiveSocialModel::absorb(const LiveSocialModel& other) {
  S3_REQUIRE(other.base_ == base_,
             "LiveSocialModel::absorb: models continue different bases");
  other.live_.for_each([this](UserPair pair, const PairStore::Stats& theirs) {
    PairStore::Stats* mine = live_.find(pair);
    if (mine == nullptr) {
      // Both would seed from the base, so the sum is `theirs` itself.
      live_.assign(pair, theirs);
      return;
    }
    // `theirs` was seeded from the base on its first touch, so what the
    // other model learned is its counts minus the base's.
    const PairStore::Stats* seed = base_->pair_stats().find(pair);
    const PairStore::Stats from = seed != nullptr ? *seed : PairStore::Stats{};
    mine->encounters += theirs.encounters - from.encounters;
    mine->co_leaves += theirs.co_leaves - from.co_leaves;
    mine->co_comings += theirs.co_comings - from.co_comings;
  });
  writes_ += other.writes_;
}

std::uint64_t LiveSocialModel::state_digest() const {
  std::uint64_t h = 0x6f6e6c696e65ULL;  // "online"
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  };
  for (const auto& e : live_.sorted_entries()) {
    mix(PairStore::pack(e.pair));
    mix(e.stats.encounters);
    mix(e.stats.co_leaves);
    mix(e.stats.co_comings);
  }
  return h;
}

SocialIndexModel LiveSocialModel::checkpoint() const {
  PairStore merged = base_->pair_stats();
  for (const auto& e : live_.sorted_entries()) {
    merged.assign(e.pair, e.stats);  // live entries were seeded from the base
  }
  return SocialIndexModel::from_parts(base_->config(), std::move(merged),
                                      base_->typing(), base_->type_matrix());
}

}  // namespace s3::social
