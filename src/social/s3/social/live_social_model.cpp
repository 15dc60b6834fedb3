#include "s3/social/live_social_model.h"

#include <utility>

#include "s3/util/error.h"

namespace s3::social {

template <typename Store>
LiveSocialModel<Store>::LiveSocialModel(const SocialIndexModel* base,
                                        std::size_t expected_live_pairs)
    : base_(base), live_(expected_live_pairs) {
  S3_REQUIRE(base_ != nullptr, "LiveSocialModel: null base model");
}

template <typename Store>
std::size_t LiveSocialModel<Store>::type_of(UserId u) const {
  return base_->type_matrix().num_types() > 0 ? base_->typing().type(u) : 0;
}

template <typename Store>
double LiveSocialModel<Store>::live_theta(
    std::size_t type_u, UserId v, const PairStore::Stats& live) const {
  const double type_term =
      base_->type_matrix().num_types() > 0
          ? base_->type_matrix().at(type_u, base_->typing().type(v))
          : 0.0;
  return live.co_leave_probability() + base_->alpha() * type_term;
}

template <typename Store>
double LiveSocialModel<Store>::theta(UserId u, UserId v) const {
  if (u == v) return 0.0;
  const auto live = live_.find(UserPair(u, v));
  return live ? live_theta(type_of(u), v, *live) : base_->theta(u, v);
}

template <typename Store>
void LiveSocialModel<Store>::theta_row(UserId u, std::span<const UserId> vs,
                                       std::span<double> out) const {
  // Overwrite the few entries whose pair has live history, through the
  // same expression as the scalar theta(): batched and scalar agree
  // bit for bit.
  base_->theta_row(u, vs, out);
  if (live_.empty()) return;
  const std::size_t type_u = type_of(u);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (vs[i] == u) continue;
    if (const auto live = live_.find(UserPair(u, vs[i]))) {
      out[i] = live_theta(type_u, vs[i], *live);
    }
  }
}

template <typename Store>
void LiveSocialModel<Store>::for_each_live_theta(
    const std::function<void(UserPair, double)>& fn) const {
  for (const auto& e : live_.sorted_entries()) {
    fn(e.pair, live_theta(type_of(e.pair.a), e.pair.b, e.stats));
  }
}

template <typename Store>
template <typename Fn>
void LiveSocialModel<Store>::bump(UserId u, UserId v, Fn&& fn) {
  const UserPair key(u, v);
  // Live entries are never erased, so a pair found here needs no seed;
  // only a first touch pays the probe into the (much larger) base.
  const PairStore::Stats* seed =
      live_.find(key) ? nullptr : base_->pair_stats().find(key);
  live_.update(key, std::forward<Fn>(fn), seed);
  writes_.n.fetch_add(1, std::memory_order_release);
}

template <typename Store>
void LiveSocialModel<Store>::learn(const DepartureEvents& events) {
  for (const UserId peer : events.encountered) {
    bump(events.user, peer, [](PairStore::Stats& s) { ++s.encounters; });
  }
  for (const UserId peer : events.co_left) {
    bump(events.user, peer, [](PairStore::Stats& s) { ++s.co_leaves; });
  }
}

template <typename Store>
std::uint64_t LiveSocialModel<Store>::state_digest() const {
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

template <typename Store>
SocialIndexModel LiveSocialModel<Store>::checkpoint() const {
  PairStore merged = base_->pair_stats();
  for (const auto& e : live_.sorted_entries()) {
    merged.assign(e.pair, e.stats);  // live entries were seeded from the base
  }
  return SocialIndexModel::from_parts(base_->config(), std::move(merged),
                                      base_->typing(), base_->type_matrix());
}

template class LiveSocialModel<PairStore>;
template class LiveSocialModel<ConcurrentPairStore>;

}  // namespace s3::social
