// The live social model — the paper's future-work direction (§VI):
// instead of a frozen model trained once on historical logs, the
// controller keeps learning from the associations it serves.
//
//   θ(u,v) = P_live(L|E) + α·T(type_u, type_v)
//
// P_live merges the trained pair counts with everything observed
// since: a pair's live counters are seeded from the trained ones the
// first time an event touches it (copy-on-first-touch), so the ratio
// continues the history instead of restarting. The typing stage and
// the Table-I matrix stay fixed; the pair-history term is where
// freshness pays.
//
// The live counters sit in a single-owner PairStore. Every learner —
// an S3-online replay domain (OnlineS3Selector) and a serve domain
// (ServePipeline) — owns one model and mutates it under its owner's
// lock; a campus-wide view is a fresh model that absorb()s each
// domain's.
//
// A counter write is one store update plus one bump of a write
// counter, which read_epoch() reports. The model keeps no change log:
// a consumer that mirrors θ (CliqueMaintainer::sync) seeds from base()
// and re-reads every live pair through for_each_live_theta, since live
// entries are never erased and are the only pairs whose θ differs from
// the base. In ThetaDelta terms (graph.h) this is a mutating provider
// without a feed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "s3/social/pair_store.h"
#include "s3/social/presence_table.h"
#include "s3/social/social_index.h"

namespace s3::social {

class LiveSocialModel final : public ThetaProvider {
 public:
  /// `base` must outlive the model. `expected_live_pairs` pre-sizes the
  /// live store.
  explicit LiveSocialModel(const SocialIndexModel* base,
                           std::size_t expected_live_pairs = 0);

  double theta(UserId u, UserId v) const override;

  /// One flat pass over the base model's row, then one find_row sweep
  /// patching the live counters on top. Bit-identical to the scalar
  /// path.
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;

  std::size_t num_users() const override { return base_->num_users(); }

  /// Counter writes so far.
  std::uint64_t read_epoch() const noexcept override { return writes_; }

  /// The trained model the live counters continue.
  const SocialIndexModel& base() const noexcept { return *base_; }

  /// Calls fn(pair, θ) for every pair with live counters, in ascending
  /// pair order. θ goes through theta()'s expression, so it equals
  /// theta(pair.a, pair.b) bit for bit.
  void for_each_live_theta(
      const std::function<void(UserPair, double)>& fn) const;

  /// Counts one departure's events (PresenceTable::depart): an
  /// encounter with every peer in `events.encountered`, then a co-leave
  /// with every peer in `events.co_left`.
  void learn(const DepartureEvents& events);

  /// Adds what `other` learned: each of its live pairs' counts minus
  /// the base counts they were seeded from, and its write count. Both
  /// models must continue the same base. Sums commute, so absorbing
  /// models in any order gives the same counters.
  void absorb(const LiveSocialModel& other);

  /// Pairs whose statistics changed since training.
  std::size_t updated_pairs() const noexcept { return live_.size(); }

  /// Canonical-order fold of the live pair counters (entries are sorted
  /// before hashing, so table layout cannot leak in).
  std::uint64_t state_digest() const;

  /// A frozen SocialIndexModel combining the base model's typing and
  /// matrix with the live pair statistics. Persist it with
  /// write_model_file and reload on the next controller start.
  SocialIndexModel checkpoint() const;

 private:
  /// The base model's type of `u`; 0 when it has no types.
  std::size_t type_of(UserId u) const;
  /// θ(u, v) from the pair's live counters, given type_of(u).
  double live_theta(std::size_t type_u, UserId v,
                    const PairStore::Stats& live) const;

  /// Bumps one live pair counter through `fn`.
  template <typename Fn>
  void bump(UserId u, UserId v, Fn&& fn);

  const SocialIndexModel* base_;
  PairStore live_;
  std::uint64_t writes_ = 0;
};

}  // namespace s3::social
