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
// The live counters sit in `Store`, one of two tables with the same
// update(pair, fn, init_if_new) / find / sorted_entries surface:
//
//   * PairStore — single-owner open addressing. S3-online replay
//     (OnlineS3Selector) uses it: every selector clone copies its
//     model, and the flat table keeps those copies small.
//   * ConcurrentPairStore — lock-free reads, per-bucket writers. The
//     serve plane (ServePipeline) uses it: many controller threads read
//     θ while departures on any domain write counters.
//
// Every counter write appends the pair's new θ to one bounded
// ThetaDelta feed (graph.h), and the feed's end cursor is the model's
// mutation counter (read_epoch). The feed has its own lock; θ is read
// inside it after the store update, so the last record appended for a
// pair always folds in every earlier-appended write, and a drained
// suffix applied in order converges on the store's current θ.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "s3/social/concurrent_pair_store.h"
#include "s3/social/pair_store.h"
#include "s3/social/presence_table.h"
#include "s3/social/social_index.h"
#include "s3/util/thread_annotations.h"

namespace s3::social {

template <typename Store>
class LiveSocialModel final : public ThetaProvider {
 public:
  /// `base` must outlive the model. `expected_live_pairs` pre-sizes the
  /// live store.
  explicit LiveSocialModel(const SocialIndexModel* base,
                           std::size_t expected_live_pairs = 0);

  double theta(UserId u, UserId v) const override;

  /// One flat pass over the base model's row, then the live counters
  /// patched on top. Bit-identical to the scalar path.
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;

  std::size_t num_users() const override { return base_->num_users(); }

  /// Counter writes so far: the feed's end cursor.
  std::uint64_t read_epoch() const noexcept override S3_EXCLUDES(feed_.mu);

  /// One record per live counter write, carrying θ after the write.
  /// Bounded: a consumer that falls behind the retained window gets an
  /// incomplete poll and must reseed.
  bool emits_theta_deltas() const noexcept override { return true; }
  ThetaDeltaPoll poll_theta_deltas(std::uint64_t cursor,
                                   std::vector<ThetaDelta>& out) const override
      S3_EXCLUDES(feed_.mu);

  /// Counts one departure's events (PresenceTable::depart): an
  /// encounter with every peer in `events.encountered`, then a co-leave
  /// with every peer in `events.co_left`. Safe from any thread when
  /// `Store` is ConcurrentPairStore.
  void learn(const DepartureEvents& events) S3_EXCLUDES(feed_.mu);

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
  /// The bounded delta log and its cursor, behind their own lock (the
  /// store has its own writer discipline).
  struct Feed {
    Feed() = default;
    /// Copies under the source's lock (a cloned single-owner model).
    Feed(const Feed& other) S3_EXCLUDES(other.mu);

    mutable util::Mutex mu;
    std::vector<ThetaDelta> records S3_GUARDED_BY(mu);
    /// Cursor of records[0]; earlier records were truncated away.
    std::uint64_t base S3_GUARDED_BY(mu) = 0;
  };

  /// The base model's type of `u`; 0 when it has no types.
  std::size_t type_of(UserId u) const;
  /// θ(u, v) from the pair's live counters, given type_of(u).
  double live_theta(std::size_t type_u, UserId v,
                    const PairStore::Stats& live) const;

  /// Bumps one live pair counter through `fn` and records the pair's
  /// new θ in the feed.
  template <typename Fn>
  void bump(UserId u, UserId v, Fn&& fn) S3_EXCLUDES(feed_.mu);

  const SocialIndexModel* base_;
  Store live_;
  Feed feed_;
};

extern template class LiveSocialModel<PairStore>;
extern template class LiveSocialModel<ConcurrentPairStore>;

}  // namespace s3::social
