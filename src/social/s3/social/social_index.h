// The social relation index (§IV):
//
//   θ(u,v) = P( L(u,v) | E(u,v) ) + α · T(type_u, type_v)
//
// P(L|E) comes from the pair's own encounter history; the type term is
// the Table-I prior that covers pairs that never met. A trained model
// is the knowledge base S3 queries at selection time. Pair history
// lives in a flat open-addressing PairStore (one contiguous
// allocation, no per-pair heap nodes) — θ probes are the hottest loads
// in the whole system, one per pair per candidate AP per batch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "s3/analysis/events.h"
#include "s3/analysis/profiles.h"
#include "s3/social/graph.h"
#include "s3/social/pair_store.h"
#include "s3/social/typing.h"
#include "s3/trace/trace.h"

namespace s3::social {

struct SocialModelConfig {
  /// Weight of the type prior (the paper sweeps 0.1/0.3/0.5; 0.3 wins).
  double alpha = 0.3;
  /// Event-extraction windows (5-minute co-leaving is the paper's
  /// optimum).
  analysis::EventExtractionConfig events{};
  UserTypingConfig typing{};
  /// Days of history to learn from, counted back from the end of the
  /// training trace; 0 = use everything (the paper finds ≥15 days is
  /// saturated, Fig. 11).
  int history_days = 0;
  /// Noise suppression (§III-D: fake social relationships are
  /// "diminished by aggregating multiple common events"): pairs with
  /// fewer encounters than this contribute no P(L|E) term — only the
  /// type prior. 1 = no suppression.
  std::uint32_t min_encounters = 1;
  /// Trace-time horizon (seconds) of the training data: set by train()
  /// to the training trace's end_time(), persisted by model_io, and
  /// consulted by check::validate_model_freshness / `s3lb check model
  /// --stale-days`. -1 = unknown (models written before this field or
  /// assembled via from_parts without one).
  std::int64_t trained_end_s = -1;
};

/// Anything that can answer "how socially tied are u and v?". The
/// selection algorithm depends only on this, so a frozen trained model
/// and a continuously-updated online model are interchangeable.
///
/// Read-snapshot contract: every implementation must make theta() and
/// theta_row() safe to call concurrently with each other from any
/// number of threads. Whether reads may also race with *mutations* is
/// implementation-specific — SocialIndexModel is immutable after
/// train/from_parts, and LiveSocialModel assumes a single owner that
/// serializes its reads with its writes. read_epoch() lets a caller
/// tell which regime it observed.
class ThetaProvider {
 public:
  virtual ~ThetaProvider() = default;

  /// The social relation index θ(u,v) ≥ 0. Symmetric; 0 for u == v.
  virtual double theta(UserId u, UserId v) const = 0;

  /// Batched kernel: out[i] = theta(u, vs[i]) for i < vs.size().
  /// `out` must have at least vs.size() elements. The default loops
  /// theta(); SocialIndexModel overrides it with one PairStore::find_row
  /// sweep per row (no virtual dispatch, and the pair-table misses
  /// overlap). Results are bit-identical to the scalar path.
  virtual void theta_row(UserId u, std::span<const UserId> vs,
                         std::span<double> out) const;

  /// Monotonic stamp of the statistics behind theta. Two equal
  /// read_epoch() values bracketing a run of theta/theta_row calls
  /// prove all of those reads came from one unchanged snapshot; a
  /// moved epoch means live counters advanced mid-run (each individual
  /// read remains per-pair consistent regardless). Immutable providers
  /// return 0 forever — the default. LiveSocialModel counts its live
  /// counter writes.
  virtual std::uint64_t read_epoch() const noexcept { return 0; }

  /// True when this provider records a structured ThetaDelta feed —
  /// one record per θ-changing mutation, per the invalidation contract
  /// on ThetaDelta (graph.h). Immutable providers trivially emit (an
  /// exact, forever empty feed); the default covers both them and
  /// mutating providers without a feed, which must return false.
  virtual bool emits_theta_deltas() const noexcept { return false; }

  /// Drains the change feed from `cursor` (0 on first call, then the
  /// previous poll's `cursor`), appending records in mutation order to
  /// `out`. Returns the next cursor and whether the drained suffix is
  /// complete — `complete == false` means records were lost (log
  /// truncation, or the provider keeps no feed at all) and the caller
  /// must rebuild derived state from scratch. The default implements
  /// the non-emitting contract: no records, cursor = read_epoch(),
  /// complete only while the epoch has not moved past the caller's
  /// cursor — exact for immutable providers, always-incomplete across
  /// mutations for feed-less mutable ones.
  virtual ThetaDeltaPoll poll_theta_deltas(std::uint64_t cursor,
                                           std::vector<ThetaDelta>& out) const;

  /// Number of users the provider knows about (ids must be < this).
  virtual std::size_t num_users() const = 0;
};

class SocialIndexModel : public ThetaProvider {
 public:
  SocialIndexModel() = default;

  /// Learns from an *assigned* training trace (the operator's logs):
  /// extracts pairwise encounter/co-leave statistics, clusters users
  /// into types from their application profiles, and estimates the
  /// type matrix.
  static SocialIndexModel train(const trace::Trace& assigned_training,
                                const SocialModelConfig& config = {});

  /// The social relation index θ(u,v). Symmetric; 0 for u == v.
  double theta(UserId u, UserId v) const override;

  /// One PairStore::find_row sweep per row, whose pair-table misses
  /// overlap — see ThetaProvider::theta_row.
  void theta_row(UserId u, std::span<const UserId> vs,
                 std::span<double> out) const override;

  /// Immutable after train/from_parts: the feed is exact and forever
  /// empty (the base poll_theta_deltas already implements it).
  bool emits_theta_deltas() const noexcept override { return true; }

  /// The pair-history term P(L|E) alone.
  double co_leave_probability(UserId u, UserId v) const;

  /// Largest possible type-prior contribution α·max T(i,j). When this
  /// stays below a θ threshold, only pairs with recorded history can
  /// clear it — the pruning rule graph construction exploits.
  double max_type_term() const;

  const UserTyping& typing() const noexcept { return typing_; }
  const TypeCoLeaveMatrix& type_matrix() const noexcept { return matrix_; }
  const PairStore& pair_stats() const noexcept { return stats_; }
  double alpha() const noexcept { return config_.alpha; }
  const SocialModelConfig& config() const noexcept { return config_; }
  std::size_t num_users() const noexcept override {
    return typing_.type_of_user.size();
  }

  /// Builds a model directly from parts (tests, serialization). The
  /// map overload converts into the flat store; both end in the same
  /// representation.
  static SocialIndexModel from_parts(SocialModelConfig config,
                                     PairStore stats, UserTyping typing,
                                     TypeCoLeaveMatrix matrix);
  static SocialIndexModel from_parts(SocialModelConfig config,
                                     analysis::PairStatsMap stats,
                                     UserTyping typing,
                                     TypeCoLeaveMatrix matrix);

 private:
  /// Keeps a neighbor index built for num_users(); rebuilds any other.
  void finalize();

  SocialModelConfig config_{};
  PairStore stats_;
  UserTyping typing_;
  TypeCoLeaveMatrix matrix_;
};

}  // namespace s3::social
