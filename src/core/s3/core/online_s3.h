// Online S3 — the paper's future-work direction (§VI): instead of a
// frozen model trained once on historical logs, the controller keeps
// learning while it operates. Every association/disassociation it
// processes updates the pairwise encounter/co-leaving statistics, so
// social relationships formed *after* training (a new semester's
// classes) start influencing placement within days.
//
// The learner is a social::LiveSocialModel fed by a
// social::PresenceTable — the pair each serve domain learns with too.
#pragma once

#include <memory>

#include "s3/core/s3_selector.h"
#include "s3/social/live_social_model.h"
#include "s3/social/presence_table.h"

namespace s3::core {

struct OnlineS3Config {
  S3Config s3{};
  /// Co-leaving window for online event detection (paper optimum: 5 min).
  util::SimTime co_leave_window = util::SimTime::from_minutes(5);
  /// Minimum same-AP overlap before a pair counts as encountered.
  util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10);
};

/// S3 with continuous learning: identical placement machinery, but the
/// social index it consults is updated by every event the replay engine
/// delivers.
class OnlineS3Selector final : public sim::ApSelector {
 public:
  /// `net` and `base` must outlive the selector; `base`'s pair stats
  /// seed the live counters lazily (copy-on-first-touch).
  OnlineS3Selector(const wlan::Network* net,
                   const social::SocialIndexModel* base,
                   OnlineS3Config config = {});

  std::string_view name() const override { return "S3-online"; }

  ApId select_one(const sim::Arrival& arrival,
                  const sim::ApLoadTracker& loads) override {
    return inner_.select_one(arrival, loads);
  }

  /// Forwards to the inner S3 machinery, fault directives included (the
  /// online wrapper degrades exactly like frozen S3: model outage ->
  /// embedded LLF). The result is replayable: the live model learns only
  /// in the hooks below.
  sim::BatchResult place_batch(const sim::BatchRequest& request,
                               const sim::ApLoadTracker& loads) override {
    return inner_.place_batch(request, loads);
  }

  void on_associate(const sim::Arrival& arrival, ApId ap) override {
    presence_.arrive(ap, arrival.session_index, arrival.user,
                     arrival.connect);
  }
  /// Counts the encounters and co-leavings the departure implies.
  void on_disconnect(std::size_t session_index, UserId /*user*/, ApId ap,
                     util::SimTime when) override {
    model_.learn(presence_.depart(ap, session_index, when));
  }

  bool uses_social_model() const override { return true; }

  /// Live social counters and presence state — everything a later
  /// placement reads (the inner S3 machinery keeps only telemetry).
  std::uint64_t state_digest() const override;

  /// Deep copy for replication checkpoints: the live social model is
  /// copied mid-stream and the inner S3 machinery is rebound to consult
  /// the copy, so the clone keeps learning independently while its
  /// future placements match the original's bit for bit.
  std::unique_ptr<sim::ApSelector> clone() const override {
    return std::unique_ptr<sim::ApSelector>(new OnlineS3Selector(*this));
  }

  const social::LiveSocialModel& model() const noexcept {
    return model_;
  }

 private:
  /// Copy used by clone(): `inner_` must consult the copy's own live
  /// model, never the source's.
  OnlineS3Selector(const OnlineS3Selector& other)
      : model_(other.model_),
        presence_(other.presence_),
        inner_(other.inner_, &model_) {}

  social::LiveSocialModel model_;
  social::PresenceTable presence_;
  S3Selector inner_;
};

}  // namespace s3::core
