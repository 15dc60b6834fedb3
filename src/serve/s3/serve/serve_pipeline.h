// Live association pipeline — the long-running counterpart of the
// trace-driven ReplayDriver.
//
// A ServePipeline answers "which AP?" for a stream of arrivals as they
// happen, instead of replaying a recorded workload. Structure mirrors
// the paper's deployment (§V-A): one controller per building group,
// controllers fully independent. Each domain owns a policy instance, a
// load tracker, a degradation state machine and its own learner — a
// social::LiveSocialModel over the shared frozen base, fed by a
// social::PresenceTable — all guarded by one per-domain mutex. A
// domain's θ therefore depends only on its own event stream, as in
// sharded S3-online replay, and placements in different domains run
// fully in parallel without sharing any social state. The `social`
// verb and model() read a campus view over the domains' learners.
//
// Threading contract: place() and depart() are safe from any number of
// threads. Callers bring their own concurrency (the stdin driver is
// sequential; bench_serve shards domains across workers). Calls for
// the same domain serialize on the domain mutex, and the session
// registry serializes only per id shard. No process-wide lock sits on
// the place/depart path.
//
// The fault machinery is reused unchanged from replay: an optional
// FaultInjector prunes dead APs from candidate sets, and
// fault::begin_batch derives the batch directives (model outage,
// clique budget, degradation fallback) exactly as ControllerEngine::flush
// does, minus the trace-driven retry queue (a live caller re-asks when
// it wants to retry).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "s3/core/selector_factory.h"
#include "s3/fault/degradation.h"
#include "s3/fault/fault_injector.h"
#include "s3/serve/session_registry.h"
#include "s3/social/clique_maintainer.h"
#include "s3/social/live_social_model.h"
#include "s3/social/presence_table.h"
#include "s3/sim/load_state.h"
#include "s3/sim/selector.h"
#include "s3/util/thread_annotations.h"
#include "s3/wlan/network.h"
#include "s3/wlan/radio.h"

namespace s3::serve {

struct ServeConfig {
  /// Any policy registered with core::make_selector_factory that needs
  /// no base model of its own (so not "s3-online": every domain already
  /// learns). "s3" reads its domain's live model; baselines ignore it.
  std::string policy = "s3";
  wlan::RadioModel radio{};
  core::S3Config s3{};
  core::LoadMetric llf_metric = core::LoadMetric::kDemand;
  std::uint64_t random_seed = 1;
  /// Online event-detection windows (paper optima, §V-B).
  util::SimTime co_leave_window = util::SimTime::from_minutes(5);
  util::SimTime min_encounter_overlap = util::SimTime::from_minutes(10);
  /// Optional fault schedule; must outlive the pipeline.
  const fault::FaultInjector* injector = nullptr;
};

/// One association request from the outside world.
struct PlaceRequest {
  std::uint64_t id = 0;  ///< caller-chosen, unique among active sessions
  UserId user = kInvalidUser;
  BuildingId building = 0;
  wlan::Position pos{};
  util::SimTime when{};
  double demand_mbps = 0.0;
};

/// Why place() turned an arrival away.
enum class PlaceRejection : std::uint8_t {
  kNone,
  kNoCandidate,  ///< no live AP of the building's domain in range
  kUnknownUser,  ///< user id outside a social policy's model
  kDuplicateId,  ///< id already names an active session
};

struct PlaceResult {
  bool placed = false;
  ApId ap = kInvalidAp;
  bool fallback = false;    ///< served by the degradation fallback
  bool overloaded = false;  ///< chosen AP had no bandwidth headroom
  PlaceRejection rejection = PlaceRejection::kNone;  ///< set iff !placed
};

/// Monitoring view of the live social structure: the maintained clique
/// cover of the θ-graph over the campus model, plus how much of its
/// social mass current placements keep together. Served by
/// ServePipeline::social_snapshot() (the `social` protocol verb)
/// without rebuilding the graph: the pipeline's CliqueMaintainer
/// re-applies the merged live pairs and re-solves its cover only when
/// an edge crossed the threshold or changed weight.
struct SocialSnapshot {
  std::size_t users = 0;
  std::size_t cliques = 0;     ///< multi-member cliques in the cover
  std::size_t singletons = 0;  ///< size-1 cover entries
  std::size_t largest = 0;
  bool exact = true;  ///< no extraction hit the node budget
  /// False when this query seeded the maintained graph (the first).
  bool incremental = false;
  /// Σ over multi-member cliques of ΣC(AP): the θ mass of member pairs
  /// whose current placements share an AP.
  double cohesion = 0.0;
  std::uint64_t cover_version = 0;
  // Cumulative maintainer telemetry.
  std::uint64_t deltas_applied = 0;  ///< live-pair θ applications
  std::uint64_t components_solved = 0;  ///< every component, every re-solve
  /// Always 0: the maintainer caches no component. Kept only because
  /// perfbench reads it; goes with the next benchmark change.
  std::uint64_t components_reused = 0;
  std::uint64_t reseeds = 0;
};

struct ServeStats {
  std::uint64_t placements = 0;
  std::uint64_t departures = 0;
  std::uint64_t fallback_placements = 0;
  std::uint64_t forced_overloads = 0;
  std::uint64_t rejected_no_candidate = 0;
  std::uint64_t rejected_unknown_user = 0;
  std::uint64_t rejected_duplicate_id = 0;
  std::uint64_t unknown_departures = 0;
};

class ServePipeline {
 public:
  /// `net` and `base` must outlive the pipeline.
  ServePipeline(const wlan::Network* net,
                const social::SocialIndexModel* base,
                ServeConfig config = {});
  ~ServePipeline();

  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;

  /// Places one arrival; thread-safe. Rejections (no live candidate
  /// AP, unknown user under a social policy, duplicate id) return
  /// placed = false with the reason, and are counted in stats().
  PlaceResult place(const PlaceRequest& req);

  /// Ends the session placed under `id`; thread-safe. Returns false
  /// for ids that are not active.
  bool depart(std::uint64_t id, util::SimTime when);

  /// Campus-wide view of the per-domain learners; cheap to take.
  class CampusModel {
   public:
    /// Live pairs summed over domains, each domain read under its lock:
    /// O(domains). A pair learned in two domains counts twice, so this
    /// bounds merged().updated_pairs() from above.
    std::size_t updated_pairs() const;

    /// A model over the shared base that absorbs every domain's live
    /// counts, taking one domain lock at a time. Its θ is the base
    /// plus, per pair, the sum of every domain's increments. Costs
    /// O(live pairs) time and memory per call.
    social::LiveSocialModel merged() const;

   private:
    friend class ServePipeline;
    explicit CampusModel(const ServePipeline* pipeline) noexcept
        : pipeline_(pipeline) {}
    const ServePipeline* pipeline_;
  };
  CampusModel model() const noexcept { return CampusModel(this); }
  const wlan::Network& network() const noexcept { return *net_; }
  std::size_t num_domains() const noexcept { return domains_.size(); }

  ServeStats stats() const noexcept;
  std::size_t active_sessions() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Current social structure (see SocialSnapshot). Thread-safe; the
  /// first call seeds the maintained θ-graph from the trained model's
  /// recorded pairs, and every call re-applies θ for each pair of
  /// model().merged() and re-solves the cover only if an edge moved.
  /// A domain's calls wait only while its live pairs are absorbed.
  SocialSnapshot social_snapshot();

  /// Degradation state of `domain`; takes that domain's lock.
  fault::HealthState domain_health(ControllerId domain) const;

 private:
  struct Domain {
    Domain(const social::SocialIndexModel* base, const ServeConfig& config)
        : model(base),
          presence(config.co_leave_window, config.min_encounter_overlap) {}
    mutable util::Mutex mu;
    std::unique_ptr<sim::ApSelector> selector S3_GUARDED_BY(mu);
    std::unique_ptr<sim::ApLoadTracker> tracker S3_GUARDED_BY(mu);
    fault::DegradationTracker degradation S3_GUARDED_BY(mu);
    /// The domain's learner: the selector reads `model`, and departures
    /// feed it the events `presence` detects (an AP belongs to exactly
    /// one domain, so presence never crosses domains).
    social::LiveSocialModel model S3_GUARDED_BY(mu);
    social::PresenceTable presence S3_GUARDED_BY(mu);
  };

  const wlan::Network* net_;
  const social::SocialIndexModel* base_;
  ServeConfig config_;
  std::vector<std::unique_ptr<Domain>> domains_;
  /// id -> live session, sharded (see SessionRegistry's protocol).
  SessionRegistry registry_;

  std::atomic<std::size_t> next_session_{0};
  std::atomic<std::size_t> active_{0};

  /// Social monitoring state: the maintained cover, which only
  /// social_snapshot() touches. Same shape as Domain: the struct owns
  /// the lock its fields are tied to.
  struct SocialView {
    util::Mutex mu;
    social::CliqueMaintainer view S3_GUARDED_BY(mu);
  };
  SocialView social_;
  /// Latest AP each user is placed on (kInvalidAp when absent); sized
  /// at construction, so lock-free updates from any thread.
  std::vector<std::atomic<ApId>> user_ap_;

  // Stats (relaxed atomics; exact once quiescent).
  std::atomic<std::uint64_t> placements_{0};
  std::atomic<std::uint64_t> departures_{0};
  std::atomic<std::uint64_t> fallback_placements_{0};
  std::atomic<std::uint64_t> forced_overloads_{0};
  std::atomic<std::uint64_t> rejected_no_candidate_{0};
  std::atomic<std::uint64_t> rejected_unknown_user_{0};
  std::atomic<std::uint64_t> rejected_duplicate_id_{0};
  std::atomic<std::uint64_t> unknown_departures_{0};
};

}  // namespace s3::serve
