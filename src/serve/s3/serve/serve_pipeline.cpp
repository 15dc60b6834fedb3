#include "s3/serve/serve_pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "s3/util/error.h"
#include "s3/util/metrics.h"

namespace s3::serve {

namespace {

// Looked up once: a registry lookup takes the registry-wide mutex, which
// every serve worker would otherwise share per placement. reset() keeps
// entries alive, so the pointer stays valid.
util::Histogram* place_ns_histogram() {
  static util::Histogram* const h = util::metrics().histogram("serve.place_ns");
  return h;
}

}  // namespace

ServePipeline::ServePipeline(const wlan::Network* net,
                             const social::SocialIndexModel* base,
                             ServeConfig config)
    : net_(net), base_(base), config_(std::move(config)) {
  S3_REQUIRE(net_ != nullptr, "ServePipeline: null network");
  S3_REQUIRE(base_ != nullptr, "ServePipeline: null base model");
  // No spec.base_model: a policy that keeps its own learner ("s3-online")
  // is refused, since every domain already learns below.
  core::SelectorSpec spec;
  spec.llf_metric = config_.llf_metric;
  spec.random_seed = config_.random_seed;
  spec.net = net_;
  spec.s3 = config_.s3;
  {
    social::CliqueMaintainerConfig mc;
    mc.theta_threshold = config_.s3.theta_threshold;
    mc.clique = config_.s3.clique;
    util::MutexLock social(social_.mu);
    social_.view = social::CliqueMaintainer(0, mc);
  }
  user_ap_ = std::vector<std::atomic<ApId>>(base_->num_users());
  for (std::atomic<ApId>& slot : user_ap_) {
    slot.store(kInvalidAp, std::memory_order_relaxed);
  }
  domains_.reserve(net_->num_controllers());
  for (ControllerId c = 0; c < net_->num_controllers(); ++c) {
    auto d = std::make_unique<Domain>(base_, config_);
    util::MutexLock hold(d->mu);
    spec.model = &d->model;
    d->selector = core::make_selector_factory(config_.policy, spec)->create(c);
    d->tracker = std::make_unique<sim::ApLoadTracker>(*net_);
    domains_.push_back(std::move(d));
  }
}

ServePipeline::~ServePipeline() = default;

PlaceResult ServePipeline::place(const PlaceRequest& req) {
  S3_REQUIRE(req.building < net_->num_buildings(),
             "serve: building id out of range");
  S3_REQUIRE(req.user != kInvalidUser, "serve: invalid user id");
  const auto t0 = std::chrono::steady_clock::now();
  const ControllerId domain_id = net_->controller_of_building(req.building);

  PlaceResult result;
  // Reserve the session id first so a concurrent duplicate place() is
  // rejected instead of double-associated. The placeholder (ap ==
  // kInvalidAp) also makes a racing depart() for this id a no-op.
  if (!registry_.reserve(req.id, req.user)) {
    rejected_duplicate_id_.fetch_add(1, std::memory_order_relaxed);
    result.rejection = PlaceRejection::kDuplicateId;
    return result;
  }

  sim::Arrival arrival;
  arrival.session_index = next_session_.fetch_add(1, std::memory_order_relaxed);
  arrival.user = req.user;
  arrival.controller = domain_id;
  arrival.connect = req.when;
  arrival.demand_mbps = req.demand_mbps;
  arrival.candidates =
      wlan::candidate_aps(*net_, config_.radio, req.building, req.pos);
  // Domain invariant: every AP this pipeline touches for the session
  // belongs to `domain_id` (presence maps and trackers are per-domain).
  // Dead APs are pruned exactly like ControllerEngine::flush does.
  std::erase_if(arrival.candidates, [&](ApId ap) {
    if (net_->controller_of_ap(ap) != domain_id) return true;
    return config_.injector != nullptr &&
           config_.injector->ap_down(ap, req.when);
  });
  if (arrival.candidates.empty()) {
    rejected_no_candidate_.fetch_add(1, std::memory_order_relaxed);
    registry_.cancel(req.id);
    result.rejection = PlaceRejection::kNoCandidate;
    return result;
  }

  Domain& d = *domains_[domain_id];
  {
    util::MutexLock hold(d.mu);
    if (d.selector->uses_social_model() && req.user >= base_->num_users()) {
      rejected_unknown_user_.fetch_add(1, std::memory_order_relaxed);
      registry_.cancel(req.id);
      result.rejection = PlaceRejection::kUnknownUser;
      return result;
    }
    sim::BatchRequest request;
    request.arrivals = {&arrival, 1};
    request.faults =
        fault::begin_batch(config_.injector, req.when,
                           d.selector->uses_social_model(), d.degradation);
    sim::BatchResult dispatched =
        d.selector->place_batch(request, *d.tracker);
    S3_ASSERT(dispatched.placements.size() == 1,
              "serve: policy returned wrong batch arity");
    fault::end_batch(config_.injector, request.faults,
                     dispatched.full_fidelity, d.degradation);
    const ApId ap = dispatched.placements[0];
    S3_ASSERT(std::find(arrival.candidates.begin(), arrival.candidates.end(),
                        ap) != arrival.candidates.end(),
              "serve: policy picked an AP outside the candidate set");
    result.placed = true;
    result.ap = ap;
    result.fallback = request.faults.force_fallback || !dispatched.full_fidelity;
    result.overloaded = d.tracker->headroom_mbps(ap) < req.demand_mbps;
    d.tracker->associate(arrival.session_index, ap, req.user,
                         req.demand_mbps);
    d.selector->on_associate(arrival, ap);
    // Before the commit below: a depart() can only race us after it,
    // and it expects the presence entry to exist.
    d.presence.arrive(ap, arrival.session_index, req.user, req.when);
  }

  LiveSession session;
  session.session_index = arrival.session_index;
  session.user = req.user;
  session.ap = result.ap;
  session.domain = domain_id;
  session.demand_mbps = req.demand_mbps;
  session.since = req.when;
  registry_.commit(req.id, session);
  if (req.user < user_ap_.size()) {
    user_ap_[req.user].store(result.ap, std::memory_order_relaxed);
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  placements_.fetch_add(1, std::memory_order_relaxed);
  if (result.fallback) {
    fallback_placements_.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.overloaded) {
    forced_overloads_.fetch_add(1, std::memory_order_relaxed);
  }
  place_ns_histogram()->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return result;
}

bool ServePipeline::depart(std::uint64_t id, util::SimTime when) {
  const std::optional<LiveSession> s = registry_.take(id);
  if (!s.has_value()) {
    // Unknown id, or a placement still in flight on another thread
    // (the placeholder). Either way nothing was committed yet.
    unknown_departures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  Domain& d = *domains_[s->domain];
  {
    util::MutexLock hold(d.mu);
    d.tracker->disconnect(s->session_index, s->ap);
    d.selector->on_disconnect(s->session_index, s->user, s->ap, when);
    d.model.learn(d.presence.depart(s->ap, s->session_index, when));
  }

  if (s->user < user_ap_.size()) {
    user_ap_[s->user].store(kInvalidAp, std::memory_order_relaxed);
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  departures_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t ServePipeline::CampusModel::updated_pairs() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Domain>& d : pipeline_->domains_) {
    util::MutexLock hold(d->mu);
    n += d->model.updated_pairs();
  }
  return n;
}

social::LiveSocialModel ServePipeline::CampusModel::merged() const {
  // The summed count bounds the merge's size, so it never rehashes
  // unless a domain learns meanwhile.
  social::LiveSocialModel campus(pipeline_->base_, updated_pairs());
  for (const std::unique_ptr<Domain>& d : pipeline_->domains_) {
    util::MutexLock hold(d->mu);
    campus.absorb(d->model);
  }
  return campus;
}

SocialSnapshot ServePipeline::social_snapshot() {
  util::MutexLock hold(social_.mu);
  SocialSnapshot out;
  // The merge is dropped before the cover is solved.
  out.incremental = social_.view.sync(model().merged());
  const social::CliqueCoverResult& cover = social_.view.cover();
  out.users = base_->num_users();
  out.exact = cover.exact;
  out.cover_version = social_.view.cover_version();
  for (const std::vector<std::size_t>& members : cover.cliques) {
    out.largest = std::max(out.largest, members.size());
    if (members.size() < 2) {
      ++out.singletons;
      continue;
    }
    ++out.cliques;
    // ΣC(AP) over this clique: θ mass of member pairs currently placed
    // on the same AP.
    double sum = 0.0;
    for (std::size_t a = 0; a < members.size(); ++a) {
      const UserId ua = static_cast<UserId>(members[a]);
      const ApId ap_a = user_ap_[ua].load(std::memory_order_relaxed);
      if (ap_a == kInvalidAp) continue;
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const UserId ub = static_cast<UserId>(members[b]);
        if (user_ap_[ub].load(std::memory_order_relaxed) != ap_a) continue;
        sum += social_.view.edge_weight(ua, ub);
      }
    }
    out.cohesion += sum;
  }
  const social::CliqueMaintainerStats& ms = social_.view.stats();
  out.deltas_applied = ms.deltas_applied;
  out.components_solved = ms.components_solved;
  out.reseeds = ms.reseeds;
  return out;
}

ServeStats ServePipeline::stats() const noexcept {
  ServeStats out;
  out.placements = placements_.load(std::memory_order_relaxed);
  out.departures = departures_.load(std::memory_order_relaxed);
  out.fallback_placements =
      fallback_placements_.load(std::memory_order_relaxed);
  out.forced_overloads = forced_overloads_.load(std::memory_order_relaxed);
  out.rejected_no_candidate =
      rejected_no_candidate_.load(std::memory_order_relaxed);
  out.rejected_unknown_user =
      rejected_unknown_user_.load(std::memory_order_relaxed);
  out.rejected_duplicate_id =
      rejected_duplicate_id_.load(std::memory_order_relaxed);
  out.unknown_departures =
      unknown_departures_.load(std::memory_order_relaxed);
  return out;
}

fault::HealthState ServePipeline::domain_health(ControllerId domain) const {
  S3_REQUIRE(domain < domains_.size(), "serve: domain out of range");
  const Domain& d = *domains_[domain];
  util::MutexLock hold(d.mu);
  return d.degradation.state();
}

}  // namespace s3::serve
