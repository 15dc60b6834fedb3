#include "s3/core/rebalancer.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

namespace s3::core {

namespace {

struct ActiveSession {
  UserId user = kInvalidUser;
  ApId ap = kInvalidAp;
  double demand_mbps = 0.0;
  std::vector<ApId> candidates;
  bool migrated = false;
};

struct Departure {
  util::SimTime when;
  std::size_t session_index;
};

struct DepartureLater {
  bool operator()(const Departure& a, const Departure& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.session_index > b.session_index;
  }
};

}  // namespace

RebalanceResult simulate_with_migration(const wlan::Network& net,
                                        const trace::Trace& workload,
                                        const RebalancerConfig& config) {
  S3_REQUIRE(config.sweep_period_s > 0, "rebalancer: bad sweep period");
  S3_REQUIRE(config.slot_s > 0, "rebalancer: bad slot width");

  const util::SimTime begin(0);
  const util::SimTime end = workload.end_time();
  const std::size_t num_slots = static_cast<std::size_t>(
      (std::max<std::int64_t>(end.seconds() - begin.seconds(), 1) +
       config.slot_s - 1) /
      config.slot_s);

  RebalanceResult result;
  result.begin = begin;
  result.slot_s = config.slot_s;
  result.num_slots = num_slots;
  result.disruptions_per_user.assign(workload.num_users(), 0);
  result.slot_load.resize(net.num_controllers());
  std::vector<std::size_t> domain_size(net.num_controllers());
  std::vector<std::size_t> ap_index(net.num_aps());
  for (ControllerId c = 0; c < net.num_controllers(); ++c) {
    const auto domain = net.aps_of_controller(c);
    domain_size[c] = domain.size();
    result.slot_load[c].assign(num_slots * domain.size(), 0.0);
    for (std::size_t k = 0; k < domain.size(); ++k) ap_index[domain[k]] = k;
  }

  sim::ApLoadTracker tracker(net);
  std::unordered_map<std::size_t, ActiveSession> active;
  std::priority_queue<Departure, std::vector<Departure>, DepartureLater>
      departures;

  // ---- Load-integral accumulation -------------------------------------
  util::SimTime last_t = begin;
  auto advance = [&](util::SimTime now) {
    if (now <= last_t) return;
    std::int64_t t = last_t.seconds();
    const std::int64_t stop = std::min(now.seconds(), end.seconds());
    while (t < stop) {
      const std::int64_t slot = (t - begin.seconds()) / config.slot_s;
      const std::int64_t seg_end = std::min(
          stop, begin.seconds() + (slot + 1) * config.slot_s);
      const double dt = static_cast<double>(seg_end - t);
      for (ControllerId c = 0; c < net.num_controllers(); ++c) {
        const auto domain = net.aps_of_controller(c);
        for (std::size_t k = 0; k < domain.size(); ++k) {
          result.slot_load[c][static_cast<std::size_t>(slot) * domain.size() +
                              k] += tracker.demand_mbps(domain[k]) * dt;
        }
      }
      t = seg_end;
    }
    last_t = now;
  };

  // ---- Migration sweep -------------------------------------------------
  auto sweep_controller = [&](ControllerId c) {
    const auto domain = net.aps_of_controller(c);
    for (std::size_t m = 0; m < config.max_migrations_per_sweep; ++m) {
      ApId donor = kInvalidAp, receiver = kInvalidAp;
      for (ApId ap : domain) {
        if (donor == kInvalidAp ||
            tracker.demand_mbps(ap) > tracker.demand_mbps(donor)) {
          donor = ap;
        }
        if (receiver == kInvalidAp ||
            tracker.demand_mbps(ap) < tracker.demand_mbps(receiver)) {
          receiver = ap;
        }
      }
      if (donor == kInvalidAp || receiver == kInvalidAp) return;
      const double gap =
          tracker.demand_mbps(donor) - tracker.demand_mbps(receiver);
      if (gap <= config.hysteresis_mbps) return;

      // Best movable station: minimizes the post-move donor/receiver
      // gap. Candidates are gathered and sorted first so a float tie
      // resolves to the lowest session id, not to hash order.
      std::vector<std::size_t> movable;
      // s3lint: allow(det-unordered-iter): keys are collected then sorted.
      for (const auto& [sid, s] : active) {
        if (s.ap != donor) continue;
        if (std::find(s.candidates.begin(), s.candidates.end(), receiver) ==
            s.candidates.end()) {
          continue;  // receiver not audible for this station
        }
        movable.push_back(sid);
      }
      std::sort(movable.begin(), movable.end());
      std::size_t best_session = std::numeric_limits<std::size_t>::max();
      double best_new_gap = gap;
      for (const std::size_t sid : movable) {
        const double new_gap =
            std::abs(gap - 2.0 * active.at(sid).demand_mbps);
        if (new_gap < best_new_gap - 1e-12) {
          best_new_gap = new_gap;
          best_session = sid;
        }
      }
      if (best_session == std::numeric_limits<std::size_t>::max()) return;
      if (best_new_gap >= gap - config.hysteresis_mbps) return;

      ActiveSession& s = active[best_session];
      tracker.disconnect(best_session, donor);
      tracker.associate(best_session, receiver, s.user, s.demand_mbps);
      s.ap = receiver;
      s.migrated = true;
      ++result.migrations;
      ++result.disruptions_per_user[s.user];
    }
  };

  // ---- Event loop -------------------------------------------------------
  const auto sessions = workload.sessions();
  std::size_t next_arrival = 0;
  std::size_t disrupted_sessions = 0;
  util::SimTime next_sweep = begin + util::SimTime(config.sweep_period_s);
  const auto inf = util::SimTime(std::numeric_limits<std::int64_t>::max());

  while (true) {
    const util::SimTime ta =
        next_arrival < sessions.size() ? sessions[next_arrival].connect : inf;
    const util::SimTime td = departures.empty() ? inf : departures.top().when;
    const util::SimTime ts = next_sweep < end ? next_sweep : inf;
    if (ta == inf && td == inf) break;

    if (td <= ta && td <= ts) {
      advance(td);
      const Departure d = departures.top();
      departures.pop();
      const auto it = active.find(d.session_index);
      tracker.disconnect(d.session_index, it->second.ap);
      if (it->second.migrated) ++disrupted_sessions;
      active.erase(it);
      continue;
    }
    if (ta <= ts) {
      advance(ta);
      const trace::SessionRecord& rec = sessions[next_arrival];
      ActiveSession s;
      s.user = rec.user;
      s.demand_mbps = rec.demand_mbps;
      s.candidates =
          wlan::candidate_aps(net, config.radio, rec.building, rec.pos);
      sim::Arrival a;
      a.session_index = next_arrival;
      a.user = rec.user;
      a.demand_mbps = rec.demand_mbps;
      a.candidates = s.candidates;
      s.ap = least_loaded(a, tracker, config.arrival_metric);
      tracker.associate(next_arrival, s.ap, s.user, s.demand_mbps);
      active.emplace(next_arrival, std::move(s));
      departures.push(Departure{rec.disconnect, next_arrival});
      ++next_arrival;
      continue;
    }
    advance(ts);
    for (ControllerId c = 0; c < net.num_controllers(); ++c) {
      sweep_controller(c);
    }
    next_sweep += util::SimTime(config.sweep_period_s);
  }
  advance(end);

  // Convert Mbit integrals to mean Mbit/s per slot.
  for (auto& per_controller : result.slot_load) {
    for (double& v : per_controller) v /= static_cast<double>(config.slot_s);
  }
  result.disrupted_session_fraction =
      workload.size() > 0
          ? static_cast<double>(disrupted_sessions) /
                static_cast<double>(workload.size())
          : 0.0;
  return result;
}

}  // namespace s3::core
