#include "s3/check/validators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "s3/analysis/balance.h"

namespace s3::check {

namespace {

constexpr std::string_view kTrace = "validate_trace";
constexpr std::string_view kSocialGraph = "validate_social_graph";
constexpr std::string_view kCliqueCover = "validate_clique_cover";
constexpr std::string_view kLoadState = "validate_load_state";
constexpr std::string_view kModelFreshness = "validate_model_freshness";
constexpr std::string_view kFaultPlan = "validate_fault_plan";
constexpr std::string_view kReplicaConvergence = "validate_replica_convergence";
constexpr std::string_view kLogTruncation = "validate_log_truncation";

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// NaN-safe |a - b| <= tol: returns false (i.e. "differs") when either
/// side is NaN, which a plain fabs comparison would silently pass.
bool close(double a, double b, double tol) noexcept {
  return std::fabs(a - b) <= tol;
}

void check_load_vector(CheckReport& report, std::span<const double> demand,
                       const LoadCheckOptions& options) {
  for (std::size_t ap = 0; ap < demand.size(); ++ap) {
    if (!std::isfinite(demand[ap])) {
      report.add(kLoadState, "ap " + std::to_string(ap) +
                                 ": non-finite load " + fmt_double(demand[ap]));
    } else if (demand[ap] < -options.epsilon) {
      report.add(kLoadState, "ap " + std::to_string(ap) +
                                 ": negative load " + fmt_double(demand[ap]));
    }
  }
  if (demand.empty()) return;
  const double n = static_cast<double>(demand.size());
  const double beta = analysis::balance_index(demand);
  const bool in_range = std::isfinite(beta) &&
                        beta >= 1.0 / n - options.epsilon &&
                        beta <= 1.0 + options.epsilon;
  if (!in_range) {
    report.add(kLoadState, "balance index beta=" + fmt_double(beta) +
                               " outside [1/n, 1] = [" + fmt_double(1.0 / n) +
                               ", 1] over " + std::to_string(demand.size()) +
                               " APs");
  }
}

}  // namespace

void CheckReport::add(std::string_view validator, std::string message) {
  if (issues_.size() >= max_issues_) {
    ++dropped_;
    return;
  }
  // Dispatch first: in abort mode the contract layer throws and the
  // caller sees the violation as an exception, not a report entry.
  report_validator_issue(validator, message);
  issues_.push_back(CheckIssue{std::string(validator), std::move(message)});
}

void CheckReport::merge(CheckReport other) {
  for (CheckIssue& issue : other.issues_) {
    if (issues_.size() >= max_issues_) {
      ++dropped_;
      continue;
    }
    // Already dispatched when the source report recorded it.
    issues_.push_back(std::move(issue));
  }
  dropped_ += other.dropped_;
}

CheckReport validate_trace(std::span<const trace::SessionRecord> sessions,
                           std::size_t num_users, const wlan::Network* net,
                           const TraceCheckOptions& options) {
  CheckReport report(options.max_issues);
  if (num_users == 0) {
    report.add(kTrace, "trace declares zero users");
    return report;
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const trace::SessionRecord& s = sessions[i];
    const std::string at = "record " + std::to_string(i);
    if (i > 0 && s.connect < sessions[i - 1].connect) {
      report.add(kTrace, at + ": connect timestamps regress (" +
                             std::to_string(s.connect.seconds()) + "s after " +
                             std::to_string(sessions[i - 1].connect.seconds()) +
                             "s)");
    }
    if (s.connect >= s.disconnect) {
      report.add(kTrace, at + ": non-positive session duration");
    }
    if (s.user >= num_users) {
      report.add(kTrace, at + ": unknown user id " + std::to_string(s.user) +
                             " (trace has " + std::to_string(num_users) +
                             " users)");
    }
    if (net == nullptr) continue;
    const bool building_known = s.building < net->num_buildings();
    if (!building_known) {
      report.add(kTrace, at + ": unknown building id " +
                             std::to_string(s.building) + " (network has " +
                             std::to_string(net->num_buildings()) +
                             " buildings)");
    }
    if (s.assigned()) {
      if (s.ap >= net->num_aps()) {
        report.add(kTrace, at + ": unknown AP id " + std::to_string(s.ap) +
                               " (network has " +
                               std::to_string(net->num_aps()) + " APs)");
      } else if (building_known &&
                 net->controller_of_ap(s.ap) !=
                     net->controller_of_building(s.building)) {
        report.add(kTrace, at + ": AP " + std::to_string(s.ap) +
                               " is outside building " +
                               std::to_string(s.building) +
                               "'s controller domain");
      }
    }
  }
  return report;
}

CheckReport validate_trace(const trace::Trace& trace, const wlan::Network* net,
                           const TraceCheckOptions& options) {
  return validate_trace(trace.sessions(), trace.num_users(), net, options);
}

CheckReport validate_social_graph(const social::ThetaProvider& theta,
                                  const SocialGraphCheckOptions& options) {
  CheckReport report(options.max_issues);
  const std::size_t n = theta.num_users();
  std::size_t budget = options.max_pairs;
  for (std::size_t u = 0; u < n && budget > 0; ++u) {
    const double self = theta.theta(static_cast<UserId>(u),
                                    static_cast<UserId>(u));
    if (!close(self, 0.0, options.epsilon)) {
      report.add(kSocialGraph, "theta(" + std::to_string(u) + ", " +
                                   std::to_string(u) + ") = " +
                                   fmt_double(self) + ", expected 0");
    }
    for (std::size_t v = u + 1; v < n && budget > 0; ++v, --budget) {
      const double uv = theta.theta(static_cast<UserId>(u),
                                    static_cast<UserId>(v));
      const double vu = theta.theta(static_cast<UserId>(v),
                                    static_cast<UserId>(u));
      const std::string pair =
          "theta(" + std::to_string(u) + ", " + std::to_string(v) + ")";
      if (!std::isfinite(uv)) {
        report.add(kSocialGraph, pair + " = " + fmt_double(uv) +
                                     " is not finite");
        continue;
      }
      if (uv < -options.epsilon) {
        report.add(kSocialGraph, pair + " = " + fmt_double(uv) +
                                     " is negative");
      }
      if (!close(uv, vu, options.epsilon)) {
        report.add(kSocialGraph, pair + " = " + fmt_double(uv) +
                                     " but theta(" + std::to_string(v) + ", " +
                                     std::to_string(u) + ") = " +
                                     fmt_double(vu) + " (asymmetric)");
      }
    }
  }
  return report;
}

CheckReport validate_social_graph(const social::WeightedGraph& graph,
                                  const social::ThetaProvider* theta,
                                  const SocialGraphCheckOptions& options) {
  CheckReport report(options.max_issues);
  const std::size_t n = graph.size();
  if (theta != nullptr && theta->num_users() != n) {
    report.add(kSocialGraph,
               "graph has " + std::to_string(n) + " vertices but the theta "
                   "provider knows " + std::to_string(theta->num_users()) +
                   " users");
    return report;
  }
  std::size_t budget = options.max_pairs;
  for (std::size_t u = 0; u < n && budget > 0; ++u) {
    if (graph.adjacent(u, u)) {
      report.add(kSocialGraph, "self-edge at vertex " + std::to_string(u));
    }
    for (std::size_t v = u + 1; v < n && budget > 0; ++v, --budget) {
      const bool uv = graph.adjacent(u, v);
      const bool vu = graph.adjacent(v, u);
      const std::string edge =
          "edge (" + std::to_string(u) + ", " + std::to_string(v) + ")";
      if (uv != vu) {
        report.add(kSocialGraph, edge + ": adjacency is asymmetric");
        continue;
      }
      const double w = graph.weight(u, v);
      if (!close(w, graph.weight(v, u), options.epsilon)) {
        report.add(kSocialGraph, edge + ": weight is asymmetric");
      }
      if (uv) {
        if (!std::isfinite(w)) {
          report.add(kSocialGraph, edge + ": non-finite weight " +
                                       fmt_double(w));
        } else if (w < options.theta_threshold - options.epsilon) {
          report.add(kSocialGraph,
                     edge + ": weight " + fmt_double(w) +
                         " below the theta threshold " +
                         fmt_double(options.theta_threshold));
        }
        if (theta != nullptr) {
          const double th = theta->theta(static_cast<UserId>(u),
                                         static_cast<UserId>(v));
          if (!close(w, th, options.epsilon)) {
            report.add(kSocialGraph, edge + ": weight " + fmt_double(w) +
                                         " disagrees with theta " +
                                         fmt_double(th));
          }
        }
      } else if (theta != nullptr) {
        const double th = theta->theta(static_cast<UserId>(u),
                                       static_cast<UserId>(v));
        if (std::isfinite(th) &&
            th >= options.theta_threshold + options.epsilon) {
          report.add(kSocialGraph, edge + ": missing although theta " +
                                       fmt_double(th) +
                                       " clears the threshold " +
                                       fmt_double(options.theta_threshold));
        }
      }
    }
  }
  return report;
}

CheckReport validate_clique_cover(
    const social::WeightedGraph& graph,
    std::span<const std::vector<std::size_t>> cover,
    const CliqueCoverCheckOptions& options) {
  CheckReport report(options.max_issues);
  std::vector<std::size_t> covered(graph.size(), 0);
  for (std::size_t c = 0; c < cover.size(); ++c) {
    const std::vector<std::size_t>& clique = cover[c];
    const std::string at = "clique " + std::to_string(c);
    if (clique.empty()) {
      report.add(kCliqueCover, at + " is empty");
      continue;
    }
    bool in_range = true;
    for (const std::size_t v : clique) {
      if (v >= graph.size()) {
        report.add(kCliqueCover, at + ": vertex " + std::to_string(v) +
                                     " out of range (graph has " +
                                     std::to_string(graph.size()) +
                                     " vertices)");
        in_range = false;
      } else {
        ++covered[v];
      }
    }
    if (in_range && clique.size() > 1) {
      // Stale-cover detection: a multi-member clique holding a vertex
      // with no remaining θ-edges means the cover predates edge
      // deletions (an incremental maintainer missed an invalidation) —
      // report it as its own finding, not just a generic non-clique.
      for (const std::size_t v : clique) {
        if (graph.degree(v) == 0) {
          report.add(kCliqueCover,
                     at + " is stale: vertex " + std::to_string(v) +
                         " has no remaining theta-edges but sits in a " +
                         std::to_string(clique.size()) + "-member clique");
        }
      }
    }
    if (in_range && !graph.is_clique(clique)) {
      report.add(kCliqueCover, at + " is not a clique (a member pair is "
                                   "not adjacent)");
    }
  }
  for (std::size_t v = 0; v < covered.size(); ++v) {
    if (covered[v] == 0) {
      report.add(kCliqueCover, "not a partition: vertex " +
                                   std::to_string(v) + " is uncovered");
    } else if (covered[v] > 1) {
      report.add(kCliqueCover, "not a partition: vertex " +
                                   std::to_string(v) + " is covered " +
                                   std::to_string(covered[v]) + " times");
    }
  }
  return report;
}

CheckReport validate_load_state(std::span<const double> per_ap_demand,
                                const LoadCheckOptions& options) {
  CheckReport report(options.max_issues);
  check_load_vector(report, per_ap_demand, options);
  return report;
}

CheckReport validate_load_state(const sim::ApLoadTracker& tracker,
                                const LoadCheckOptions& options) {
  CheckReport report(options.max_issues);
  std::vector<double> cached(tracker.num_aps());
  for (ApId ap = 0; ap < tracker.num_aps(); ++ap) {
    cached[ap] = tracker.demand_mbps(ap);
    double recomputed = 0.0;
    tracker.for_each_station(
        ap, [&](const sim::ActiveStation& st) { recomputed += st.demand_mbps; });
    const double tol =
        options.epsilon * std::max(1.0, std::fabs(recomputed));
    if (!close(cached[ap], recomputed, tol)) {
      report.add(kLoadState,
                 "ap " + std::to_string(ap) + ": load not conserved (cached " +
                     fmt_double(cached[ap]) + " != sum over stations " +
                     fmt_double(recomputed) + ")");
    }
  }
  check_load_vector(report, cached, options);
  return report;
}

CheckReport validate_load_state(const wlan::Network& net,
                                const trace::Trace& assigned,
                                const LoadCheckOptions& options) {
  CheckReport report(options.max_issues);
  if (!assigned.fully_assigned()) {
    report.add(kLoadState, "trace is not fully assigned");
    return report;
  }
  std::vector<double> demand(net.num_aps(), 0.0);
  for (std::size_t i = 0; i < assigned.size(); ++i) {
    const trace::SessionRecord& s = assigned.session(i);
    if (s.ap >= net.num_aps()) {
      report.add(kLoadState, "record " + std::to_string(i) +
                                 ": AP id " + std::to_string(s.ap) +
                                 " out of range");
      continue;
    }
    demand[s.ap] += s.demand_mbps;
  }
  check_load_vector(report, demand, options);
  return report;
}

CheckReport validate_model_freshness(const social::SocialIndexModel& model,
                                     util::SimTime now, util::SimTime max_age,
                                     const ModelFreshnessOptions& options) {
  CheckReport report(options.max_issues);
  const std::int64_t trained_end = model.config().trained_end_s;
  if (trained_end < 0) {
    report.add(kModelFreshness,
               "training horizon unknown (model predates trained_end_s or "
               "was assembled without one); re-train to record it");
    return report;
  }
  const std::int64_t age = now.seconds() - trained_end;
  if (age < 0) {
    report.add(kModelFreshness,
               "training horizon " + std::to_string(trained_end) +
                   "s lies in the future of now=" +
                   std::to_string(now.seconds()) + "s");
    return report;
  }
  if (age > max_age.seconds()) {
    report.add(kModelFreshness,
               "social model stale: trained up to t=" +
                   std::to_string(trained_end) + "s, age " +
                   std::to_string(age) + "s exceeds max age " +
                   std::to_string(max_age.seconds()) + "s");
  }
  return report;
}

CheckReport validate_fault_plan(const fault::FaultPlan& plan,
                                const wlan::Network* net,
                                const FaultPlanCheckOptions& options) {
  CheckReport report(options.max_issues);
  for (std::string& problem : fault::plan_problems(plan, net)) {
    report.add(kFaultPlan, std::move(problem));
  }
  return report;
}

CheckReport validate_replica_convergence(
    const fault::ReplicaSnapshot& a, const fault::ReplicaSnapshot& b,
    const ReplicaConvergenceOptions& options) {
  CheckReport report(options.max_issues);
  if (a.controller != b.controller) {
    report.add(kReplicaConvergence,
               "snapshots are from different domains: controller " +
                   std::to_string(a.controller) + " vs " +
                   std::to_string(b.controller));
    return report;
  }
  if (options.require_equal_terms &&
      (a.term != b.term || a.applied_records != b.applied_records)) {
    report.add(kReplicaConvergence,
               "replication positions differ: term " + std::to_string(a.term) +
                   "/applied " + std::to_string(a.applied_records) + " vs term " +
                   std::to_string(b.term) + "/applied " +
                   std::to_string(b.applied_records));
  }
  if (a.placements != b.placements) {
    std::size_t diffs = 0;
    const std::size_t n = std::min(a.placements.size(), b.placements.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a.placements[i] == b.placements[i]) continue;
      ++diffs;
      if (diffs <= 8) {
        report.add(kReplicaConvergence,
                   "placement diverges at session " +
                       std::to_string(a.placements[i].session_index) + ": ap " +
                       std::to_string(a.placements[i].ap) + " vs " +
                       std::to_string(b.placements[i].ap));
      }
    }
    if (a.placements.size() != b.placements.size() || diffs > 8) {
      report.add(kReplicaConvergence,
                 "placement vectors differ (" +
                     std::to_string(a.placements.size()) + " vs " +
                     std::to_string(b.placements.size()) + " entries, " +
                     std::to_string(diffs) + " divergent)");
    }
  }
  if (a.retries != b.retries) {
    report.add(kReplicaConvergence,
               "retry queues differ: " + std::to_string(a.retries.size()) +
                   " vs " + std::to_string(b.retries.size()) + " entries");
  }
  if (a.attempts != b.attempts) {
    report.add(kReplicaConvergence,
               "attempt counters differ: " + std::to_string(a.attempts.size()) +
                   " vs " + std::to_string(b.attempts.size()) + " sessions");
  }
  if (a.health != b.health || a.clean_run != b.clean_run) {
    report.add(kReplicaConvergence,
               "degradation state differs: state " +
                   std::to_string(static_cast<int>(a.health)) + "/clean_run " +
                   std::to_string(a.clean_run) + " vs state " +
                   std::to_string(static_cast<int>(b.health)) + "/clean_run " +
                   std::to_string(b.clean_run));
  }
  if (!(a.degradation == b.degradation)) {
    report.add(kReplicaConvergence, "degradation transition counters differ");
  }
  if (a.policy_digest != b.policy_digest) {
    report.add(kReplicaConvergence,
               "policy state digests differ: " +
                   std::to_string(a.policy_digest) + " vs " +
                   std::to_string(b.policy_digest) +
                   " (online social counters diverged)");
  }
  if (!(a.stats == b.stats)) {
    report.add(kReplicaConvergence, "replay stats differ");
  }
  return report;
}

CheckReport validate_log_truncation(
    std::uint64_t base, std::uint64_t end, bool has_snapshot,
    std::uint64_t snapshot_index, std::span<const ReplicaLogPosition> replicas,
    const LogTruncationCheckOptions& options) {
  CheckReport report(options.max_issues);
  if (base > end) {
    report.add(kLogTruncation, "truncation base " + std::to_string(base) +
                                   " past the log end " + std::to_string(end));
  }
  if (base > 0) {
    if (!has_snapshot) {
      report.add(kLogTruncation,
                 "truncation to base " + std::to_string(base) +
                     " without any snapshot — a rejoining replica behind the "
                     "base would have nothing to re-seed from");
    } else if (snapshot_index < base) {
      report.add(kLogTruncation,
                 "latest snapshot at index " + std::to_string(snapshot_index) +
                     " precedes truncation base " + std::to_string(base) +
                     " — it would be dropped with the prefix");
    }
  }
  for (const ReplicaLogPosition& r : replicas) {
    if (r.applied > end) {
      report.add(kLogTruncation,
                 "replica " + std::to_string(r.replica) + " claims applied " +
                     std::to_string(r.applied) + " past the log end " +
                     std::to_string(end));
    }
    if (r.alive && r.applied < base) {
      report.add(kLogTruncation,
                 "alive replica " + std::to_string(r.replica) +
                     " still needs record " + std::to_string(r.applied) +
                     " which truncation to base " + std::to_string(base) +
                     " would drop");
    }
  }
  return report;
}

}  // namespace s3::check
