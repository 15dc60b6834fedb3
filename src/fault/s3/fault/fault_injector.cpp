#include "s3/fault/fault_injector.h"

#include <algorithm>
#include <limits>

#include "s3/util/error.h"
#include "s3/util/rng.h"
#include "s3/wlan/network.h"

namespace s3::fault {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {
  validate_plan(plan_);
  for (const ApOutage& o : plan_.ap_outages) {
    auto it = std::find_if(by_ap_.begin(), by_ap_.end(),
                           [&](const ApWindows& w) { return w.ap == o.ap; });
    if (it == by_ap_.end()) {
      by_ap_.push_back({o.ap, {}});
      it = by_ap_.end() - 1;
    }
    it->windows.push_back({o.begin, o.end});
  }
  // s3lint: allow(det-sort-ties): total order: one entry per AP
  std::sort(by_ap_.begin(), by_ap_.end(),
            [](const ApWindows& a, const ApWindows& b) { return a.ap < b.ap; });
  for (ApWindows& w : by_ap_) {
    // s3lint: allow(det-sort-ties): only overlapping windows of one AP tie, and
    // the lookup misreads those; ties reach output; see CHANGES.md, FOUND
    // det-sort-ties
    std::sort(w.windows.begin(), w.windows.end(),
              [](const util::TimeInterval& a, const util::TimeInterval& b) {
                return a.begin < b.begin;
              });
  }
}

bool FaultInjector::ap_down(ApId ap, util::SimTime t) const {
  const auto it = std::lower_bound(
      by_ap_.begin(), by_ap_.end(), ap,
      [](const ApWindows& w, ApId a) { return w.ap < a; });
  if (it == by_ap_.end() || it->ap != ap) return false;
  // Last window starting at or before t is the only one that can cover it.
  const auto w = std::upper_bound(
      it->windows.begin(), it->windows.end(), t,
      [](util::SimTime x, const util::TimeInterval& iv) {
        return x < iv.begin;
      });
  return w != it->windows.begin() && std::prev(w)->contains(t);
}

bool FaultInjector::controller_down(ControllerId controller,
                                    util::SimTime t) const {
  for (const ControllerOutage& o : plan_.controller_outages) {
    if (o.controller == controller && o.begin <= t && t < o.end) return true;
  }
  for (const ControllerLoss& o : plan_.controller_losses) {
    if (o.controller == controller && o.begin <= t && t < o.end) return true;
  }
  return false;
}

std::vector<util::TimeInterval> FaultInjector::controller_outages(
    ControllerId controller) const {
  std::vector<util::TimeInterval> windows;
  for (const ControllerOutage& o : plan_.controller_outages) {
    if (o.controller == controller) windows.push_back({o.begin, o.end});
  }
  // s3lint: allow(det-sort-ties): ties cannot occur: validate_plan keeps one
  // controller's windows non-empty and disjoint
  std::sort(windows.begin(), windows.end(),
            [](const util::TimeInterval& a, const util::TimeInterval& b) {
              return a.begin < b.begin;
            });
  return windows;
}

std::vector<util::TimeInterval> FaultInjector::controller_losses(
    ControllerId controller) const {
  std::vector<util::TimeInterval> windows;
  for (const ControllerLoss& o : plan_.controller_losses) {
    if (o.controller == controller) windows.push_back({o.begin, o.end});
  }
  // s3lint: allow(det-sort-ties): ties cannot occur: validate_plan keeps one
  // controller's windows non-empty and disjoint
  std::sort(windows.begin(), windows.end(),
            [](const util::TimeInterval& a, const util::TimeInterval& b) {
              return a.begin < b.begin;
            });
  return windows;
}

bool FaultInjector::model_available(util::SimTime t) const {
  for (const ModelOutage& o : plan_.model_outages) {
    if (o.begin <= t && t < o.end) return false;
  }
  return true;
}

std::uint64_t FaultInjector::clique_budget(util::SimTime t) const {
  std::uint64_t tightest = 0;
  for (const CliqueSqueeze& s : plan_.clique_squeezes) {
    if (s.begin <= t && t < s.end) {
      tightest = tightest == 0 ? s.node_budget
                               : std::min(tightest, s.node_budget);
    }
  }
  return tightest;
}

bool FaultInjector::admission_fails(std::size_t session_index,
                                    std::uint32_t attempt,
                                    util::SimTime t) const {
  const double p = plan_.admission.failure_probability;
  if (p <= 0.0) return false;
  if (t < plan_.admission.begin || t >= plan_.admission.end) return false;
  if (p >= 1.0) return true;
  // Hash (seed, session, attempt) into a uniform 64-bit draw. SplitMix64
  // over the concatenated identifiers keeps attempts of the same session
  // uncorrelated while staying a pure, order-independent function.
  util::SplitMix64 mix(seed_ ^
                       (static_cast<std::uint64_t>(session_index) * 0x9e3779b97f4a7c15ULL) ^
                       (static_cast<std::uint64_t>(attempt) + 1));
  const std::uint64_t draw = mix.next();
  const auto threshold = static_cast<std::uint64_t>(
      p * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
  return draw < threshold;
}

std::vector<ApFaultEvent> FaultInjector::events_for_domain(
    const wlan::Network& net, ControllerId controller) const {
  std::vector<ApFaultEvent> events;
  for (const ApOutage& o : plan_.ap_outages) {
    S3_REQUIRE(o.ap < net.num_aps(), "fault plan references unknown AP");
    if (net.controller_of_ap(o.ap) != controller) continue;
    events.push_back({o.begin, o.ap, ApFaultEvent::Kind::kDown});
    events.push_back({o.end, o.ap, ApFaultEvent::Kind::kUp});
  }
  // s3lint: allow(det-sort-ties): total order: (when, kind, ap); equal keys are
  // identical events
  std::sort(events.begin(), events.end(),
            [](const ApFaultEvent& a, const ApFaultEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              // Recoveries first: a window ending where another begins
              // leaves the AP up at the boundary instant (half-open
              // windows), so kUp must be applied before kDown.
              if (a.kind != b.kind) return a.kind == ApFaultEvent::Kind::kUp;
              return a.ap < b.ap;
            });
  return events;
}

}  // namespace s3::fault
