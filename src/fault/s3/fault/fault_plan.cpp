#include "s3/fault/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "s3/util/error.h"
#include "s3/wlan/network.h"

namespace s3::fault {
namespace {

constexpr const char* kMagic = "s3fault v1";

bool parse_i64(const std::string& tok, std::int64_t& out) {
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_u64(const std::string& tok, std::uint64_t& out) {
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_double(const std::string& tok, double& out) {
  // std::from_chars<double> is unevenly supported; istringstream with a
  // full-consumption check is portable and strict enough here.
  std::istringstream is(tok);
  is >> out;
  return static_cast<bool>(is) && is.peek() == EOF;
}

FaultPlanParseResult fail(std::size_t line_no, const std::string& what) {
  FaultPlanParseResult r;
  r.error = "fault plan line " + std::to_string(line_no) + ": " + what;
  return r;
}

}  // namespace

FaultPlanParseResult parse_fault_plan(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_magic = false;
  FaultPlanParseResult r;

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;

    if (!saw_magic) {
      if (line.substr(first) != kMagic) {
        return fail(line_no, std::string("expected header \"") + kMagic + "\"");
      }
      saw_magic = true;
      continue;
    }

    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    std::vector<std::string> toks;
    for (std::string t; ls >> t;) toks.push_back(t);

    if (verb == "ap-outage") {
      if (toks.size() != 3) return fail(line_no, "ap-outage wants AP BEGIN END");
      std::int64_t ap = 0, b = 0, e = 0;
      if (!parse_i64(toks[0], ap) || !parse_i64(toks[1], b) ||
          !parse_i64(toks[2], e) || ap < 0) {
        return fail(line_no, "ap-outage: malformed number");
      }
      if (b >= e) return fail(line_no, "ap-outage: begin must precede end");
      r.plan.ap_outages.push_back({static_cast<ApId>(ap), util::SimTime(b),
                                   util::SimTime(e)});
    } else if (verb == "controller-outage") {
      if (toks.size() != 3) {
        return fail(line_no, "controller-outage wants CONTROLLER BEGIN END");
      }
      std::int64_t c = 0, b = 0, e = 0;
      if (!parse_i64(toks[0], c) || !parse_i64(toks[1], b) ||
          !parse_i64(toks[2], e) || c < 0 || b < 0) {
        return fail(line_no, "controller-outage: malformed number");
      }
      if (b >= e) {
        return fail(line_no, "controller-outage: begin must precede end");
      }
      r.plan.controller_outages.push_back({static_cast<ControllerId>(c),
                                           util::SimTime(b), util::SimTime(e)});
    } else if (verb == "controller-loss") {
      if (toks.size() != 3) {
        return fail(line_no, "controller-loss wants CONTROLLER BEGIN END");
      }
      std::int64_t c = 0, b = 0, e = 0;
      if (!parse_i64(toks[0], c) || !parse_i64(toks[1], b) ||
          !parse_i64(toks[2], e) || c < 0 || b < 0) {
        return fail(line_no, "controller-loss: malformed number");
      }
      if (b >= e) {
        return fail(line_no, "controller-loss: begin must precede end");
      }
      r.plan.controller_losses.push_back({static_cast<ControllerId>(c),
                                          util::SimTime(b), util::SimTime(e)});
    } else if (verb == "model-outage" || verb == "model-stale") {
      if (toks.size() != 2) return fail(line_no, verb + " wants BEGIN END");
      std::int64_t b = 0, e = 0;
      if (!parse_i64(toks[0], b) || !parse_i64(toks[1], e)) {
        return fail(line_no, verb + ": malformed number");
      }
      if (b >= e) return fail(line_no, verb + ": begin must precede end");
      r.plan.model_outages.push_back({util::SimTime(b), util::SimTime(e)});
    } else if (verb == "clique-budget") {
      if (toks.size() != 3) {
        return fail(line_no, "clique-budget wants BEGIN END NODES");
      }
      std::int64_t b = 0, e = 0;
      std::uint64_t nodes = 0;
      if (!parse_i64(toks[0], b) || !parse_i64(toks[1], e) ||
          !parse_u64(toks[2], nodes) || nodes == 0) {
        return fail(line_no, "clique-budget: malformed number");
      }
      if (b >= e) return fail(line_no, "clique-budget: begin must precede end");
      r.plan.clique_squeezes.push_back(
          {util::SimTime(b), util::SimTime(e), nodes});
    } else if (verb == "admission-failure") {
      if (toks.size() != 1 && toks.size() != 3) {
        return fail(line_no, "admission-failure wants P [BEGIN END]");
      }
      double p = 0.0;
      if (!parse_double(toks[0], p) || p < 0.0 || p > 1.0) {
        return fail(line_no, "admission-failure: P must be in [0, 1]");
      }
      r.plan.admission.failure_probability = p;
      if (toks.size() == 3) {
        std::int64_t b = 0, e = 0;
        if (!parse_i64(toks[1], b) || !parse_i64(toks[2], e)) {
          return fail(line_no, "admission-failure: malformed window");
        }
        if (b >= e) {
          return fail(line_no, "admission-failure: begin must precede end");
        }
        r.plan.admission.begin = util::SimTime(b);
        r.plan.admission.end = util::SimTime(e);
      }
    } else {
      return fail(line_no, "unknown directive \"" + verb + "\"");
    }
  }

  if (!saw_magic) return fail(0, std::string("missing header \"") + kMagic + "\"");
  r.parsed = true;
  return r;
}

FaultPlanParseResult read_fault_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    FaultPlanParseResult r;
    r.error = "cannot open fault plan file: " + path;
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_fault_plan(buf.str());
}

std::string write_fault_plan(const FaultPlan& plan) {
  std::ostringstream out;
  out << kMagic << "\n";
  for (const ApOutage& o : plan.ap_outages) {
    out << "ap-outage " << o.ap << ' ' << o.begin.seconds() << ' '
        << o.end.seconds() << "\n";
  }
  for (const ControllerOutage& o : plan.controller_outages) {
    out << "controller-outage " << o.controller << ' ' << o.begin.seconds()
        << ' ' << o.end.seconds() << "\n";
  }
  for (const ControllerLoss& o : plan.controller_losses) {
    out << "controller-loss " << o.controller << ' ' << o.begin.seconds()
        << ' ' << o.end.seconds() << "\n";
  }
  for (const ModelOutage& o : plan.model_outages) {
    out << "model-outage " << o.begin.seconds() << ' ' << o.end.seconds()
        << "\n";
  }
  for (const CliqueSqueeze& s : plan.clique_squeezes) {
    out << "clique-budget " << s.begin.seconds() << ' ' << s.end.seconds()
        << ' ' << s.node_budget << "\n";
  }
  if (plan.admission.failure_probability > 0.0) {
    out << "admission-failure " << plan.admission.failure_probability << ' '
        << plan.admission.begin.seconds() << ' '
        << plan.admission.end.seconds() << "\n";
  }
  return out.str();
}

void write_fault_plan_file(const FaultPlan& plan, const std::string& path) {
  std::ofstream out(path);
  S3_REQUIRE(static_cast<bool>(out), "cannot open fault plan for writing");
  out << write_fault_plan(plan);
}

namespace {

std::string window_str(util::SimTime begin, util::SimTime end) {
  std::ostringstream out;
  out << '[' << begin.seconds() << ", " << end.seconds() << ')';
  return out.str();
}

/// One window in an overlap sweep. `outage` marks a controller outage
/// swept with the losses: it is compared only with earlier losses, as
/// the outage sweep already compared the outages with each other.
struct Span {
  std::uint32_t id = 0;
  util::SimTime begin;
  util::SimTime end;
  bool outage = false;

  constexpr auto operator<=>(const Span&) const noexcept = default;
};

/// Appends the empty-window and unknown-id findings of `windows` in
/// plan order (ids at or past `known` are unknown) and returns the
/// windows as spans.
template <typename Window>
std::vector<Span> check_windows(const std::vector<Window>& windows,
                                std::uint32_t Window::*id,
                                const std::string& what,
                                const std::string& unknown, std::size_t known,
                                std::vector<std::string>& out) {
  std::vector<Span> spans;
  spans.reserve(windows.size());
  for (const Window& w : windows) {
    const std::uint32_t i = w.*id;
    if (w.begin >= w.end) {
      out.push_back(what + " " + std::to_string(i) + ": empty outage window " +
                    window_str(w.begin, w.end));
    }
    if (i >= known) {
      out.push_back(unknown + std::to_string(i) + " (network has " +
                    std::to_string(known) + ")");
    }
    spans.push_back({i, w.begin, w.end});
  }
  return spans;
}

/// Appends, per id, each non-empty span that begins before an earlier
/// span ends, paired with the earlier span reaching furthest (an
/// `outage` span only with earlier losses): one finding per span at
/// most, so no pair is reported twice. Windows are half-open, so
/// touching ones do not overlap; empty ones were reported already.
void check_overlaps(std::vector<Span> spans, const std::string& what,
                    std::vector<std::string>& out) {
  std::sort(spans.begin(), spans.end());
  const auto label = [](const Span& s) {
    return (s.outage ? "controller-outage " : "") + window_str(s.begin, s.end);
  };
  const Span* reach = nullptr;       // this id's, furthest-reaching
  const Span* loss_reach = nullptr;  // the same over non-outage spans
  for (const Span& s : spans) {
    if (s.begin >= s.end) continue;
    if (reach != nullptr && reach->id != s.id) reach = loss_reach = nullptr;
    const Span* earlier = s.outage ? loss_reach : reach;
    if (earlier != nullptr && earlier->end > s.begin) {
      out.push_back(what + " " + std::to_string(s.id) +
                    ": outage windows overlap: " + label(*earlier) + " and " +
                    label(s));
    }
    if (reach == nullptr || s.end > reach->end) reach = &s;
    if (!s.outage && (loss_reach == nullptr || s.end > loss_reach->end)) {
      loss_reach = &s;
    }
  }
}

}  // namespace

std::vector<std::string> plan_problems(const FaultPlan& plan,
                                       const wlan::Network* net) {
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
  const std::size_t aps = net != nullptr ? net->num_aps() : kUnbounded;
  const std::size_t controllers =
      net != nullptr ? net->num_controllers() : kUnbounded;
  std::vector<std::string> out;
  // FaultInjector::ap_down answers from the last window that starts at
  // or before t, which covers t only if no earlier window of that AP
  // reaches past it.
  check_overlaps(check_windows(plan.ap_outages, &ApOutage::ap, "ap",
                               "ap-outage references unknown AP ", aps, out),
                 "ap", out);
  // A window's begin crashes a live replica and its end restarts that
  // same replica, so an overlap would leave crash/restart unpairable.
  std::vector<Span> outages = check_windows(
      plan.controller_outages, &ControllerOutage::controller, "controller",
      "controller-outage references unknown controller ", controllers, out);
  check_overlaps(outages, "controller", out);
  // Losses pair the same way, and a controller cannot crash one replica
  // while its whole replica set is already gone, so a loss must not
  // overlap the same controller's losses or outages either.
  std::vector<Span> losses = check_windows(
      plan.controller_losses, &ControllerLoss::controller, "controller-loss",
      "controller-loss references unknown controller ", controllers, out);
  for (Span& o : outages) o.outage = true;
  losses.insert(losses.end(), outages.begin(), outages.end());
  check_overlaps(std::move(losses), "controller-loss", out);
  for (const ModelOutage& o : plan.model_outages) {
    if (o.begin >= o.end) {
      out.push_back("model-outage: empty window " + window_str(o.begin, o.end));
    }
  }
  for (const CliqueSqueeze& s : plan.clique_squeezes) {
    if (s.begin >= s.end) {
      out.push_back("clique-budget: empty window " + window_str(s.begin, s.end));
    }
    if (s.node_budget == 0) {
      out.push_back("clique-budget: budget must be positive");
    }
  }
  const AdmissionFaults& adm = plan.admission;
  if (!(adm.failure_probability >= 0.0 && adm.failure_probability <= 1.0)) {
    std::ostringstream p;
    p << adm.failure_probability;
    out.push_back("admission-failure: probability " + p.str() +
                  " outside [0, 1]");
  } else if (adm.failure_probability > 0.0 && adm.begin >= adm.end) {
    out.push_back("admission-failure: empty window " +
                  window_str(adm.begin, adm.end));
  }
  return out;
}

void validate_plan(const FaultPlan& plan, const wlan::Network* net) {
  const std::vector<std::string> problems = plan_problems(plan, net);
  if (!problems.empty()) throw std::invalid_argument(problems.front());
}

FaultPlan canned_ap_churn_plan(const wlan::Network& net, util::SimTime begin,
                               util::SimTime end, std::size_t num_outages,
                               std::int64_t outage_s) {
  S3_REQUIRE(begin < end, "ap churn plan wants a non-empty horizon");
  S3_REQUIRE(net.num_aps() > 0, "ap churn plan wants a non-empty network");
  FaultPlan plan;
  const std::size_t n = std::min(num_outages, net.num_aps());
  if (n == 0) return plan;
  const std::int64_t span = (end - begin).seconds();
  const std::int64_t len = std::min(outage_s, span / 2 > 0 ? span / 2 : 1);
  // Stagger one outage per chosen AP across the horizon; APs are spread
  // evenly over the topology so several controller domains are hit.
  const std::size_t ap_stride = std::max<std::size_t>(1, net.num_aps() / n);
  for (std::size_t i = 0; i < n; ++i) {
    const ApId ap = static_cast<ApId>((i * ap_stride) % net.num_aps());
    const std::int64_t start =
        begin.seconds() + static_cast<std::int64_t>(i) * span /
                              static_cast<std::int64_t>(n);
    const std::int64_t stop = std::min(start + len, end.seconds());
    if (start >= stop) continue;
    plan.ap_outages.push_back(
        {ap, util::SimTime(start), util::SimTime(stop)});
  }
  validate_plan(plan, &net);
  return plan;
}

FaultPlan canned_model_outage_plan(util::SimTime begin, util::SimTime end) {
  S3_REQUIRE(begin < end, "model outage plan wants a non-empty horizon");
  const std::int64_t span = (end - begin).seconds();
  FaultPlan plan;
  plan.model_outages.push_back({util::SimTime(begin.seconds() + span / 3),
                                util::SimTime(begin.seconds() + 2 * span / 3)});
  validate_plan(plan);
  return plan;
}

FaultPlan canned_admission_storm_plan(util::SimTime begin, util::SimTime end) {
  S3_REQUIRE(begin < end, "admission storm plan wants a non-empty horizon");
  const std::int64_t span = (end - begin).seconds();
  FaultPlan plan;
  plan.admission.failure_probability = 0.3;
  plan.admission.begin = util::SimTime(begin.seconds() + span / 4);
  plan.admission.end = util::SimTime(begin.seconds() + 3 * span / 4);
  plan.clique_squeezes.push_back(
      {plan.admission.begin, plan.admission.end, 64});
  validate_plan(plan);
  return plan;
}

FaultPlan canned_controller_churn_plan(const wlan::Network& net,
                                       util::SimTime begin, util::SimTime end,
                                       std::size_t num_outages,
                                       std::int64_t outage_s) {
  S3_REQUIRE(begin < end, "controller churn plan wants a non-empty horizon");
  S3_REQUIRE(net.num_controllers() > 0,
             "controller churn plan wants a non-empty network");
  FaultPlan plan;
  const std::size_t n = std::min(num_outages, net.num_controllers());
  if (n == 0) return plan;
  const std::int64_t span = (end - begin).seconds();
  const std::int64_t len = std::min(outage_s, span / 2 > 0 ? span / 2 : 1);
  // Stagger one crash per chosen controller, striding over the campus
  // so outages hit alternating domains rather than one corner.
  const std::size_t stride =
      std::max<std::size_t>(1, net.num_controllers() / n);
  for (std::size_t i = 0; i < n; ++i) {
    const ControllerId c =
        static_cast<ControllerId>((i * stride) % net.num_controllers());
    const std::int64_t start =
        begin.seconds() +
        static_cast<std::int64_t>(i) * span / static_cast<std::int64_t>(n);
    const std::int64_t stop = std::min(start + len, end.seconds());
    if (start >= stop) continue;
    plan.controller_outages.push_back(
        {c, util::SimTime(start), util::SimTime(stop)});
  }
  validate_plan(plan, &net);
  return plan;
}

FaultPlan canned_controller_loss_plan(const wlan::Network& net,
                                      util::SimTime begin, util::SimTime end,
                                      std::size_t num_losses,
                                      std::int64_t loss_s) {
  S3_REQUIRE(begin < end, "controller loss plan wants a non-empty horizon");
  S3_REQUIRE(net.num_controllers() > 0,
             "controller loss plan wants a non-empty network");
  FaultPlan plan;
  const std::size_t n = std::min(num_losses, net.num_controllers());
  if (n == 0) return plan;
  const std::int64_t span = (end - begin).seconds();
  // Windows must never overlap across controllers — the adoption order
  // probes neighbors in id order, and a fully disjoint stagger
  // guarantees every orphan finds one alive. Each loss gets its own
  // slice of the horizon.
  const std::int64_t slice = span / static_cast<std::int64_t>(n);
  const std::int64_t len =
      std::min(loss_s, slice > 1 ? slice - 1 : std::int64_t{1});
  for (std::size_t i = 0; i < n; ++i) {
    const ControllerId c = static_cast<ControllerId>(i % net.num_controllers());
    const std::int64_t start =
        begin.seconds() + static_cast<std::int64_t>(i) * slice;
    const std::int64_t stop = std::min(start + len, end.seconds());
    if (start >= stop) continue;
    plan.controller_losses.push_back(
        {c, util::SimTime(start), util::SimTime(stop)});
  }
  validate_plan(plan, &net);
  return plan;
}

}  // namespace s3::fault
