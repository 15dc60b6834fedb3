#include "s3/fault/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

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

void validate_plan(const FaultPlan& plan, const wlan::Network* net) {
  for (const ApOutage& o : plan.ap_outages) {
    S3_REQUIRE(o.begin < o.end, "ap outage window is empty");
    if (net != nullptr) {
      S3_REQUIRE(o.ap < net->num_aps(), "ap outage references unknown AP");
    }
  }
  {
    // Per-controller windows must be disjoint: a window's begin crashes
    // a live replica and its end restarts that same replica, so an
    // overlap would leave crash/restart unpairable.
    std::vector<ControllerOutage> sorted = plan.controller_outages;
    // s3lint: allow(det-sort-ties): ties pick which error rejects an invalid
    // plan; ties reach output; see CHANGES.md, FOUND det-sort-ties
    std::sort(sorted.begin(), sorted.end(),
              [](const ControllerOutage& a, const ControllerOutage& b) {
                return a.controller != b.controller
                           ? a.controller < b.controller
                           : a.begin < b.begin;
              });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const ControllerOutage& o = sorted[i];
      S3_REQUIRE(o.begin < o.end, "controller outage window is empty");
      if (net != nullptr) {
        S3_REQUIRE(o.controller < net->num_controllers(),
                   "controller outage references unknown controller");
      }
      if (i > 0 && sorted[i - 1].controller == o.controller) {
        S3_REQUIRE(sorted[i - 1].end <= o.begin,
                   "controller outage windows overlap for one controller");
      }
    }
  }
  {
    // Losses follow the same pairing logic (begin kills, end revives),
    // and additionally must not overlap the same controller's outage
    // windows: a controller cannot crash one replica while its whole
    // replica set is already gone. Check the union per controller.
    struct Window {
      ControllerId controller;
      util::SimTime begin;
      util::SimTime end;
    };
    std::vector<Window> merged;
    merged.reserve(plan.controller_losses.size() +
                   plan.controller_outages.size());
    for (const ControllerLoss& o : plan.controller_losses) {
      S3_REQUIRE(o.begin < o.end, "controller loss window is empty");
      if (net != nullptr) {
        S3_REQUIRE(o.controller < net->num_controllers(),
                   "controller loss references unknown controller");
      }
      merged.push_back({o.controller, o.begin, o.end});
    }
    for (const ControllerOutage& o : plan.controller_outages) {
      merged.push_back({o.controller, o.begin, o.end});
    }
    // s3lint: allow(det-sort-ties): ties cannot reach output: equal
    // (controller, begin) windows overlap and fail the one check below
    std::sort(merged.begin(), merged.end(),
              [](const Window& a, const Window& b) {
                return a.controller != b.controller ? a.controller < b.controller
                                                    : a.begin < b.begin;
              });
    for (std::size_t i = 1; i < merged.size(); ++i) {
      if (merged[i - 1].controller != merged[i].controller) continue;
      S3_REQUIRE(merged[i - 1].end <= merged[i].begin,
                 "controller loss window overlaps another loss or outage "
                 "window of the same controller");
    }
  }
  for (const ModelOutage& o : plan.model_outages) {
    S3_REQUIRE(o.begin < o.end, "model outage window is empty");
  }
  for (const CliqueSqueeze& s : plan.clique_squeezes) {
    S3_REQUIRE(s.begin < s.end, "clique squeeze window is empty");
    S3_REQUIRE(s.node_budget > 0, "clique squeeze budget must be positive");
  }
  S3_REQUIRE(plan.admission.failure_probability >= 0.0 &&
                 plan.admission.failure_probability <= 1.0,
             "admission failure probability outside [0, 1]");
  if (plan.admission.failure_probability > 0.0) {
    S3_REQUIRE(plan.admission.begin < plan.admission.end,
               "admission failure window is empty");
  }
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
