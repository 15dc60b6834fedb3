#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <iostream>
#include <latch>
#include <optional>
#include <stdexcept>
#include <thread>

#include "inputs.h"
#include "probes.h"
#include "s3/analysis/balance.h"
#include "s3/check/validators.h"
#include "s3/core/evaluation.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/runtime/replay_driver.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/social/model_io.h"
#include "s3/trace/binary_io.h"
#include "s3/util/metrics.h"
#include "s3/wlan/radio.h"
#include "spans.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using s3::ApId;

/// Replicated workload: replayable records between policy snapshots.
constexpr std::uint64_t kSnapshotEvery = 2000;
/// Timed set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The policy name the traced serve pipelines run: "s3" behind the
/// ProbedSelector decorator.
constexpr const char* kProbedS3 = "s3-probed";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of ns samples, in microseconds.
double percentile_us(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]) /
         1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest_of(std::span<const ApId> aps) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const ApId ap : aps) {
    h = (h ^ static_cast<std::uint64_t>(ap)) * 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_of(const s3::trace::Trace& assigned) {
  std::vector<ApId> aps;
  aps.reserve(assigned.size());
  for (const auto& s : assigned.sessions()) aps.push_back(s.ap);
  return digest_of(aps);
}

/// Mean normalized Chiu–Jain β′ over the test window under
/// core::score_policy's slot rules: 10-minute slots from 8:00 to 24:00
/// whose domain load is at least 5 Mbit/s.
double balance_index(const s3::wlan::Network& net,
                     const s3::trace::Trace& assigned) {
  const s3::core::EvaluationConfig rules;
  s3::analysis::ThroughputOptions opts;
  opts.slot_s = rules.eval_slot_s;
  const s3::analysis::ThroughputSeries series(net, assigned, test_begin(),
                                              test_end(), opts);
  double sum = 0.0;
  std::size_t n = 0;
  for (s3::ControllerId c = 0; c < net.num_controllers(); ++c) {
    for (std::size_t slot = 0; slot < series.num_slots(); ++slot) {
      const double hour =
          static_cast<double>(series.slot_begin(slot).second_of_day()) / 3600.0;
      if (hour < rules.score_hours_begin || hour >= rules.score_hours_end) {
        continue;
      }
      if (series.total_load(c, slot) < rules.min_slot_load_mbps) continue;
      sum += s3::analysis::normalized_balance_index(series.slot_load(c, slot));
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

s3::trace::Trace read_trace(const std::string& path) {
  s3::trace::BinaryReadResult r = s3::trace::read_binary_file(path);
  if (!r.trace) throw std::runtime_error("cannot read " + path + ": " + r.error);
  return std::move(*r.trace);
}

s3::social::SocialIndexModel read_model(const std::string& path) {
  s3::social::ModelReadResult r = s3::social::load_model(path);
  if (!r.model) throw std::runtime_error("cannot read " + path + ": " + r.error);
  return std::move(*r.model);
}

std::string in_dir(const RunOptions& o, const char* file) {
  return o.inputs_dir + "/" + file;
}

// ---- Instrumentation-bus and span readouts ---------------------------

std::uint64_t bus_count(const char* name) {
  return s3::util::metrics().counter(name)->value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Time the policy layer spent on each worker thread, and the replay
/// runtime's own time: the replay span minus all policy spans, summed
/// per worker over its active window (first to last policy span) plus
/// the sharding and merge the driver does outside those windows.
struct PolicySplit {
  double runtime_self_s = 0.0;
  double worker_skew = 0.0;
};

PolicySplit policy_split(const SpanRecorder& rec, double replay_wall_s) {
  static const char* const kPolicy[] = {"core.place_batch", "core.hooks",
                                        "core.clone"};
  PolicySplit out;
  std::vector<double> per_thread;
  std::int64_t first = INT64_MAX;
  std::int64_t last = INT64_MIN;
  double windows_s = 0.0;
  for (const auto& t : rec.threads()) {
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = INT64_MIN;
    double busy = 0.0;
    for (const Span& s : t->spans) {
      if (s.parent >= 0) continue;
      const bool policy = std::any_of(
          std::begin(kPolicy), std::end(kPolicy),
          [&](const char* n) { return std::string_view(n) == s.name; });
      if (!policy) continue;
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.end_ns);
      busy += static_cast<double>(s.duration_ns()) * 1e-9;
    }
    if (lo > hi) continue;
    per_thread.push_back(busy);
    windows_s += static_cast<double>(hi - lo) * 1e-9 - busy;
    first = std::min(first, lo);
    last = std::max(last, hi);
  }
  if (per_thread.empty()) return out;
  const double outside = replay_wall_s - static_cast<double>(last - first) * 1e-9;
  out.runtime_self_s = std::max(0.0, outside) + windows_s;
  double sum = 0.0;
  for (const double b : per_thread) sum += b;
  out.worker_skew = ratio(*std::max_element(per_thread.begin(), per_thread.end()),
                          sum / static_cast<double>(per_thread.size()));
  return out;
}

/// Per-layer metrics every workload reports; layers a workload does not
/// run stay 0.
struct Layers {
  double trace_read_s = 0, collect_s = 0, train_s = 0, model_load_s = 0;
  PolicySplit split;
  double replica_batch_ratio = 0;
  s3::repl::ReplStats repl{};
  std::uint64_t dropped = 0;
  double busy_share = 0;
  std::uint64_t live_pairs = 0;
  std::vector<double> social_ms;  ///< every social_snapshot() latency
  s3::serve::SocialSnapshot social{};
  double overhead_pct = 0;
};

void report_layers(Report& r, const Layers& l) {
  const SpanRecorder& rec = SpanRecorder::instance();
  const SpanTotals place = totals(rec, "core.place_batch");
  const SpanTotals row = totals(rec, "social.theta_row");
  auto& bus = s3::util::metrics();

  r.metric("trace.read_s", l.trace_read_s, "s");
  r.metric("runtime.collect_s", l.collect_s, "s");
  r.metric("social.train_s", l.train_s, "s");
  r.metric("social.model_load_s", l.model_load_s, "s");
  r.metric("runtime.self_s", l.split.runtime_self_s, "s");
  r.metric("runtime.worker_skew", l.split.worker_skew, "ratio");
  r.metric("analysis.score_s", totals(rec, "analysis.score").total_s, "s");
  r.metric("core.place_batch_calls", static_cast<double>(place.count), "count");
  r.metric("core.place_batch_self_s", place.self_s, "s", place.count);
  r.metric("core.distributions_enumerated",
           static_cast<double>(bus_count("core.s3.distributions_enumerated")),
           "count");
  r.metric("core.beam_searches",
           static_cast<double>(bus_count("core.s3.beam_searches")), "count");
  const s3::util::Timer* cover = bus.timer("core.s3.clique_cover_ns");
  r.metric("core.clique_cover_s", static_cast<double>(cover->total_ns()) * 1e-9,
           "s", cover->count());
  r.metric("social.theta_row_calls", static_cast<double>(row.count), "count");
  r.metric("social.theta_row_s", row.total_s, "s", row.count);
  r.metric("social.theta_per_row",
           ratio(static_cast<double>(bus_count("social.theta_evals")),
                 static_cast<double>(bus_count("social.theta_row_calls"))),
           "count");
  r.metric("social.pair_hit_ratio",
           ratio(static_cast<double>(bus_count("social.pair_hits")),
                 static_cast<double>(bus_count("social.pair_lookups"))),
           "ratio");
  const SpanTotals hooks = totals(rec, "core.hooks");
  r.metric("core.hooks_s", hooks.total_s, "s", hooks.count);
  const SpanTotals clones = totals(rec, "core.clone");
  r.metric("core.clone_s", clones.total_s, "s", clones.count);
  r.metric("repl.replica_batch_ratio", l.replica_batch_ratio, "ratio");
  r.metric("repl.log_records", static_cast<double>(l.repl.log_records), "count");
  r.metric("repl.snapshots", static_cast<double>(l.repl.snapshots), "count");
  r.metric("repl.snapshot_installs",
           static_cast<double>(l.repl.snapshot_installs), "count");
  r.metric("repl.catchup_ms", static_cast<double>(l.repl.catchup_wall_ns) / 1e6,
           "ms");
  r.metric("repl.max_catchup_records",
           static_cast<double>(l.repl.max_catchup_records), "count");
  r.metric("repl.truncated_records",
           static_cast<double>(l.repl.truncated_records), "count");
  r.metric("repl.failovers", static_cast<double>(l.repl.failovers), "count");
  r.metric("fault.dropped_sessions", static_cast<double>(l.dropped), "count");
  const SpanTotals serve_place = totals(rec, "serve.place");
  r.metric("serve.place_s", serve_place.total_s, "s", serve_place.count);
  const SpanTotals depart = totals(rec, "serve.depart");
  r.metric("serve.depart_s", depart.total_s, "s", depart.count);
  r.metric("serve.depart_p99_us",
           percentile_us(durations_ns(rec, "serve.depart"), 99), "us",
           depart.count);
  r.metric("serve.worker_busy_share", l.busy_share, "ratio");
  r.metric("social.live_pairs", static_cast<double>(l.live_pairs), "count");
  r.metric("serve.social_first_ms",
           l.social_ms.empty() ? 0.0 : l.social_ms.front(), "ms");
  r.metric("serve.social_p50_ms", median(l.social_ms), "ms",
           l.social_ms.size());
  r.metric("social.components_solved",
           static_cast<double>(l.social.components_solved), "count");
  r.metric("social.components_reused",
           static_cast<double>(l.social.components_reused), "count");
  r.metric("social.deltas_applied",
           static_cast<double>(l.social.deltas_applied), "count");
  r.metric("social.clique_nodes_explored",
           static_cast<double>(bus_count("social.clique_nodes_explored")),
           "count");
  r.metric("sim.batch_size_p99", bus.histogram("sim.batch_size")->percentile(99),
           "count");
  r.metric("sim.forced_overloads",
           static_cast<double>(bus_count("sim.forced_overloads")), "count");
  r.metric("trace.overhead_pct", l.overhead_pct, "%");
}

/// Checks shared by every workload's assigned test trace.
void check_assigned(Report& r, const s3::wlan::Network& net,
                    const s3::trace::Trace& assigned, std::size_t pass) {
  const std::string where = " (pass " + std::to_string(pass) + ")";
  r.check("fully_assigned" + where, assigned.fully_assigned(),
          "sessions left without an AP");
  const s3::check::CheckReport report = s3::check::validate_trace(assigned, &net);
  r.check("validate_trace" + where, report.ok(),
          report.issues().empty() ? "validate_trace failed"
                                  : report.issues().front().message);
}

/// Per-pass figures of the timed phase. Each timing metric reports its
/// median over passes, which damps the host's second-scale speed
/// swings without dropping any pass.
struct TimedPasses {
  std::vector<double> throughput;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::uint64_t sessions = 0;
  std::uint64_t samples = 0;
  double wall_s = 0.0;

  void add(std::uint64_t pass_sessions, double pass_wall_s,
           const std::vector<std::int64_t>& place_ns) {
    throughput.push_back(ratio(static_cast<double>(pass_sessions), pass_wall_s));
    p50_us.push_back(percentile_us(place_ns, 50));
    p99_us.push_back(percentile_us(place_ns, 99));
    sessions += pass_sessions;
    samples += place_ns.size();
    wall_s += pass_wall_s;
    std::cerr << "pass " << throughput.size() - 1 << ": " << pass_wall_s
              << " s, " << throughput.back() << " sessions/s\n";
  }
};

void finish_timed(Report& r, double setup_median, std::size_t setup_samples,
                  const TimedPasses& t, double beta) {
  r.metric("setup_s", setup_median, "s", setup_samples);
  r.metric("sessions_per_s", median(t.throughput), "1/s", t.sessions);
  r.metric("place_p50_us", median(t.p50_us), "us", t.samples);
  r.metric("place_p99_us", median(t.p99_us), "us", t.samples);
  r.metric("balance_index", beta, "index");
}

// ---- replay-s3 and replay-online-repl --------------------------------

struct ReplayPass {
  s3::sim::ReplayResult result;
  s3::repl::ReplStats repl{};
  bool converged = true;
  double wall_s = 0.0;
  double beta = 0.0;
  std::vector<std::int64_t> place_ns;
};

/// Runs passes of `one_pass` until `seconds` of timed wall are spent (at
/// least one), checking each pass; returns the first pass.
template <typename PassFn>
ReplayPass timed_replay_passes(Report& r, const RunOptions& o,
                               const s3::wlan::Network& net, PassFn one_pass,
                               double setup_median, std::size_t setup_samples) {
  std::optional<ReplayPass> first;
  TimedPasses timed;
  bool same = true;
  do {
    ReplayPass p = one_pass(false);
    const s3::sim::ReplayStats& st = p.result.stats;
    timed.add(st.num_sessions, p.wall_s, p.place_ns);
    r.attempted += st.num_sessions;
    r.failed += st.dropped_sessions + st.abandoned_sessions +
                st.candidate_violations;
    r.check("candidate_sets (pass " + std::to_string(r.passes) + ")",
            st.candidate_violations == 0,
            std::to_string(st.candidate_violations) + " candidate violations");
    check_assigned(r, net, p.result.assigned, r.passes);
    const std::uint64_t d = digest_of(p.result.assigned);
    if (!first) {
      // Passes are identical; later ones only add allocator slack, so
      // the peak is taken through set-up and the first pass.
      r.metric("peak_rss_mb", peak_rss_mb(), "MB");
      r.digest = d;
      first = std::move(p);
    } else {
      same = same && d == r.digest;
    }
    ++r.passes;
  } while (timed.wall_s < o.seconds);
  r.check("deterministic_passes", same, "a pass placed differently from pass 0");
  finish_timed(r, setup_median, setup_samples, timed, first->beta);
  return std::move(*first);
}

/// Traced variant: one untraced reference pass, then one traced pass.
template <typename PassFn>
ReplayPass traced_replay_pass(Report& r, const s3::wlan::Network& net,
                              PassFn one_pass, Layers& layers) {
  const ReplayPass ref = one_pass(false);
  s3::util::metrics().reset();
  SpanRecorder::instance().set_enabled(true);
  ReplayPass p = one_pass(true);
  SpanRecorder::instance().set_enabled(false);
  r.passes = 1;
  r.attempted = p.result.stats.num_sessions;
  r.failed = p.result.stats.dropped_sessions + p.result.stats.abandoned_sessions +
             p.result.stats.candidate_violations;
  r.check("candidate_sets (traced)", p.result.stats.candidate_violations == 0,
          "candidate violations");
  check_assigned(r, net, p.result.assigned, 0);
  r.digest = digest_of(p.result.assigned);
  r.check("traced_matches_untraced", r.digest == digest_of(ref.result.assigned),
          "traced placements differ from the untraced pass");
  layers.overhead_pct = 100.0 * (p.wall_s / ref.wall_s - 1.0);
  layers.split = policy_split(SpanRecorder::instance(),
                              totals(SpanRecorder::instance(), "runtime.replay").total_s);
  layers.replica_batch_ratio =
      ratio(static_cast<double>(p.place_ns.size()),
            static_cast<double>(p.result.stats.num_batches));
  layers.dropped = p.result.stats.dropped_sessions;
  return p;
}

Report replay_s3(const RunOptions& o) {
  const s3::wlan::Network net =
      s3::wlan::make_campus(generator_config(o.scale, o.seed).layout);
  Report r;
  Layers layers;
  std::optional<s3::social::SocialIndexModel> model;
  std::optional<s3::trace::Trace> test;
  std::vector<double> setups;
  SpanRecorder::instance().set_enabled(o.traced);
  for (int rep = 0; rep < (o.traced ? 1 : kSetupReps); ++rep) {
    model.reset();
    test.reset();
    const auto t0 = Clock::now();
    std::optional<s3::trace::Trace> workload;
    {
      const ScopedSpan span("trace.read");
      workload = read_trace(in_dir(o, kWorkloadFile));
    }
    s3::runtime::ReplayDriverConfig rc;
    rc.threads = kWorkers;
    s3::sim::ReplayResult collected;
    {
      const ScopedSpan span("runtime.collect");
      const s3::core::LlfFactory llf(s3::core::LoadMetric::kStations);
      collected = s3::runtime::ReplayDriver(net, rc).run(
          workload->slice(s3::util::SimTime::from_days(0), test_begin()), llf);
    }
    {
      const ScopedSpan span("social.train");
      model = s3::social::SocialIndexModel::train(collected.assigned);
    }
    test = workload->slice(test_begin(), test_end());
    setups.push_back(seconds_since(t0));
  }
  SpanRecorder::instance().set_enabled(false);
  const SpanRecorder& rec = SpanRecorder::instance();
  layers.trace_read_s = totals(rec, "trace.read").total_s;
  layers.collect_s = totals(rec, "runtime.collect").total_s;
  layers.train_s = totals(rec, "social.train").total_s;

  // θ is wrapped only here: S3's default batch path reads it through
  // theta_row alone, so the decorator hides no fast path.
  const ProbedTheta probed_theta(&*model);
  auto one_pass = [&](bool traced) {
    LatencyProbe probe;
    const s3::social::ThetaProvider* theta =
        traced ? static_cast<const s3::social::ThetaProvider*>(&probed_theta)
               : &*model;
    const ProbedFactory factory(
        std::make_unique<s3::core::S3Factory>(&net, theta), &probe);
    s3::runtime::ReplayDriverConfig rc;
    rc.threads = kWorkers;
    ReplayPass p;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("runtime.replay");
      p.result = s3::runtime::ReplayDriver(net, rc).run(*test, factory);
    }
    {
      const ScopedSpan span("analysis.score");
      p.beta = balance_index(net, p.result.assigned);
    }
    p.wall_s = seconds_since(t0);
    p.place_ns = probe.latencies_ns();
    return p;
  };
  if (o.traced) {
    traced_replay_pass(r, net, one_pass, layers);
    report_layers(r, layers);
  } else {
    timed_replay_passes(r, o, net, one_pass, median(setups), setups.size());
  }
  return r;
}

Report replay_online_repl(const RunOptions& o) {
  const s3::wlan::Network net =
      s3::wlan::make_campus(generator_config(o.scale, o.seed).layout);
  Report r;
  Layers layers;
  std::optional<s3::social::SocialIndexModel> model;
  std::optional<s3::trace::Trace> test;
  std::vector<double> setups;
  SpanRecorder::instance().set_enabled(o.traced);
  for (int rep = 0; rep < (o.traced ? 1 : kSetupReps); ++rep) {
    model.reset();
    test.reset();
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("trace.read");
      test = read_trace(in_dir(o, kWorkloadFile)).slice(test_begin(), test_end());
    }
    {
      const ScopedSpan span("social.model_load");
      model = read_model(in_dir(o, kTextModelFile));
    }
    setups.push_back(seconds_since(t0));
  }
  SpanRecorder::instance().set_enabled(false);
  layers.trace_read_s = totals(SpanRecorder::instance(), "trace.read").total_s;
  layers.model_load_s =
      totals(SpanRecorder::instance(), "social.model_load").total_s;

  const s3::fault::FaultInjector injector(
      s3::fault::canned_controller_churn_plan(net, test_begin(), test_end()),
      o.seed);
  auto one_pass = [&](bool /*traced*/) {
    LatencyProbe probe;
    const ProbedFactory factory(
        std::make_unique<s3::core::OnlineS3Factory>(&net, &*model), &probe);
    s3::repl::ReplicatedDriverConfig rc;
    rc.threads = kWorkers;
    rc.injector = &injector;
    rc.repl.backups = 1;
    rc.repl.snapshot_every = kSnapshotEvery;
    rc.repl.truncate = true;
    ReplayPass p;
    const auto t0 = Clock::now();
    s3::repl::ReplicatedReplayResult rr;
    {
      const ScopedSpan span("runtime.replay");
      rr = s3::repl::ReplicatedReplayDriver(net, rc).run(*test, factory);
    }
    p.wall_s = seconds_since(t0);
    p.result = std::move(rr.result);
    p.repl = rr.repl;
    p.converged = std::all_of(rr.failovers.begin(), rr.failovers.end(),
                              [](const auto& ev) { return ev.converged; });
    p.beta = balance_index(net, p.result.assigned);
    p.place_ns = probe.latencies_ns();
    return p;
  };
  auto check_repl = [&](const ReplayPass& p) {
    const s3::sim::ReplayStats& st = p.result.stats;
    r.check("no_dropped_sessions",
            st.dropped_sessions == 0 && st.abandoned_sessions == 0,
            std::to_string(st.dropped_sessions) + " dropped, " +
                std::to_string(st.abandoned_sessions) + " abandoned");
    r.check("failovers_converged", p.converged,
            "a promoted replica diverged from the crashed primary");
  };
  if (o.traced) {
    const ReplayPass p = traced_replay_pass(r, net, one_pass, layers);
    check_repl(p);
    layers.repl = p.repl;
    report_layers(r, layers);
  } else {
    check_repl(timed_replay_passes(r, o, net, one_pass, median(setups),
                                   setups.size()));
  }
  return r;
}

// ---- serve-stream and serve-social -----------------------------------

struct ServePass {
  double wall_s = 0.0;
  std::vector<std::int64_t> place_ns;
  std::vector<double> social_ms;
  double busy_s = 0.0;  ///< Σ call time over workers
  std::vector<ApId> aps;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t failed_departs = 0;
  s3::serve::ServeStats stats{};
  std::size_t active_after = 0;
  std::size_t live_pairs = 0;
  s3::serve::SocialSnapshot social{};
};

struct WorkerLog {
  std::vector<std::int64_t> place_ns;
  std::vector<double> social_ms;
  std::uint64_t departures = 0;
  std::uint64_t failed_departs = 0;
  std::int64_t busy_ns = 0;
  s3::serve::SocialSnapshot social{};
};

/// One worker's closed loop: each call is issued when the previous one
/// returned. Requests were built before timing; the loop only reads
/// them and appends to pre-reserved logs.
void serve_worker(s3::serve::ServePipeline& pipeline,
                  std::span<const StreamEvent> events,
                  std::span<const s3::serve::PlaceRequest> requests,
                  std::span<const s3::util::SimTime> depart_at,
                  std::span<ApId> aps, std::size_t social_every,
                  WorkerLog& log) {
  std::size_t arrivals = 0;
  for (const StreamEvent& ev : events) {
    const auto t0 = Clock::now();
    if (ev.depart == 0) {
      s3::serve::PlaceResult placed;
      {
        const ScopedSpan span("serve.place", ev.session + 1);
        placed = pipeline.place(requests[ev.session]);
      }
      const auto ns = (Clock::now() - t0).count();
      log.place_ns.push_back(ns);
      log.busy_ns += ns;
      aps[ev.session] = placed.placed ? placed.ap : s3::kInvalidAp;
      if (social_every > 0 && ++arrivals % social_every == 0) {
        const auto s0 = Clock::now();
        {
          const ScopedSpan span("serve.social");
          log.social = pipeline.social_snapshot();
        }
        const auto sns = (Clock::now() - s0).count();
        log.social_ms.push_back(static_cast<double>(sns) / 1e6);
        log.busy_ns += sns;
      }
    } else {
      bool ok = false;
      {
        const ScopedSpan span("serve.depart", ev.session + 1);
        ok = pipeline.depart(ev.session, depart_at[ev.session]);
      }
      log.busy_ns += (Clock::now() - t0).count();
      ++log.departures;
      if (!ok) ++log.failed_departs;
    }
  }
}

Report serve_workload(const RunOptions& o, bool sharded) {
  const s3::wlan::Network net =
      s3::wlan::make_campus(generator_config(o.scale, o.seed).layout);
  Report r;
  Layers layers;

  // Inputs, read and expanded into requests before anything is timed.
  const s3::trace::Trace test = read_trace(in_dir(o, kTestFile));
  const ServeStreams streams =
      read_streams(in_dir(o, sharded ? kStreamSharded : kStreamSequential));
  std::vector<s3::serve::PlaceRequest> requests(test.size());
  std::vector<s3::util::SimTime> depart_at(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    const s3::trace::SessionRecord& s = test.session(i);
    requests[i] = {i, s.user, s.building, s.pos, s.connect, s.demand_mbps};
    depart_at[i] = s.disconnect;
  }
  const std::size_t social_every = sharded ? 0 : o.social_every;

  static LatencyProbe probe;  // outlives the registered factory builder
  static const bool registered = [] {
    s3::core::register_selector(kProbedS3, [](const s3::core::SelectorSpec& spec) {
      return std::make_unique<ProbedFactory>(
          s3::core::make_selector_factory("s3", spec), &probe);
    });
    return true;
  }();
  (void)registered;
  auto make_pipeline = [&](const s3::social::SocialIndexModel& model,
                           bool traced) {
    s3::serve::ServeConfig cfg;
    cfg.policy = traced ? kProbedS3 : "s3";
    return std::make_unique<s3::serve::ServePipeline>(&net, &model, cfg);
  };

  std::optional<s3::social::SocialIndexModel> model;
  std::unique_ptr<s3::serve::ServePipeline> ready;
  std::vector<double> setups;
  SpanRecorder::instance().set_enabled(o.traced);
  for (int rep = 0; rep < (o.traced ? 1 : kSetupReps); ++rep) {
    ready.reset();
    model.reset();
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("social.model_load");
      model = read_model(in_dir(o, kBinaryModelFile));
    }
    ready = make_pipeline(*model, false);
    setups.push_back(seconds_since(t0));
  }
  SpanRecorder::instance().set_enabled(false);
  layers.model_load_s =
      totals(SpanRecorder::instance(), "social.model_load").total_s;

  auto one_pass = [&](std::unique_ptr<s3::serve::ServePipeline> pipeline) {
    ServePass p;
    p.aps.assign(test.size(), s3::kInvalidAp);
    const std::size_t workers = streams.events.size();
    std::vector<WorkerLog> logs(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      std::size_t arrivals = 0;
      for (const StreamEvent& ev : streams.events[w]) arrivals += ev.depart == 0;
      logs[w].place_ns.reserve(arrivals);
      if (social_every > 0) logs[w].social_ms.reserve(arrivals / social_every + 1);
    }
    std::latch start(1);
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          start.wait();
          try {
            serve_worker(*pipeline, streams.events[w], requests, depart_at,
                         p.aps, social_every, logs[w]);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
    } catch (...) {
      start.count_down();
      for (std::thread& t : pool) t.join();
      throw;
    }
    const auto t0 = Clock::now();
    start.count_down();
    for (std::thread& t : pool) t.join();
    p.wall_s = seconds_since(t0);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (const WorkerLog& log : logs) {
      p.place_ns.insert(p.place_ns.end(), log.place_ns.begin(), log.place_ns.end());
      p.departures += log.departures;
      p.social_ms.insert(p.social_ms.end(), log.social_ms.begin(),
                         log.social_ms.end());
      p.failed_departs += log.failed_departs;
      p.busy_s += static_cast<double>(log.busy_ns) * 1e-9;
      if (!log.social_ms.empty()) p.social = log.social;
    }
    p.arrivals = p.place_ns.size();
    p.stats = pipeline->stats();
    p.active_after = pipeline->active_sessions();
    p.live_pairs = pipeline->model().updated_pairs();
    return p;
  };

  const s3::wlan::RadioModel radio = s3::serve::ServeConfig{}.radio;
  auto check_pass = [&](const ServePass& p, const std::string& tag) {
    const s3::serve::ServeStats& st = p.stats;
    const std::uint64_t rejected = st.rejected_no_candidate +
                                   st.rejected_unknown_user +
                                   st.rejected_duplicate_id;
    std::size_t outside = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      const s3::trace::SessionRecord& s = test.session(i);
      const ApId ap = p.aps[i];
      const auto cands = s3::wlan::candidate_aps(net, radio, s.building, s.pos);
      const bool ok = ap != s3::kInvalidAp &&
                      std::find(cands.begin(), cands.end(), ap) != cands.end() &&
                      net.controller_of_ap(ap) == net.controller_of_building(s.building);
      outside += ok ? 0 : 1;
    }
    r.attempted += p.arrivals + p.departures + p.social_ms.size();
    r.failed += rejected + p.failed_departs + outside;
    r.check("candidate_sets" + tag, outside == 0,
            std::to_string(outside) + " placements outside the candidate set");
    r.check("serve_accounting" + tag,
            st.placements == p.arrivals && st.placements == test.size() &&
                st.departures == st.placements && p.active_after == 0 &&
                rejected == 0 && p.failed_departs == 0 &&
                st.unknown_departures == 0,
            std::to_string(st.placements) + " placed / " +
                std::to_string(p.arrivals) + " arrivals, " +
                std::to_string(st.departures) + " departed, " +
                std::to_string(p.active_after) + " still active, " +
                std::to_string(rejected) + " rejected, " +
                std::to_string(p.failed_departs) + " unknown departs");
    if (st.placements == test.size()) {
      check_assigned(r, net, test.with_assignments(p.aps), 0);
    }
  };
  auto beta_of = [&](const ServePass& p) {
    return balance_index(net, test.with_assignments(p.aps));
  };

  if (o.traced) {
    const ServePass ref = one_pass(std::move(ready));
    s3::util::metrics().reset();
    SpanRecorder::instance().set_enabled(true);
    const ServePass p = one_pass(make_pipeline(*model, true));
    SpanRecorder::instance().set_enabled(false);
    r.passes = 1;
    check_pass(p, " (traced)");
    r.digest = digest_of(p.aps);
    if (!sharded) {
      r.check("traced_matches_untraced", r.digest == digest_of(ref.aps),
              "traced placements differ from the untraced pass");
    }
    layers.overhead_pct = 100.0 * (p.wall_s / ref.wall_s - 1.0);
    layers.busy_share = ratio(p.busy_s, static_cast<double>(streams.events.size()) *
                                            p.wall_s);
    layers.live_pairs = p.live_pairs;
    layers.social_ms = p.social_ms;
    layers.social = p.social;
    report_layers(r, layers);
    return r;
  }

  std::optional<ServePass> first;
  TimedPasses timed;
  std::vector<double> social_ms;
  bool same = true;
  do {
    std::unique_ptr<s3::serve::ServePipeline> pipeline =
        ready ? std::move(ready) : make_pipeline(*model, false);
    ServePass p = one_pass(std::move(pipeline));
    timed.add(p.arrivals, p.wall_s, p.place_ns);
    social_ms.insert(social_ms.end(), p.social_ms.begin(), p.social_ms.end());
    check_pass(p, " (pass " + std::to_string(r.passes) + ")");
    const std::uint64_t d = digest_of(p.aps);
    if (!first) {
      // Passes are identical; later ones only add allocator slack, so
      // the peak is taken through set-up and the first pass.
      r.metric("peak_rss_mb", peak_rss_mb(), "MB");
      r.digest = d;
      first = std::move(p);
    } else {
      same = same && d == r.digest;
    }
    ++r.passes;
  } while (timed.wall_s < o.seconds);
  if (!sharded) {
    r.check("deterministic_passes", same, "a pass placed differently from pass 0");
    r.metric("social_p50_ms", median(social_ms), "ms", social_ms.size());
  }
  finish_timed(r, median(setups), setups.size(), timed, beta_of(*first));
  return r;
}

}  // namespace

Report run_workload(const RunOptions& o) {
  if (o.workload == "replay-s3") return replay_s3(o);
  if (o.workload == "replay-online-repl") return replay_online_repl(o);
  if (o.workload == "serve-stream") return serve_workload(o, true);
  if (o.workload == "serve-social") return serve_workload(o, false);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
