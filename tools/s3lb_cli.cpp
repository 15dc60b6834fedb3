// s3lb — command-line front-end.
//
//   s3lb generate  --out FILE [--users N] [--days D] [--buildings B]
//                  [--aps K] [--seed S]
//       Synthesize a campus workload and write it as CSV.
//
//   s3lb replay    --in FILE --out FILE --policy P [--model FILE]
//                  [--buildings B] [--aps K] [--window SECONDS]
//                  [--threads N] [--metrics]
//                  [--fault-plan FILE] [--fault-seed S]
//       Assign APs to a workload under policy P (any name registered
//       with the selector registry; llf | llf-demand | llf-stations |
//       rssi | random | s3 | s3-online ship by default) and write the
//       result. s3 and s3-online require --model. --threads shards the
//       replay per controller domain (0 = all cores; the assignment is
//       identical for every thread count). --metrics dumps the
//       instrumentation bus to stderr. --fault-plan injects a
//       deterministic fault schedule (s3fault v1 format: AP outages,
//       model outages, clique-budget squeezes, admission failures);
//       --fault-seed (default 1) seeds the per-association failure
//       draws. The fault schedule is a pure function of (plan, seed),
//       so the assignment stays identical for every --threads value.
//       Plans with controller-outage windows (and any run with
//       --replicas) go through the replicated driver: each domain runs
//       one primary + --replicas backup controllers (default 1), a
//       crashed primary's backup is promoted deterministically and
//       catches up from the replication log, and the failover ledger is
//       printed. --replicas 0 rides outages headless (arrivals dropped,
//       retries parked until the restart). --heartbeat sets the
//       logical-clock replication period in seconds.
//
//   s3lb serve     --policy P [--model FILE] [--buildings B] [--aps K]
//                  [--in FILE] [--out FILE] [--seed S]
//                  [--fault-plan FILE] [--fault-seed S] [--metrics]
//       Run the live association pipeline over the line protocol
//       (s3/serve/line_protocol.h): requests are read from --in
//       (default stdin), one response per line goes to --out (default
//       stdout), and a run summary goes to stderr. Unlike replay there
//       is no trace — arrivals and departures stream in as they
//       happen, s3's social counters update live in every controller
//       domain (s3-online, replay's name for that learning, is
//       refused), and the fault machinery (AP outages, model outages,
//       degraded fallback) applies to the stream exactly as it does
//       to a replayed batch.
//
//   s3lb train     --in FILE --out FILE [--alpha A] [--coleave-min M]
//                  [--history DAYS] [--buildings B] [--aps K]
//                  [--model-format text|binary]
//       Learn a social model from an *assigned* trace. --model-format
//       selects the on-disk encoding (text is the default; binary is
//       smaller and loads faster). replay auto-detects either format.
//
//   s3lb compare   [--users N] [--days D] [--buildings B] [--aps K]
//                  [--seed S] [--train DAYS] [--test DAYS]
//       Full pipeline: generate, train, score LLF vs S3, print the
//       per-site table and headline gains.
//
//   s3lb check trace --in FILE [--buildings B] [--aps K] [--mode M]
//   s3lb check model --in FILE [--threshold T] [--cover FILE] [--mode M]
//                    [--stale-days D] [--now-day N]
//   s3lb check fault-plan --in FILE [--buildings B] [--aps K] [--mode M]
//       Run the s3::check structural validators over an input and exit
//       non-zero if any invariant is violated. `trace` validates the
//       session log against the topology (plus load conservation and
//       β ∈ [1/n, 1] when the trace is assigned); `model` validates the
//       social relation index θ and its graph, and — with --cover — a
//       clique cover read from FILE (one clique per line, vertex ids
//       separated by spaces). --stale-days D rejects a model whose
//       recorded training horizon is more than D days before --now-day
//       (both in trace time; --now-day is required with --stale-days,
//       and a model that never recorded a horizon always fails the
//       freshness gate). --mode off|count|log|abort selects the
//       contract dispatch (default count; abort stops at the first
//       violation).
//
// The topology flags must match between commands operating on the same
// trace (the CSV carries session building ids, not the AP layout).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "s3/check/contract.h"
#include "s3/check/validators.h"
#include "s3/core/evaluation.h"
#include "s3/core/online_s3.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/serve/line_protocol.h"
#include "s3/serve/serve_pipeline.h"
#include "s3/runtime/replay_driver.h"
#include "s3/social/graph.h"
#include "s3/social/model_io.h"
#include "s3/trace/generator.h"
#include "s3/trace/binary_io.h"
#include "s3/trace/io.h"
#include "s3/util/argspec.h"
#include "s3/util/metrics.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "error: " << msg << "\n";
  std::exit(1);
}

using util::ArgKind;
using util::ArgSpec;
using Flags = util::ParsedArgs;

// Per-subcommand flag tables. Parsing, typed-value validation, and the
// unknown-flag/stray-positional rejection all live in s3::util's shared
// ArgSpec parser — benches use the same machinery, so a typoed flag is
// reported identically everywhere.
constexpr ArgSpec kGenerateSpecs[] = {
    {"out", ArgKind::kString, "output trace (CSV, or .bin for binary)"},
    {"users", ArgKind::kInt, "population size (default 2400)"},
    {"days", ArgKind::kInt, "trace span in days (default 24)"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"seed", ArgKind::kInt, "generator seed (default 42)"},
};

constexpr ArgSpec kReplaySpecs[] = {
    {"in", ArgKind::kString, "input workload trace"},
    {"out", ArgKind::kString, "assigned-trace output"},
    {"policy", ArgKind::kString, "selector policy name (default llf)"},
    {"model", ArgKind::kString, "social model (s3 / s3-online)"},
    {"model-format", ArgKind::kString, "model format: auto|text|binary"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"window", ArgKind::kInt, "dispatch window seconds (default 120)"},
    {"threads", ArgKind::kInt, "replay workers (default 0 = all cores)"},
    {"seed", ArgKind::kInt, "seed for the random policy (default 1)"},
    {"metrics", ArgKind::kFlag, "dump the instrumentation bus"},
    {"check", ArgKind::kString, "contract mode: off|count|log|abort"},
    {"fault-plan", ArgKind::kString, "s3fault v1 schedule file"},
    {"fault-seed", ArgKind::kInt, "fault draw seed (default 1)"},
    {"replicas", ArgKind::kInt, "backup controllers per domain"},
    {"heartbeat", ArgKind::kInt, "replication heartbeat seconds (default 300)"},
    {"snapshot-every", ArgKind::kInt,
     "snapshot the primary every N log records (default 0 = off)"},
    {"truncate", ArgKind::kFlag,
     "drop log prefixes every live replica has applied (needs snapshots)"},
};

constexpr ArgSpec kServeSpecs[] = {
    {"policy", ArgKind::kString, "selector policy name (default s3)"},
    {"model", ArgKind::kString, "social model (s3 / s3-online)"},
    {"model-format", ArgKind::kString, "model format: auto|text|binary"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"in", ArgKind::kString, "request script (default stdin)"},
    {"out", ArgKind::kString, "response stream (default stdout)"},
    {"seed", ArgKind::kInt, "seed for the random policy (default 1)"},
    {"fault-plan", ArgKind::kString, "s3fault v1 schedule file"},
    {"fault-seed", ArgKind::kInt, "fault draw seed (default 1)"},
    {"metrics", ArgKind::kFlag, "dump the instrumentation bus"},
};

constexpr ArgSpec kTrainSpecs[] = {
    {"in", ArgKind::kString, "assigned trace to learn from"},
    {"out", ArgKind::kString, "model output file"},
    {"model-format", ArgKind::kString, "model format: text|binary"},
    {"alpha", ArgKind::kReal, "type-term weight (default 0.3)"},
    {"coleave-min", ArgKind::kInt, "co-leave window minutes (default 5)"},
    {"history", ArgKind::kInt, "training history days (default all)"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
};

constexpr ArgSpec kCompareSpecs[] = {
    {"users", ArgKind::kInt, "population size (default 2400)"},
    {"days", ArgKind::kInt, "trace span in days (default 24)"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"seed", ArgKind::kInt, "generator seed (default 42)"},
    {"train", ArgKind::kInt, "training days (default 21)"},
    {"test", ArgKind::kInt, "test days (default 3)"},
};

constexpr ArgSpec kCheckTraceSpecs[] = {
    {"in", ArgKind::kString, "trace to validate"},
    {"buildings", ArgKind::kInt, "campus buildings (default 8)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"mode", ArgKind::kString, "contract mode: off|count|log|abort"},
};

constexpr ArgSpec kCheckFaultPlanSpecs[] = {
    {"in", ArgKind::kString, "s3fault v1 plan to validate"},
    {"buildings", ArgKind::kInt, "campus buildings (checks ids when given)"},
    {"aps", ArgKind::kInt, "APs per building (default 12)"},
    {"mode", ArgKind::kString, "contract mode: off|count|log|abort"},
};

constexpr ArgSpec kCheckModelSpecs[] = {
    {"in", ArgKind::kString, "model to validate"},
    {"threshold", ArgKind::kReal, "graph edge threshold"},
    {"cover", ArgKind::kString, "clique cover file"},
    {"mode", ArgKind::kString, "contract mode: off|count|log|abort"},
    {"stale-days", ArgKind::kInt, "max model age in days"},
    {"now-day", ArgKind::kInt, "current trace day (with --stale-days)"},
};

void usage();

/// Parses argv against the subcommand's table. Usage-class failures
/// (unknown flag, stray positional) keep the historical exit code 2;
/// malformed typed values die with "error: ..." and exit 1.
Flags parse_or_die(std::span<const ArgSpec> specs, int argc, char** argv,
                   int first) {
  util::ArgParseResult parsed = util::parse_args(specs, argc, argv, first);
  if (parsed.want_help) {
    usage();
    std::exit(0);
  }
  if (parsed.error_kind == util::ArgErrorKind::kUsage) {
    std::cerr << parsed.error << "\n";
    std::exit(2);
  }
  if (!parsed.ok()) die(parsed.error);
  return std::move(parsed.args);
}

/// Resolves --model-format (default `def`); dies on bad vocabulary.
social::ModelFormat model_format_from(const Flags& f, const std::string& def) {
  const std::string name = f.get("model-format", def);
  const std::optional<social::ModelFormat> format =
      social::parse_model_format(name);
  if (!format) die("--model-format must be auto|text|binary, got \"" + name +
                   "\"");
  return *format;
}

wlan::Network network_from(const Flags& f) {
  wlan::CampusLayout layout;
  layout.num_buildings = static_cast<std::size_t>(f.num("buildings", 8));
  layout.aps_per_building = static_cast<std::size_t>(f.num("aps", 12));
  return wlan::make_campus(layout);
}

bool wants_binary(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

trace::Trace load_trace(const std::string& path) {
  // Sniff the format: binary traces carry a magic header.
  std::ifstream probe(path, std::ios::binary);
  if (!probe) die("cannot open trace " + path);
  if (trace::sniff_binary(probe)) {
    const trace::BinaryReadResult r = trace::read_binary_file(path);
    if (!r.trace) die("cannot read trace " + path + ": " + r.error);
    return *r.trace;
  }
  const trace::ReadResult r = trace::read_csv_file(path);
  if (!r.trace) die("cannot read trace " + path + ": " + r.error);
  return *r.trace;
}

/// Writes CSV by default; binary when the path ends in ".bin".
void store_trace(const std::string& path, const trace::Trace& t) {
  const bool ok = wants_binary(path) ? trace::write_binary_file(path, t)
                                     : trace::write_csv_file(path, t);
  if (!ok) die("cannot write " + path);
}

int cmd_generate(const Flags& f) {
  if (!f.has("out")) die("generate: --out is required");
  trace::GeneratorConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(f.num("seed", 42));
  cfg.num_users = static_cast<std::size_t>(f.num("users", 2400));
  cfg.num_days = static_cast<std::size_t>(f.num("days", 24));
  cfg.layout.num_buildings = static_cast<std::size_t>(f.num("buildings", 8));
  cfg.layout.aps_per_building = static_cast<std::size_t>(f.num("aps", 12));
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  store_trace(f.get("out"), g.workload);
  std::cout << "wrote " << f.get("out") << ": " << g.workload.size()
            << " sessions, " << g.truth.groups.size() << " social groups\n";
  return 0;
}

int cmd_replay(const Flags& f) {
  if (!f.has("in") || !f.has("out")) die("replay: --in and --out required");
  if (f.has("check")) {
    const std::optional<check::ContractMode> mode =
        check::parse_contract_mode(f.get("check"));
    if (!mode) die("replay: --check must be off|count|log|abort");
    check::set_contract_mode(*mode);
  }
  const trace::Trace workload = load_trace(f.get("in"));
  const wlan::Network net = network_from(f);

  const std::string policy_name = f.get("policy", "llf");
  std::optional<social::SocialIndexModel> model;
  core::SelectorSpec spec;
  // The bare "llf" the operator deploys counts stations (DESIGN.md §2);
  // demand-LLF is the separate "llf-demand" policy name.
  spec.llf_metric = core::LoadMetric::kStations;
  spec.random_seed = static_cast<std::uint64_t>(f.num("seed", 1));
  spec.net = &net;
  if (policy_name == "s3" || policy_name == "s3-online") {
    if (!f.has("model")) die("replay --policy " + policy_name + " needs --model");
    social::ModelReadResult mr =
        social::load_model(f.get("model"), model_format_from(f, "auto"));
    if (!mr.model) die("cannot read model: " + mr.error);
    model = std::move(*mr.model);
    spec.model = &*model;
    spec.base_model = &*model;
  }
  std::unique_ptr<sim::SelectorFactory> factory;
  try {
    factory = core::make_selector_factory(policy_name, spec);
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }

  std::optional<fault::FaultInjector> injector;
  if (f.has("fault-plan")) {
    const fault::FaultPlanParseResult pr =
        fault::read_fault_plan_file(f.get("fault-plan"));
    if (!pr.ok()) die("cannot read fault plan: " + pr.error);
    try {
      fault::validate_plan(pr.plan, &net);
    } catch (const std::exception& e) {
      die("bad fault plan: " + std::string(e.what()));
    }
    injector.emplace(pr.plan,
                     static_cast<std::uint64_t>(f.num("fault-seed", 1)));
  }

  // Controller-outage and controller-loss plans (and an explicit
  // --replicas) run under the replicated driver; everything else takes
  // the plain sharded path.
  const bool replicated =
      f.has("replicas") ||
      (injector && (!injector->plan().controller_outages.empty() ||
                    !injector->plan().controller_losses.empty()));
  sim::ReplayResult r;
  unsigned threads_used = 0;
  if (replicated) {
    if (!injector) die("replay: --replicas needs --fault-plan");
    repl::ReplicatedDriverConfig rc;
    rc.replay.dispatch_window_s = f.num("window", 120);
    rc.threads = static_cast<unsigned>(f.num("threads", 0));
    rc.injector = &*injector;
    rc.repl.backups = static_cast<std::size_t>(f.num("replicas", 1));
    rc.repl.heartbeat_s = f.num("heartbeat", 300);
    rc.repl.snapshot_every =
        static_cast<std::uint64_t>(f.num("snapshot-every", 0));
    rc.repl.truncate = f.has("truncate");
    if (rc.repl.truncate && rc.repl.snapshot_every == 0) {
      die("replay: --truncate needs --snapshot-every N (a rejoining replica "
          "behind a truncated prefix can only re-seed from a snapshot)");
    }
    repl::ReplicatedReplayDriver driver(net, rc);
    repl::ReplicatedReplayResult rr = driver.run(workload, *factory);
    threads_used = driver.effective_threads();
    std::cout << "replication: " << rr.repl.replicas
              << " replicas/domain, " << rr.repl.failovers << " failovers, "
              << rr.repl.headless_windows << " headless windows, "
              << rr.repl.rejoins << " rejoins, " << rr.repl.log_records
              << " log records, " << rr.repl.catchup_records
              << " replayed to catch up (term " << rr.repl.final_term
              << ")\n";
    if (rr.repl.snapshots > 0 || rr.repl.adoptions > 0) {
      std::cout << "  snapshots: " << rr.repl.snapshots << " cut, "
                << rr.repl.snapshot_installs << " installed, "
                << rr.repl.truncated_records << " records truncated ("
                << rr.repl.live_log_records << " live), max catch-up "
                << rr.repl.max_catchup_records << " records";
      if (rr.repl.adoptions > 0 || rr.repl.handbacks > 0) {
        std::cout << "; " << rr.repl.adoptions << " adoptions, "
                  << rr.repl.handbacks << " handbacks";
      }
      if (rr.repl.digest_mismatches > 0) {
        std::cout << "; " << rr.repl.digest_mismatches
                  << " corrupt records rejected (" << rr.repl.resyncs
                  << " resyncs)";
      }
      std::cout << "\n";
    }
    for (const repl::FailoverEvent& ev : rr.failovers) {
      std::cout << "  t=" << ev.when.seconds() << "s domain " << ev.domain;
      switch (ev.kind) {
        case repl::FailoverKind::kPromotion:
          std::cout << " promoted replica "
                    << std::to_string(ev.promoted_replica);
          break;
        case repl::FailoverKind::kHeadless:
          std::cout << " headless restart";
          break;
        case repl::FailoverKind::kAdoption:
          std::cout << " adopted by controller " << ev.adopter;
          break;
        case repl::FailoverKind::kHandback:
          std::cout << " handed back from controller " << ev.adopter;
          break;
      }
      std::cout << " term " << ev.new_term << " (" << ev.records_replayed
                << " records" << (ev.snapshot_install ? ", snapshot seed" : "")
                << ", " << (ev.converged ? "converged" : "DIVERGED") << ")\n";
    }
    r = std::move(rr.result);
  } else {
    runtime::ReplayDriverConfig rc;
    rc.replay.dispatch_window_s = f.num("window", 120);
    rc.threads = static_cast<unsigned>(f.num("threads", 0));
    if (injector) rc.injector = &*injector;
    runtime::ReplayDriver driver(net, rc);
    r = driver.run(workload, *factory);
    threads_used = driver.effective_threads();
  }
  store_trace(f.get("out"), r.assigned);
  std::cout << "replayed " << r.stats.num_sessions << " sessions under "
            << factory->name() << " (" << r.stats.num_batches
            << " batches, mean size "
            << util::fmt(r.stats.mean_batch_size, 2) << ", "
            << r.stats.forced_overloads << " forced overloads, "
            << threads_used << " threads)\n"
            << "wrote " << f.get("out") << "\n";
  if (injector) {
    std::cout << "faults: " << r.stats.fault_evictions << " evictions, "
              << r.stats.reassociations << " re-associations ("
              << r.stats.retry_attempts << " retries, "
              << r.stats.abandoned_sessions << " abandoned), "
              << r.stats.admission_rejections << " admission rejections, "
              << r.stats.dropped_sessions << " dropped (controller down), "
              << r.stats.degraded_batches << " degraded batches ("
              << r.stats.transitions_to_degraded << " degrade / "
              << r.stats.transitions_to_healthy << " recover transitions)\n";
  }
  if (f.has("metrics")) {
    std::cerr << "# instrumentation bus\n";
    util::metrics().dump(std::cerr);
  }
  return 0;
}

int cmd_serve(const Flags& f) {
  const std::string policy_name = f.get("policy", "s3");
  if (policy_name == "s3-online") {
    die("serve --policy s3-online: s3-online is a replay policy; serve's "
        "s3 already learns online in every domain");
  }
  if (policy_name == "s3" && !f.has("model")) {
    die("serve --policy s3 needs --model");
  }
  const wlan::Network net = network_from(f);

  // Baselines run over an empty base model (never consulted); social
  // policies load the trained index that seeds the live counters.
  social::SocialIndexModel model;
  if (f.has("model")) {
    social::ModelReadResult mr =
        social::load_model(f.get("model"), model_format_from(f, "auto"));
    if (!mr.model) die("cannot read model: " + mr.error);
    model = std::move(*mr.model);
  }

  std::optional<fault::FaultInjector> injector;
  if (f.has("fault-plan")) {
    const fault::FaultPlanParseResult pr =
        fault::read_fault_plan_file(f.get("fault-plan"));
    if (!pr.ok()) die("cannot read fault plan: " + pr.error);
    try {
      fault::validate_plan(pr.plan, &net);
    } catch (const std::exception& e) {
      die("bad fault plan: " + std::string(e.what()));
    }
    injector.emplace(pr.plan,
                     static_cast<std::uint64_t>(f.num("fault-seed", 1)));
  }

  serve::ServeConfig cfg;
  cfg.policy = policy_name;
  cfg.llf_metric = core::LoadMetric::kStations;  // matches replay's "llf"
  cfg.random_seed = static_cast<std::uint64_t>(f.num("seed", 1));
  if (injector) cfg.injector = &*injector;

  serve::ServePipeline pipeline(&net, &model, cfg);

  std::ifstream in_file;
  if (f.has("in")) {
    in_file.open(f.get("in"));
    if (!in_file) die("cannot open " + f.get("in"));
  }
  std::ofstream out_file;
  if (f.has("out")) {
    out_file.open(f.get("out"));
    if (!out_file) die("cannot write " + f.get("out"));
  }
  const bool clean = serve::run_line_protocol(
      pipeline, f.has("in") ? in_file : std::cin,
      f.has("out") ? static_cast<std::ostream&>(out_file) : std::cout);

  const serve::ServeStats s = pipeline.stats();
  std::cerr << "served " << s.placements << " placements, " << s.departures
            << " departures under " << policy_name << " ("
            << s.fallback_placements << " fallback, " << s.forced_overloads
            << " forced overloads, "
            << (s.rejected_no_candidate + s.rejected_unknown_user +
                s.rejected_duplicate_id)
            << " rejected, " << pipeline.model().updated_pairs()
            << " live pairs)\n";
  if (f.has("metrics")) {
    std::cerr << "# instrumentation bus\n";
    util::metrics().dump(std::cerr);
  }
  return clean ? 0 : 1;
}

int cmd_train(const Flags& f) {
  if (!f.has("in") || !f.has("out")) die("train: --in and --out required");
  const trace::Trace assigned = load_trace(f.get("in"));
  if (!assigned.fully_assigned()) {
    die("train: trace must be assigned (run `s3lb replay` first)");
  }
  social::SocialModelConfig cfg;
  cfg.alpha = f.real("alpha", 0.3);
  cfg.events.co_leave_window =
      util::SimTime::from_minutes(f.num("coleave-min", 5));
  cfg.history_days = static_cast<int>(f.num("history", 0));
  const social::SocialIndexModel model =
      social::SocialIndexModel::train(assigned, cfg);
  const social::ModelFormat format = model_format_from(f, "text");
  if (format == social::ModelFormat::kAuto) {
    die("train: --model-format must be text or binary");
  }
  if (!social::save_model(f.get("out"), model, format)) {
    die("cannot write " + f.get("out"));
  }
  std::cout << "trained on " << assigned.size() << " sessions: "
            << model.pair_stats().size() << " pairs, "
            << model.typing().num_types << " usage types\n"
            << "wrote " << f.get("out") << "\n";
  return 0;
}

int cmd_compare(const Flags& f) {
  trace::GeneratorConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(f.num("seed", 42));
  cfg.num_users = static_cast<std::size_t>(f.num("users", 2400));
  cfg.num_days = static_cast<std::size_t>(f.num("days", 24));
  cfg.layout.num_buildings = static_cast<std::size_t>(f.num("buildings", 8));
  cfg.layout.aps_per_building = static_cast<std::size_t>(f.num("aps", 12));
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);

  core::EvaluationConfig eval;
  eval.train_days = static_cast<int>(f.num("train", 21));
  eval.test_days = static_cast<int>(f.num("test", 3));
  const core::ComparisonResult r =
      core::compare_s3_vs_llf(g.network, g.workload, eval);

  util::TextTable table({"site", "llf", "s3", "gain_%"});
  for (std::size_t c = 0; c < r.llf.per_controller_mean.size(); ++c) {
    const double gain =
        r.llf.per_controller_mean[c] > 0
            ? 100.0 * (r.s3.per_controller_mean[c] -
                       r.llf.per_controller_mean[c]) /
                  r.llf.per_controller_mean[c]
            : 0.0;
    table.add_row({std::to_string(c), util::fmt(r.llf.per_controller_mean[c]),
                   util::fmt(r.s3.per_controller_mean[c]),
                   util::fmt(gain, 1)});
  }
  std::cout << table;
  std::cout << "\noverall: LLF " << util::fmt(r.llf.mean) << "  S3 "
            << util::fmt(r.s3.mean) << "  gain "
            << util::fmt(100.0 * r.balance_gain, 1) << " %  (leave-peak "
            << util::fmt(100.0 * r.leave_peak_gain, 1) << " %)\n";
  return 0;
}

/// Reads a clique cover: one clique per line, vertex ids separated by
/// whitespace; blank lines and `#` comments are skipped.
std::vector<std::vector<std::size_t>> load_cover_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open cover " + path);
  std::vector<std::vector<std::size_t>> cover;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<std::size_t> clique;
    std::string token;
    while (fields >> token) {
      long v = 0;
      const std::string err = util::parse_integer("cover", token, v);
      if (!err.empty()) die(err);
      if (v < 0) die("--cover: negative vertex id \"" + token + "\"");
      clique.push_back(static_cast<std::size_t>(v));
    }
    if (!clique.empty()) cover.push_back(std::move(clique));
  }
  return cover;
}

int report_outcome(const check::CheckReport& report,
                   const std::string& subject) {
  if (report.ok()) {
    std::cout << subject << ": ok\n";
    return 0;
  }
  for (const check::CheckIssue& issue : report.issues()) {
    std::cerr << "check failed: " << issue.validator << ": " << issue.message
              << "\n";
  }
  if (report.dropped() > 0) {
    std::cerr << "check failed: ... and " << report.dropped()
              << " further issues\n";
  }
  std::cerr << subject << ": "
            << (report.issues().size() + report.dropped())
            << " invariant violations\n";
  return 1;
}

int cmd_check(const std::string& what, const Flags& f) {
  if (!f.has("in")) die("check: --in is required");
  const std::optional<check::ContractMode> mode =
      check::parse_contract_mode(f.get("mode", "count"));
  if (!mode) die("check: --mode must be off|count|log|abort");
  // The validators record findings in their report regardless of the
  // contract mode; the mode chooses the side channel (metrics bus,
  // stderr, or throw-on-first).
  const check::ScopedContractMode scoped(*mode);

  if (what == "trace") {
    const trace::Trace t = load_trace(f.get("in"));
    const wlan::Network net = network_from(f);
    check::CheckReport report = check::validate_trace(t, &net);
    if (t.fully_assigned()) {
      report.merge(check::validate_load_state(net, t));
    }
    return report_outcome(report, f.get("in"));
  }
  if (what == "fault-plan") {
    // Parse errors carry the offending line number; exit non-zero on
    // either a malformed file or a plan the validators reject.
    const fault::FaultPlanParseResult pr =
        fault::read_fault_plan_file(f.get("in"));
    if (!pr.ok()) {
      std::cerr << "check failed: " << pr.error << "\n";
      return 1;
    }
    // Controller/AP ids are only checkable against a topology; pass one
    // when the operator pinned it down.
    std::optional<wlan::Network> net;
    if (f.has("buildings") || f.has("aps")) net = network_from(f);
    const check::CheckReport report =
        check::validate_fault_plan(pr.plan, net ? &*net : nullptr);
    return report_outcome(report, f.get("in"));
  }
  if (what == "model") {
    social::ModelReadResult mr = social::load_model(f.get("in"));
    if (!mr.model) die("cannot read model: " + mr.error);
    check::SocialGraphCheckOptions opts;
    opts.theta_threshold = f.real("threshold", opts.theta_threshold);
    check::CheckReport report = check::validate_social_graph(*mr.model, opts);
    const social::WeightedGraph graph =
        social::build_theta_graph(*mr.model, opts.theta_threshold);
    report.merge(check::validate_social_graph(graph, &*mr.model, opts));
    if (f.has("cover")) {
      report.merge(
          check::validate_clique_cover(graph, load_cover_file(f.get("cover"))));
    }
    if (f.has("stale-days")) {
      if (!f.has("now-day")) die("check model: --stale-days needs --now-day");
      report.merge(check::validate_model_freshness(
          *mr.model, util::SimTime::from_days(f.num("now-day", 0)),
          util::SimTime::from_days(f.num("stale-days", 0))));
    }
    return report_outcome(report, f.get("in"));
  }
  die("check: unknown target \"" + what +
      "\" (expected trace|model|fault-plan)");
}

void usage() {
  std::cout <<
      "usage: s3lb <generate|replay|serve|train|compare|check> [--flag value ...]\n"
      "  generate --out FILE [--users N --days D --buildings B --aps K --seed S]\n"
      "  replay   --in FILE --out FILE\n"
      "           --policy llf|llf-demand|llf-stations|rssi|random|s3|s3-online\n"
      "           [--model FILE --model-format auto|text|binary]\n"
      "           [--buildings B --aps K --window SECONDS]\n"
      "           [--threads N --metrics --check off|count|log|abort]\n"
      "           [--fault-plan FILE --fault-seed S]\n"
      "           [--replicas N --heartbeat SECONDS]\n"
      "           [--snapshot-every RECORDS --truncate]\n"
      "  serve    --policy llf|llf-demand|llf-stations|rssi|random|s3\n"
      "           [--model FILE --model-format auto|text|binary]\n"
      "           [--buildings B --aps K --in FILE --out FILE --seed S]\n"
      "           [--fault-plan FILE --fault-seed S --metrics]\n"
      "  train    --in ASSIGNED --out MODEL [--model-format text|binary]\n"
      "           [--alpha A --coleave-min M --history D]\n"
      "  compare  [--users N --days D --buildings B --aps K --seed S --train D --test D]\n"
      "  check    trace --in FILE [--buildings B --aps K --mode M]\n"
      "  check    model --in FILE [--threshold T --cover FILE --mode M]\n"
      "           [--stale-days D --now-day N]\n"
      "  check    fault-plan --in FILE [--buildings B --aps K --mode M]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "check") {
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        die("check: expected `s3lb check <trace|model|fault-plan> --in FILE "
            "...`");
      }
      const std::string what = argv[2];
      if (what != "trace" && what != "model" && what != "fault-plan") {
        die("check: unknown target \"" + what +
            "\" (expected trace|model|fault-plan)");
      }
      const std::span<const ArgSpec> specs =
          what == "trace"        ? std::span<const ArgSpec>(kCheckTraceSpecs)
          : what == "fault-plan" ? std::span<const ArgSpec>(kCheckFaultPlanSpecs)
                                 : std::span<const ArgSpec>(kCheckModelSpecs);
      return cmd_check(what, parse_or_die(specs, argc, argv, 3));
    }
    if (cmd == "generate") {
      return cmd_generate(parse_or_die(kGenerateSpecs, argc, argv, 2));
    }
    if (cmd == "replay") {
      return cmd_replay(parse_or_die(kReplaySpecs, argc, argv, 2));
    }
    if (cmd == "serve") {
      return cmd_serve(parse_or_die(kServeSpecs, argc, argv, 2));
    }
    if (cmd == "train") {
      return cmd_train(parse_or_die(kTrainSpecs, argc, argv, 2));
    }
    if (cmd == "compare") {
      return cmd_compare(parse_or_die(kCompareSpecs, argc, argv, 2));
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  usage();
  return 2;
}
