// Partition-torture harness for the replication layer.
//
// Replays a fixed mini campus under N seeded fault schedules — each a
// random cocktail of per-domain controller outages, whole-replica-set
// controller losses, AP churn, model outages and admission failures,
// with randomized backup counts, snapshot intervals, truncation,
// heartbeat periods and election seeds. Every schedule must satisfy:
//
//   1. convergence — every failover/rejoin/adoption/handback event in
//      the ledger replays to a bit-identical engine (converged flag);
//   2. zero lost sessions — with >= 1 backup (or an adopting neighbor
//      for whole-set losses) the assignment and stats are identical,
//      session by session, to the same run with the controller faults
//      stripped out;
//   3. bounded catch-up — with snapshots every K records, no single
//      catch-up replays more than 2K + slack records, no matter where
//      the crash landed;
//   4. truncation accounting — live + truncated == total appended; and
//   5. schedule determinism — re-running a schedule across a different
//      thread count reproduces the same bytes (spot-checked).
//
// The harness is deterministic end to end: schedule i under --seed S is
// the same torture run on every machine. Exits non-zero on the first
// failing schedule, after printing the per-schedule ledger (also
// written to --ledger for CI artifact upload).
//
// Flags:
//   --schedules N   seeded schedules to run (default 25)
//   --seed S        torture seed (default 1)
//   --threads N     replay workers per run (default 4)
//   --ledger FILE   write the per-schedule ledger to FILE too
//   --verbose       echo every failover event, not just summaries

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "s3/core/evaluation.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/runtime/replay_driver.h"
#include "s3/trace/generator.h"
#include "s3/util/argspec.h"
#include "s3/util/rng.h"

using namespace s3;

namespace {

/// Everything one seeded schedule varies: the fault plan plus the
/// replication knobs it is replayed under.
struct Schedule {
  std::size_t index = 0;
  fault::FaultPlan plan;
  std::uint64_t fault_seed = 1;
  std::size_t backups = 1;
  repl::ReplicationConfig repl;
  bool losses = false;  ///< plan includes whole-replica-set losses
};

/// Draw in [lo, hi] inclusive.
std::int64_t draw(util::SplitMix64& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(rng.next() %
                                        static_cast<std::uint64_t>(hi - lo + 1));
}

/// One randomized schedule. Same-controller outage and loss windows are
/// kept disjoint by construction (outages live in the morning, losses
/// in the late afternoon), and losses are staggered one domain per day
/// so the deterministic adopter candidate is always alive.
Schedule make_schedule(const wlan::Network& net, const trace::Trace& workload,
                       std::uint64_t torture_seed, std::size_t index) {
  util::SplitMix64 rng(torture_seed ^ (0x7031A7u + index * 0x9E3779B97F4A7C15ULL));
  Schedule s;
  s.index = index;

  const util::SimTime end = workload.end_time();
  const std::int64_t days = end.seconds() / 86400;
  for (ControllerId c = 0; c < net.num_controllers(); ++c) {
    // Morning outage on a random day, 1-4 h starting 08:00-10:00 —
    // ends by 14:00, always clear of the 15:00+ loss band below.
    if (draw(rng, 0, 3) != 0) {  // 75% of domains crash
      const std::int64_t day = draw(rng, 0, days - 1) * 86400;
      const std::int64_t begin = day + draw(rng, 8, 10) * 3600;
      const std::int64_t len = draw(rng, 1, 4) * 3600;
      s.plan.controller_outages.push_back(
          {c, util::SimTime(begin), util::SimTime(begin + len)});
    }
    // Whole-replica-set loss in the 15:00-21:00 band of day (c % days):
    // distinct controllers land on distinct days, so windows never
    // overlap across domains and an adopter always exists.
    if (draw(rng, 0, 2) != 0) {  // 2/3 of domains lose the full set
      const std::int64_t day =
          (static_cast<std::int64_t>(c) % days) * 86400;
      const std::int64_t begin = day + draw(rng, 15, 17) * 3600;
      const std::int64_t len = draw(rng, 1, 3) * 3600;
      s.plan.controller_losses.push_back(
          {c, util::SimTime(begin), util::SimTime(begin + len)});
      s.losses = true;
    }
  }
  // Background chaos: AP churn always, model outage and admission
  // failures on some schedules.
  const fault::FaultPlan ap = fault::canned_ap_churn_plan(
      net, util::SimTime(0), end, static_cast<std::size_t>(draw(rng, 2, 5)),
      draw(rng, 1, 3) * 3600);
  s.plan.ap_outages = ap.ap_outages;
  if (draw(rng, 0, 1) == 0) {
    s.plan.model_outages =
        fault::canned_model_outage_plan(util::SimTime(0), end).model_outages;
  }
  if (draw(rng, 0, 1) == 0) {
    s.plan.admission.failure_probability =
        static_cast<double>(draw(rng, 1, 3)) / 10.0;
    s.plan.admission.begin = util::SimTime(end.seconds() / 4);
    s.plan.admission.end = util::SimTime(end.seconds() / 2);
  }

  s.fault_seed = rng.next();
  s.backups = static_cast<std::size_t>(draw(rng, 1, 2));
  s.repl.election_seed = rng.next();
  s.repl.heartbeat_s = draw(rng, 0, 1) == 0 ? 300 : 900;
  static constexpr std::int64_t kIntervals[] = {0, 25, 60, 150};
  s.repl.snapshot_every = static_cast<std::uint64_t>(
      kIntervals[draw(rng, 0, 3)]);
  s.repl.truncate = s.repl.snapshot_every > 0 && draw(rng, 0, 1) == 0;
  return s;
}

std::string describe(const Schedule& s) {
  std::ostringstream os;
  os << "schedule " << s.index << ": outages " << s.plan.controller_outages.size()
     << ", losses " << s.plan.controller_losses.size() << ", backups "
     << s.backups << ", snapshot-every " << s.repl.snapshot_every
     << (s.repl.truncate ? " +truncate" : "") << ", heartbeat "
     << s.repl.heartbeat_s << "s";
  return os.str();
}

/// Strip the controller faults: the transparency baseline keeps every
/// other fault class so the comparison isolates the replication layer.
fault::FaultPlan without_controller_faults(const fault::FaultPlan& plan) {
  fault::FaultPlan base = plan;
  base.controller_outages.clear();
  base.controller_losses.clear();
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kSpecs[] = {
      {"schedules", util::ArgKind::kInt, "seeded schedules (default 25)"},
      {"seed", util::ArgKind::kInt, "torture seed (default 1)"},
      {"threads", util::ArgKind::kInt, "replay workers per run (default 4)"},
      {"ledger", util::ArgKind::kString, "also write the ledger to FILE"},
      {"verbose", util::ArgKind::kFlag, "echo every failover event"},
  };
  const util::ArgParseResult parsed = util::parse_args(kSpecs, argc, argv, 1);
  if (parsed.want_help || !parsed.ok()) {
    if (!parsed.ok()) std::cerr << "error: " << parsed.error << "\n";
    std::cerr << "usage: s3lb_torture [--schedules N --seed S --threads N "
                 "--ledger FILE --verbose]\n"
              << util::format_arg_specs(kSpecs);
    return parsed.want_help ? 0 : 2;
  }
  const util::ParsedArgs& f = parsed.args;
  const std::size_t schedules =
      static_cast<std::size_t>(f.num("schedules", 25));
  const std::uint64_t seed = static_cast<std::uint64_t>(f.num("seed", 1));
  const unsigned threads = static_cast<unsigned>(f.num("threads", 4));
  const bool verbose = f.has("verbose");

  // One shared mini campus + trained model for every schedule: the
  // torture varies the faults and the replication knobs, not the world.
  trace::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.num_users = 150;
  cfg.num_days = 3;
  cfg.layout.num_buildings = 3;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);
  core::EvaluationConfig eval;
  eval.train_days = 2;
  eval.test_days = 1;
  const social::SocialIndexModel model =
      core::train_from_workload(world.network, world.workload, eval);

  std::ostringstream ledger;
  std::size_t failures = 0;
  std::uint64_t total_failovers = 0, total_adoptions = 0, total_rejoins = 0;

  for (std::size_t i = 0; i < schedules; ++i) {
    const Schedule s = make_schedule(world.network, world.workload, seed, i);

    // Rotate the policy under test: the paper's S3 selector (social
    // model + clique state in the checkpoint), the LLF baseline, S3
    // with a live model, and random. Backups commit the first three's
    // recorded batches as they are and place random's again (its
    // draws advance its RNG), so the rotation runs both replay paths.
    static constexpr const char* kPolicies[] = {"s3", "llf", "s3-online",
                                                "random"};
    core::SelectorSpec spec;
    spec.net = &world.network;
    spec.llf_metric = core::LoadMetric::kStations;
    spec.model = &model;
    spec.base_model = &model;
    const std::unique_ptr<sim::SelectorFactory> factory =
        core::make_selector_factory(kPolicies[i % 4], spec);

    const fault::FaultInjector injector(s.plan, s.fault_seed);
    repl::ReplicatedDriverConfig rc;
    rc.threads = threads;
    rc.injector = &injector;
    rc.repl = s.repl;
    rc.repl.backups = s.backups;
    const repl::ReplicatedReplayResult rr =
        repl::ReplicatedReplayDriver(world.network, rc)
            .run(world.workload, *factory);

    const fault::FaultInjector base_injector(
        without_controller_faults(s.plan), s.fault_seed);
    runtime::ReplayDriverConfig base_rc;
    base_rc.threads = threads;
    base_rc.injector = &base_injector;
    const sim::ReplayResult baseline =
        runtime::ReplayDriver(world.network, base_rc)
            .run(world.workload, *factory);

    std::vector<std::string> errors;

    // 1. Convergence: every ledger event must have replayed to a
    //    bit-identical engine.
    for (const repl::FailoverEvent& ev : rr.failovers) {
      if (!ev.converged) {
        std::ostringstream os;
        os << "DIVERGED at t=" << ev.when.seconds() << "s domain "
           << ev.domain;
        errors.push_back(os.str());
      }
    }

    // 2. Transparency: identical to the controller-fault-free run,
    //    session by session — zero sessions lost to the fault windows.
    if (rr.result.assigned.size() != baseline.assigned.size()) {
      errors.push_back("assignment size mismatch vs baseline");
    } else {
      for (std::size_t k = 0; k < baseline.assigned.size(); ++k) {
        if (rr.result.assigned.session(k).ap !=
            baseline.assigned.session(k).ap) {
          std::ostringstream os;
          os << "session " << k << " assigned "
             << rr.result.assigned.session(k).ap << " vs baseline "
             << baseline.assigned.session(k).ap;
          errors.push_back(os.str());
          break;
        }
      }
    }
    if (!(rr.result.stats == baseline.stats)) {
      errors.push_back("replay stats diverge from baseline");
    }

    // 3. Bounded catch-up: one snapshot interval of slack for the
    //    install point plus control records.
    if (s.repl.snapshot_every > 0 &&
        rr.repl.max_catchup_records > 2 * s.repl.snapshot_every + 64) {
      std::ostringstream os;
      os << "catch-up " << rr.repl.max_catchup_records
         << " records exceeds bound 2*" << s.repl.snapshot_every << "+64";
      errors.push_back(os.str());
    }

    // 4. Truncation accounting.
    if (rr.repl.live_log_records + rr.repl.truncated_records !=
        rr.repl.log_records) {
      errors.push_back("live + truncated != total log records");
    }
    if (!s.repl.truncate && rr.repl.truncated_records != 0) {
      errors.push_back("records truncated with truncation off");
    }

    // 5. Spot-check determinism across thread counts.
    if (i % 5 == 0) {
      repl::ReplicatedDriverConfig rc1 = rc;
      rc1.threads = 1;
      const repl::ReplicatedReplayResult again =
          repl::ReplicatedReplayDriver(world.network, rc1)
              .run(world.workload, *factory);
      if (!(again.result.stats == rr.result.stats) ||
          again.repl.log_records != rr.repl.log_records ||
          again.failovers.size() != rr.failovers.size()) {
        errors.push_back("re-run with threads=1 diverged");
      }
    }

    total_failovers += rr.repl.failovers;
    total_adoptions += rr.repl.adoptions;
    total_rejoins += rr.repl.rejoins;

    std::ostringstream line;
    line << describe(s) << " -> " << rr.repl.failovers << " failovers, "
         << rr.repl.adoptions << " adoptions, " << rr.repl.handbacks
         << " handbacks, " << rr.repl.rejoins << " rejoins, max catch-up "
         << rr.repl.max_catchup_records << ", truncated "
         << rr.repl.truncated_records << "/" << rr.repl.log_records << ": "
         << (errors.empty() ? "ok" : "FAIL");
    ledger << line.str() << "\n";
    std::cout << line.str() << "\n";
    if (verbose || !errors.empty()) {
      for (const repl::FailoverEvent& ev : rr.failovers) {
        std::ostringstream evl;
        evl << "  t=" << ev.when.seconds() << "s domain " << ev.domain
            << " kind " << static_cast<int>(ev.kind) << " term "
            << ev.new_term << " (" << ev.records_replayed << " records"
            << (ev.snapshot_install ? ", snapshot seed" : "") << ", "
            << (ev.converged ? "converged" : "DIVERGED") << ")";
        ledger << evl.str() << "\n";
        std::cout << evl.str() << "\n";
      }
    }
    for (const std::string& e : errors) {
      ledger << "  ERROR: " << e << "\n";
      std::cerr << "  ERROR: " << e << "\n";
    }
    if (!errors.empty()) ++failures;
  }

  std::ostringstream summary;
  summary << (failures == 0 ? "TORTURE PASS" : "TORTURE FAIL") << ": "
          << schedules << " schedules, " << total_failovers << " failovers, "
          << total_adoptions << " adoptions, " << total_rejoins
          << " rejoins, " << failures << " failing";
  ledger << summary.str() << "\n";
  std::cout << summary.str() << "\n";

  if (f.has("ledger")) {
    std::ofstream out(f.get("ledger"));
    if (!out) {
      std::cerr << "cannot write " << f.get("ledger") << "\n";
      return 1;
    }
    out << ledger.str();
  }
  return failures == 0 ? 0 : 1;
}
