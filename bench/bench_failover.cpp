// Failover bench — what a controller crash costs at 0, 1 and 2 backup
// replicas, under the canned controller-churn schedule.
//
// The test window is replayed with S3 (trained on the LLF-collected
// window) three times through the replicated driver, varying only the
// backup count, next to an outage-free baseline. For each run we report
// the scored balance index β′ and its degradation vs the baseline, the
// sessions dropped while a domain ran headless, re-associations, and
// the replication layer's catch-up bill (records replayed, wall-clock
// latency per failover).
//
// Expected shape: with >= 1 backup the failover is lossless — β′
// matches the baseline to the last digit and nothing is dropped; with
// 0 backups every crash window drops its in-flight batch and arrivals,
// and β′ dips in proportion.
//
// Two further sections exercise the snapshot machinery:
//   - catch-up vs log length: whole-controller losses force a neighbor
//     domain to adopt from scratch. Without snapshots the adopter
//     replays the full log, so its catch-up bill grows with the window;
//     with periodic snapshots it stays bounded by the snapshot interval
//     no matter how long the run.
//   - truncation: with snapshots on and --truncate semantics enabled,
//     the live log stays a bounded suffix while the run is still
//     bit-identical to the fault-free baseline.
//
// Flags beyond the common set:
//   --quick       shrink the world (CI-sized run)
//   --out FILE    JSON destination (default BENCH_failover.json)

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "s3/analysis/balance.h"
#include "s3/core/selector_factory.h"
#include "s3/fault/fault_injector.h"
#include "s3/fault/fault_plan.h"
#include "s3/repl/replicated_driver.h"
#include "s3/util/table.h"

using namespace s3;

namespace {

/// Mean normalized balance index over the scored slots of the test
/// window (daytime, minimum-load filtered; unassigned sessions are
/// dropped — they serve no traffic).
double scored_balance(const wlan::Network& net, const trace::Trace& assigned,
                      util::SimTime begin, util::SimTime end) {
  std::vector<trace::SessionRecord> served;
  served.reserve(assigned.size());
  for (const trace::SessionRecord& s : assigned.sessions()) {
    if (s.assigned()) served.push_back(s);
  }
  const trace::Trace survivors(assigned.num_users(), assigned.num_days(),
                               std::move(served));
  const analysis::ThroughputSeries series(net, survivors, begin, end);

  double sum = 0.0;
  std::size_t count = 0;
  for (ControllerId c = 0; c < net.num_controllers(); ++c) {
    for (std::size_t slot = 0; slot < series.num_slots(); ++slot) {
      const double hour =
          static_cast<double>(series.slot_begin(slot).second_of_day()) /
          3600.0;
      if (hour < 8.0) continue;
      if (series.total_load(c, slot) < 5.0) continue;
      sum += analysis::normalized_balance_index(series.slot_load(c, slot));
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

struct ReplicaRun {
  std::size_t backups = 0;
  double balance = 0.0;
  double degradation = 0.0;  ///< baseline β′ − this run's β′
  std::size_t dropped = 0;
  std::size_t reassociations = 0;
  std::size_t failovers = 0;
  std::size_t headless_windows = 0;
  std::uint64_t log_records = 0;
  std::uint64_t catchup_records = 0;
  double catchup_ms_mean = 0.0;  ///< per failover + rejoin
  bool lossless = false;         ///< assignment identical to baseline
};

/// One row of the catch-up-vs-log-length sweep: the same loss schedule
/// replayed over a growing window, with and without snapshots.
struct CatchupRow {
  int days = 0;
  std::uint64_t log_records = 0;          ///< snapshot-free run's log
  std::uint64_t max_catchup_plain = 0;    ///< snapshot_every = 0
  std::uint64_t max_catchup_snapshot = 0; ///< bounded by the interval
};

bool same_assignment(const trace::Trace& a, const trace::Trace& b) {
  return a.sessions().size() == b.sessions().size() &&
         std::equal(a.sessions().begin(), a.sessions().end(),
                    b.sessions().begin(),
                    [](const trace::SessionRecord& x,
                       const trace::SessionRecord& y) { return x.ap == y.ap; });
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr util::ArgSpec kExtra[] = {
      {"quick", util::ArgKind::kFlag, "CI-sized run"},
      {"out", util::ArgKind::kString, "JSON output (BENCH_failover.json)"},
  };
  const util::ParsedArgs raw = bench::parse_raw_args(argc, argv, kExtra);
  const bench::BenchArgs args = bench::common_args(raw);
  const bool quick = raw.has("quick");
  const std::string out_path = raw.get("out", "BENCH_failover.json");

  trace::GeneratorConfig cfg = bench::generator_config(args);
  if (quick) {
    cfg.num_users = 600;
    cfg.layout.aps_per_building = 6;
  }
  std::cerr << "generating workload: " << cfg.num_users << " users, "
            << cfg.layout.num_buildings << " buildings (seed " << cfg.seed
            << ")\n";
  const trace::GeneratedTrace world = trace::generate_campus_trace(cfg);
  const wlan::Network& net = world.network;
  const core::EvaluationConfig eval = bench::evaluation_config(args);

  std::cerr << "training social model on the LLF-collected window...\n";
  const social::SocialIndexModel model =
      core::train_from_workload(net, world.workload, eval);

  const util::SimTime begin = util::SimTime::from_days(eval.train_days);
  const util::SimTime end =
      util::SimTime::from_days(eval.train_days + eval.test_days);
  const trace::Trace test = world.workload.slice(begin, end);

  const fault::FaultPlan plan =
      fault::canned_controller_churn_plan(net, begin, end);
  const fault::FaultInjector injector(plan, args.seed);

  core::SelectorSpec spec;
  spec.net = &net;
  spec.model = &model;
  spec.llf_metric = eval.baseline_metric;
  const std::unique_ptr<sim::SelectorFactory> factory =
      core::make_selector_factory("s3", spec);

  // Outage-free baseline through the plain driver.
  runtime::ReplayDriverConfig base_rc;
  base_rc.replay = eval.replay;
  base_rc.threads = args.threads;
  const sim::ReplayResult baseline =
      runtime::ReplayDriver(net, base_rc).run(test, *factory);
  const double base_beta = scored_balance(net, baseline.assigned, begin, end);
  std::cerr << "baseline beta' " << util::fmt(base_beta, 4) << "\n";

  std::vector<ReplicaRun> runs;
  for (const std::size_t backups : {0UL, 1UL, 2UL}) {
    repl::ReplicatedDriverConfig rc;
    rc.replay = eval.replay;
    rc.threads = args.threads;
    rc.injector = &injector;
    rc.repl.backups = backups;
    const repl::ReplicatedReplayResult rr =
        repl::ReplicatedReplayDriver(net, rc).run(test, *factory);
    ReplicaRun run;
    run.backups = backups;
    run.balance = scored_balance(net, rr.result.assigned, begin, end);
    run.degradation = base_beta - run.balance;
    run.dropped = rr.result.stats.dropped_sessions;
    run.reassociations = rr.result.stats.reassociations;
    run.failovers = rr.repl.failovers;
    run.headless_windows = rr.repl.headless_windows;
    run.log_records = rr.repl.log_records;
    run.catchup_records = rr.repl.catchup_records;
    const std::size_t catchups = rr.repl.failovers + rr.repl.rejoins;
    run.catchup_ms_mean =
        catchups > 0 ? static_cast<double>(rr.repl.catchup_wall_ns) / 1e6 /
                           static_cast<double>(catchups)
                     : 0.0;
    run.lossless = same_assignment(rr.result.assigned, baseline.assigned);
    runs.push_back(run);
    std::cerr << "replicas " << backups << ": beta' "
              << util::fmt(run.balance, 4) << " dropped " << run.dropped
              << (run.lossless ? " (lossless)" : "") << "\n";
  }

  // --- Catch-up vs log length -------------------------------------
  // Whole-controller losses over a growing slice of the test window.
  // The adopting neighbor re-seeds from scratch, so without snapshots
  // its catch-up replays the entire log to date; with snapshots the
  // bill is capped by the interval regardless of window length.
  const std::uint64_t snap_every = quick ? 150 : 400;
  std::vector<CatchupRow> scaling;
  for (int d = 1; d <= eval.test_days; ++d) {
    const util::SimTime slice_end = util::SimTime::from_days(
        static_cast<std::int64_t>(eval.train_days) + d);
    const trace::Trace window = world.workload.slice(begin, slice_end);
    const fault::FaultPlan loss_plan =
        fault::canned_controller_loss_plan(net, begin, slice_end);
    const fault::FaultInjector loss_injector(loss_plan, args.seed);
    CatchupRow row;
    row.days = d;
    for (const bool snapshots : {false, true}) {
      repl::ReplicatedDriverConfig rc;
      rc.replay = eval.replay;
      rc.threads = args.threads;
      rc.injector = &loss_injector;
      rc.repl.backups = 1;
      rc.repl.snapshot_every = snapshots ? snap_every : 0;
      const repl::ReplicatedReplayResult rr =
          repl::ReplicatedReplayDriver(net, rc).run(window, *factory);
      if (snapshots) {
        row.max_catchup_snapshot = rr.repl.max_catchup_records;
      } else {
        row.max_catchup_plain = rr.repl.max_catchup_records;
        row.log_records = rr.repl.log_records;
      }
    }
    scaling.push_back(row);
    std::cerr << "catch-up @ " << d << "d: log " << row.log_records
              << ", max catch-up " << row.max_catchup_plain
              << " plain vs " << row.max_catchup_snapshot << " snapshotted\n";
  }

  // --- Truncation --------------------------------------------------
  // Same churn schedule as the headline table, snapshots + truncation
  // on: the live log must shrink to a bounded suffix while the final
  // assignment stays bit-identical to the fault-free baseline.
  repl::ReplicatedDriverConfig trunc_rc;
  trunc_rc.replay = eval.replay;
  trunc_rc.threads = args.threads;
  trunc_rc.injector = &injector;
  trunc_rc.repl.backups = 2;
  trunc_rc.repl.snapshot_every = snap_every;
  trunc_rc.repl.truncate = true;
  const repl::ReplicatedReplayResult trunc =
      repl::ReplicatedReplayDriver(net, trunc_rc).run(test, *factory);
  const bool trunc_lossless =
      same_assignment(trunc.result.assigned, baseline.assigned);
  std::cerr << "truncation: " << trunc.repl.truncated_records
            << " records dropped, " << trunc.repl.live_log_records
            << " live of " << trunc.repl.log_records
            << (trunc_lossless ? " (lossless)" : " (DIVERGED)") << "\n";

  std::cout << "# Failover: beta' and failover ledger vs backup count\n";
  util::TextTable table({"backups", "balance_index", "degradation", "dropped",
                         "reassociations", "failovers", "headless",
                         "catchup_records", "catchup_ms_mean", "lossless"});
  for (const ReplicaRun& run : runs) {
    table.add_row({std::to_string(run.backups), util::fmt(run.balance, 4),
                   util::fmt(run.degradation, 4), std::to_string(run.dropped),
                   std::to_string(run.reassociations),
                   std::to_string(run.failovers),
                   std::to_string(run.headless_windows),
                   std::to_string(run.catchup_records),
                   util::fmt(run.catchup_ms_mean, 3),
                   run.lossless ? "yes" : "no"});
  }
  std::cout << table.to_csv();

  std::cout << "# Catch-up vs log length (controller losses, 1 backup)\n";
  util::TextTable scale_table({"days", "log_records", "max_catchup_plain",
                               "max_catchup_snapshot", "snapshot_every"});
  for (const CatchupRow& row : scaling) {
    scale_table.add_row({std::to_string(row.days),
                         std::to_string(row.log_records),
                         std::to_string(row.max_catchup_plain),
                         std::to_string(row.max_catchup_snapshot),
                         std::to_string(snap_every)});
  }
  std::cout << scale_table.to_csv();

  std::cout << "# Truncation (churn plan, 2 backups, snapshots on)\n";
  util::TextTable trunc_table({"log_records", "truncated_records",
                               "live_log_records", "snapshots", "lossless"});
  trunc_table.add_row({std::to_string(trunc.repl.log_records),
                       std::to_string(trunc.repl.truncated_records),
                       std::to_string(trunc.repl.live_log_records),
                       std::to_string(trunc.repl.snapshots),
                       trunc_lossless ? "yes" : "no"});
  std::cout << trunc_table.to_csv();

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"failover\",\n"
       << "  \"scale\": \"" << args.scale << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"num_users\": " << cfg.num_users << ",\n"
       << "  \"policy\": \"s3\",\n"
       << "  \"plan\": \"controller-churn (4 x 2h, test window)\",\n"
       << "  \"baseline_balance_index\": " << util::fmt(base_beta, 6) << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ReplicaRun& run = runs[i];
    json << "    {\n"
         << "      \"backups\": " << run.backups << ",\n"
         << "      \"balance_index\": " << util::fmt(run.balance, 6) << ",\n"
         << "      \"balance_degradation\": " << util::fmt(run.degradation, 6)
         << ",\n"
         << "      \"dropped_sessions\": " << run.dropped << ",\n"
         << "      \"reassociations\": " << run.reassociations << ",\n"
         << "      \"failovers\": " << run.failovers << ",\n"
         << "      \"headless_windows\": " << run.headless_windows << ",\n"
         << "      \"log_records\": " << run.log_records << ",\n"
         << "      \"catchup_records\": " << run.catchup_records << ",\n"
         << "      \"catchup_ms_mean\": " << util::fmt(run.catchup_ms_mean, 4)
         << ",\n"
         << "      \"lossless\": " << (run.lossless ? "true" : "false") << "\n"
         << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"snapshot_every\": " << snap_every << ",\n"
       << "  \"catchup_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const CatchupRow& row = scaling[i];
    json << "    {\n"
         << "      \"days\": " << row.days << ",\n"
         << "      \"log_records\": " << row.log_records << ",\n"
         << "      \"max_catchup_plain\": " << row.max_catchup_plain << ",\n"
         << "      \"max_catchup_snapshot\": " << row.max_catchup_snapshot
         << "\n"
         << "    }" << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"truncation\": {\n"
       << "    \"log_records\": " << trunc.repl.log_records << ",\n"
       << "    \"truncated_records\": " << trunc.repl.truncated_records
       << ",\n"
       << "    \"live_log_records\": " << trunc.repl.live_log_records << ",\n"
       << "    \"snapshots\": " << trunc.repl.snapshots << ",\n"
       << "    \"snapshot_installs\": " << trunc.repl.snapshot_installs
       << ",\n"
       << "    \"adoptions\": " << trunc.repl.adoptions << ",\n"
       << "    \"lossless\": " << (trunc_lossless ? "true" : "false") << "\n"
       << "  }\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  bench::maybe_dump_metrics(args);
  return 0;
}
