// The four benchmark workloads, run inside the measured process.
//
// Every workload has the same shape: set up (timed, repeated for a
// median), then run complete passes over its test window until the
// requested seconds are spent, then check the outputs. A traced run
// sets up once with spans on, runs one untraced reference pass and one
// traced pass, and reports per-layer metrics plus the overhead between
// the two passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::string scale;
  std::string inputs_dir;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  /// serve-social: one `social` request every this many arrivals.
  std::size_t social_every = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;  ///< what failed, empty when ok
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t passes = 0;
  std::uint64_t digest = 0;  ///< placements of the first (or traced) pass

  void metric(std::string name, double value, std::string unit,
              std::uint64_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, ok ? std::string() : std::move(detail)});
  }
};

/// Runs one workload. Throws on unreadable inputs or an unknown name.
Report run_workload(const RunOptions& options);

}  // namespace perfbench
