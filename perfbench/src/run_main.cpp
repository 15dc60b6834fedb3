// perfbench_run — the measured process. Runs one workload over the
// inputs perfbench_gen wrote and prints one JSON object on stdout:
// metrics (value, unit, sample count), output checks, operations
// attempted and failed, and the build it ran on.
//
//   perfbench_run --workload W --scale S --seed N --inputs DIR
//                 --seconds T --trace 0|1 [--social-every K]
//                 [--spans-out FILE]
#include <charconv>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "s3/util/argspec.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr s3::util::ArgSpec kSpecs[] = {
      {"workload", s3::util::ArgKind::kString, "workload name"},
      {"scale", s3::util::ArgKind::kString, "full|small|tiny"},
      {"seed", s3::util::ArgKind::kInt, "input seed"},
      {"inputs", s3::util::ArgKind::kString, "perfbench_gen output directory"},
      {"seconds", s3::util::ArgKind::kReal, "timed seconds"},
      {"trace", s3::util::ArgKind::kInt, "0 = untraced, 1 = traced"},
      {"social-every", s3::util::ArgKind::kInt, "serve-social request period"},
      {"spans-out", s3::util::ArgKind::kString, "CSV file for the spans"},
  };
  const s3::util::ArgParseResult parsed =
      s3::util::parse_args(kSpecs, argc, argv, 1);
  const s3::util::ParsedArgs& a = parsed.args;
  if (!parsed.ok() || !a.has("workload") || !a.has("scale") || !a.has("seed") ||
      !a.has("inputs") || !a.has("seconds")) {
    std::cerr << (parsed.ok() ? "missing flag" : parsed.error) << "\n"
              << "usage: perfbench_run --workload W --scale S --seed N "
                 "--inputs DIR --seconds T [--trace 0|1]\n";
    return 2;
  }
  perfbench::RunOptions o;
  o.workload = a.get("workload");
  o.scale = a.get("scale");
  o.seed = static_cast<std::uint64_t>(a.num("seed", 0));
  o.inputs_dir = a.get("inputs");
  o.seconds = a.real("seconds", 10.0);
  o.traced = a.num("trace", 0) != 0;
  o.social_every = static_cast<std::size_t>(a.num("social-every", 0));
  if (o.seconds <= 0.0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }

  perfbench::Report r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << e.what() << "\n";
    return 1;
  }
  if (o.traced && a.has("spans-out") &&
      !perfbench::SpanRecorder::instance().write_csv(a.get("spans-out"))) {
    std::cerr << "perfbench_run: cannot write " << a.get("spans-out") << "\n";
    return 1;
  }

  std::ostringstream out;
  out << "{\"workload\":" << json_string(o.workload)
      << ",\"traced\":" << (o.traced ? "true" : "false")
      << ",\"passes\":" << r.passes << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"digest\":" << json_string(std::to_string(r.digest))
      << ",\"build\":{\"compiler\":" << json_string(compiler())
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out << (i ? "," : "") << json_string(m.name)
        << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples
        << "}";
  }
  out << "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const perfbench::Check& c = r.checks[i];
    out << (i ? "," : "") << "{\"name\":" << json_string(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << json_string(c.detail) << "}";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}
