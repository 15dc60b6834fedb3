// Benchmark inputs: campus scales, the per-seed input directory layout
// and the serve event-stream file format.
//
// perfbench_gen writes every input of one (scale, seed) pair into one
// directory; perfbench_run only reads them. Keeping generation in its
// own process keeps its allocations out of the measured process's peak
// RSS and its time out of every measured phase.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "s3/trace/generator.h"
#include "s3/trace/trace.h"
#include "s3/util/sim_time.h"
#include "s3/wlan/network.h"

namespace perfbench {

inline constexpr int kTrainDays = 21;
inline constexpr int kTestDays = 3;
/// Replay threads and serve workers of the full-campus workloads
/// (serve-social replays its stream on one).
inline constexpr unsigned kWorkers = 2;

/// "full": the SJTU deployment (12,374 users, 22 controller domains);
/// "small": 2,400 users in 8 domains; "tiny": a smoke-test campus.
/// Throws std::invalid_argument on any other name.
s3::trace::GeneratorConfig generator_config(const std::string& scale,
                                            std::uint64_t seed);

inline s3::util::SimTime test_begin() {
  return s3::util::SimTime::from_days(kTrainDays);
}
inline s3::util::SimTime test_end() {
  return s3::util::SimTime::from_days(kTrainDays + kTestDays);
}

// Files of one input directory.
inline constexpr const char* kWorkloadFile = "workload.bin";  // 24 days, unassigned
inline constexpr const char* kTestFile = "test.bin";          // test-window slice
inline constexpr const char* kTextModelFile = "model.txt";    // s3lb train default
inline constexpr const char* kBinaryModelFile = "model.bin";
/// Serve stream split across kWorkers workers by controller domain.
inline constexpr const char* kStreamSharded = "stream-sharded.bin";
/// The same events as one time-ordered stream (`s3lb serve` on stdin).
inline constexpr const char* kStreamSequential = "stream-sequential.bin";

/// One serve request: session `session` of the test trace arrives at
/// its connect time or departs at its disconnect time.
struct StreamEvent {
  std::uint32_t session = 0;
  std::uint8_t depart = 0;  ///< 0 = arrive, 1 = depart
};

/// Per-worker event streams; worker w replays events[w] in order.
struct ServeStreams {
  std::vector<std::vector<StreamEvent>> events;
};

/// Time-ordered arrive/depart events of `test`, partitioned into
/// `workers` streams by controller domain: domains are dealt to workers
/// largest-first (ties by id), each worker taking the domain while its
/// event count is the smallest, so every worker owns a fixed, disjoint
/// domain set. Within a stream, departures precede arrivals at equal
/// times (the replay engine's tie order), then session index.
ServeStreams build_serve_streams(const s3::wlan::Network& net,
                                 const s3::trace::Trace& test,
                                 unsigned workers);

bool write_streams(const std::string& path, const ServeStreams& streams);
/// Throws std::runtime_error on a missing or malformed file.
ServeStreams read_streams(const std::string& path);

}  // namespace perfbench
