// perfbench_gen — writes every input of one (scale, seed) pair.
//
//   perfbench_gen --scale full|small|tiny --seed N --out DIR
//
// DIR receives the 24-day workload trace, its test-window slice, the
// social model trained on the LLF-collected training window (text and
// binary), and the serve event streams. Everything is a pure function
// of (scale, seed).
#include <iostream>
#include <string>

#include "inputs.h"
#include "s3/core/evaluation.h"
#include "s3/social/model_io.h"
#include "s3/trace/binary_io.h"
#include "s3/util/argspec.h"

int main(int argc, char** argv) {
  static constexpr s3::util::ArgSpec kSpecs[] = {
      {"scale", s3::util::ArgKind::kString, "full|small|tiny"},
      {"seed", s3::util::ArgKind::kInt, "generator seed"},
      {"out", s3::util::ArgKind::kString, "output directory"},
  };
  const s3::util::ArgParseResult parsed =
      s3::util::parse_args(kSpecs, argc, argv, 1);
  if (!parsed.ok() || !parsed.args.has("scale") || !parsed.args.has("seed") ||
      !parsed.args.has("out")) {
    std::cerr << (parsed.ok() ? "missing flag" : parsed.error) << "\n"
              << "usage: perfbench_gen --scale S --seed N --out DIR\n";
    return 2;
  }
  const std::string dir = parsed.args.get("out") + "/";
  try {
    const std::string scale = parsed.args.get("scale");
    const s3::trace::GeneratorConfig cfg = perfbench::generator_config(
        scale, static_cast<std::uint64_t>(parsed.args.num("seed", 0)));
    const s3::trace::GeneratedTrace world =
        s3::trace::generate_campus_trace(cfg);
    const s3::trace::Trace test =
        world.workload.slice(perfbench::test_begin(), perfbench::test_end());

    s3::core::EvaluationConfig eval;
    eval.train_days = perfbench::kTrainDays;
    eval.test_days = perfbench::kTestDays;
    eval.threads = perfbench::kWorkers;
    const s3::social::SocialIndexModel model =
        s3::core::train_from_workload(world.network, world.workload, eval);

    const bool ok =
        s3::trace::write_binary_file(dir + perfbench::kWorkloadFile,
                                     world.workload) &&
        s3::trace::write_binary_file(dir + perfbench::kTestFile, test) &&
        s3::social::save_model(dir + perfbench::kTextModelFile, model,
                               s3::social::ModelFormat::kTextV1) &&
        s3::social::save_model(dir + perfbench::kBinaryModelFile, model,
                               s3::social::ModelFormat::kBinaryV1) &&
        perfbench::write_streams(
            dir + perfbench::kStreamSharded,
            perfbench::build_serve_streams(world.network, test,
                                           perfbench::kWorkers)) &&
        perfbench::write_streams(
            dir + perfbench::kStreamSequential,
            perfbench::build_serve_streams(world.network, test, 1));
    if (!ok) {
      std::cerr << "perfbench_gen: cannot write into " << dir << "\n";
      return 1;
    }
    std::cerr << "perfbench_gen: " << world.workload.size() << " sessions ("
              << test.size() << " in the test window), "
              << model.pair_stats().size() << " model pairs\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
