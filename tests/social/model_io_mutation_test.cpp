// Deterministic mutation runner for both model encodings: seeded byte
// flips, truncations, duplicated and swapped lines or rows, and
// rewritten count fields applied to a small trained model. Every mutant
// must load or return an error — never throw, hang or crash. When the
// loader accepts a mutant, the loaders it replaced (kept below as the
// reference) must accept it too and yield a model that writes the same
// bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <random>
#include <sstream>
#include <streambuf>

#include "s3/social/model_io.h"
#include "s3/trace/generator.h"
#include "s3/wlan/radio.h"

namespace s3::social {
namespace {

// ---- Reference: the getline/istringstream and per-field read loaders --

template <typename T>
bool ref_get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(is);
}

template <typename T>
bool ref_get_vec(std::istream& is, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  if (n == 0) return true;
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(is);
}

ModelReadResult reference_read_text(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "# s3lb social model v1") {
    return {std::nullopt, "missing model magic line"};
  }
  SocialModelConfig config;
  std::size_t num_users = 0, num_types = 0, num_pairs = 0;
  UserTyping typing;
  std::vector<double> matrix_values;
  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, why};
  };
  std::string key;
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> config.alpha) || key != "alpha") {
      return fail("bad alpha line");
    }
    if (config.alpha < 0.0) return fail("negative alpha");
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    std::int64_t v = 0;
    if (!(ls >> key >> v) || key != "co_leave_window_s" || v <= 0) {
      return fail("bad co_leave_window_s line");
    }
    config.events.co_leave_window = util::SimTime(v);
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    std::int64_t v = 0;
    if (!(ls >> key >> v) || key != "min_encounter_overlap_s" || v <= 0) {
      return fail("bad min_encounter_overlap_s line");
    }
    config.events.min_encounter_overlap = util::SimTime(v);
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key)) return fail("bad users line");
    if (key == "trained_end_s") {
      std::int64_t v = 0;
      if (!(ls >> v) || v < 0) return fail("bad trained_end_s line");
      config.trained_end_s = v;
      std::getline(is, line);
      ls = std::istringstream(line);
      if (!(ls >> key)) return fail("bad users line");
    }
    if (!(ls >> num_users) || key != "users" || num_users == 0) {
      return fail("bad users line");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> num_types) || key != "types" || num_types == 0) {
      return fail("bad types line");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "type_of_user") {
      return fail("bad type_of_user line");
    }
    typing.type_of_user.reserve(num_users);
    std::size_t t;
    while (ls >> t) {
      if (t >= num_types) return fail("type id out of range");
      typing.type_of_user.push_back(t);
    }
    if (typing.type_of_user.size() != num_users) {
      return fail("type_of_user arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "centroids") return fail("bad centroids line");
    double v;
    while (ls >> v) typing.centroids.push_back(v);
    if (typing.centroids.size() != num_types * apps::kNumCategories) {
      return fail("centroids arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "matrix") return fail("bad matrix line");
    double v;
    while (ls >> v) matrix_values.push_back(v);
    if (matrix_values.size() != num_types * num_types) {
      return fail("matrix arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> num_pairs) || key != "pairs") {
      return fail("bad pairs line");
    }
  }
  typing.num_types = num_types;
  TypeCoLeaveMatrix matrix(num_types);
  for (std::size_t i = 0; i < num_types; ++i) {
    for (std::size_t j = i; j < num_types; ++j) {
      const double a = matrix_values[i * num_types + j];
      const double b = matrix_values[j * num_types + i];
      if (a != b) return fail("matrix not symmetric");
      matrix.set(i, j, a);
    }
  }
  PairStore stats(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (!std::getline(is, line)) return fail("truncated pair list");
    std::istringstream ls(line);
    UserId a, b;
    PairStore::Stats ps;
    if (!(ls >> a >> b >> ps.encounters >> ps.co_leaves >> ps.co_comings)) {
      return fail("bad pair row " + std::to_string(p));
    }
    if (a >= num_users || b >= num_users || a == b) {
      return fail("pair row " + std::to_string(p) + ": bad user ids");
    }
    if (ps.co_leaves > ps.encounters) {
      return fail("pair row " + std::to_string(p) +
                  ": co_leaves exceed encounters");
    }
    stats.assign(UserPair(a, b), ps);
  }
  return {SocialIndexModel::from_parts(config, std::move(stats),
                                       std::move(typing), std::move(matrix)),
          ""};
}

ModelReadResult reference_read_binary(std::istream& is) {
  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, "binary model: " + why};
  };
  char magic[8] = {};
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, "s3lbmdl\x01", sizeof magic) != 0) {
    return fail("missing magic");
  }
  SocialModelConfig config;
  std::int64_t window_s = 0, overlap_s = 0;
  std::uint64_t num_users = 0, num_types = 0;
  if (!ref_get(is, config.alpha) || !ref_get(is, window_s) ||
      !ref_get(is, overlap_s) || !ref_get(is, config.trained_end_s) ||
      !ref_get(is, num_users) || !ref_get(is, num_types)) {
    return fail("truncated header");
  }
  if (config.alpha < 0.0) return fail("negative alpha");
  if (window_s <= 0 || overlap_s <= 0) return fail("bad event windows");
  if (num_users == 0 || num_types == 0) return fail("bad counts");
  if (config.trained_end_s < -1) return fail("bad trained_end_s");
  config.events.co_leave_window = util::SimTime(window_s);
  config.events.min_encounter_overlap = util::SimTime(overlap_s);
  UserTyping typing;
  typing.num_types = num_types;
  std::vector<std::uint32_t> types;
  if (!ref_get_vec(is, types, num_users)) return fail("truncated typing");
  typing.type_of_user.reserve(num_users);
  for (std::uint32_t t : types) {
    if (t >= num_types) return fail("type id out of range");
    typing.type_of_user.push_back(t);
  }
  if (!ref_get_vec(is, typing.centroids, num_types * apps::kNumCategories)) {
    return fail("truncated centroids");
  }
  std::vector<double> matrix_values;
  if (!ref_get_vec(is, matrix_values, num_types * num_types)) {
    return fail("truncated matrix");
  }
  TypeCoLeaveMatrix matrix(num_types);
  for (std::size_t i = 0; i < num_types; ++i) {
    for (std::size_t j = i; j < num_types; ++j) {
      const double a = matrix_values[i * num_types + j];
      const double b = matrix_values[j * num_types + i];
      if (a != b) return fail("matrix not symmetric");
      matrix.set(i, j, a);
    }
  }
  std::uint64_t num_pairs = 0;
  if (!ref_get(is, num_pairs)) return fail("truncated pair count");
  PairStore stats(num_pairs);
  for (std::uint64_t p = 0; p < num_pairs; ++p) {
    UserId a = 0, b = 0;
    PairStore::Stats ps;
    if (!ref_get(is, a) || !ref_get(is, b) || !ref_get(is, ps.encounters) ||
        !ref_get(is, ps.co_leaves) || !ref_get(is, ps.co_comings)) {
      return fail("truncated pair list");
    }
    if (a >= num_users || b >= num_users || a == b) {
      return fail("pair row " + std::to_string(p) + ": bad user ids");
    }
    if (ps.co_leaves > ps.encounters) {
      return fail("pair row " + std::to_string(p) +
                  ": co_leaves exceed encounters");
    }
    stats.assign(UserPair(a, b), ps);
  }
  return {SocialIndexModel::from_parts(config, std::move(stats),
                                       std::move(typing), std::move(matrix)),
          ""};
}

// ---- Mutants -------------------------------------------------------------

SocialIndexModel small_trained_model() {
  trace::GeneratorConfig cfg;
  cfg.seed = 19;
  cfg.num_users = 48;
  cfg.num_days = 2;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 3;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  return SocialIndexModel::train(g.workload.with_assignments(aps), {});
}

std::string text_of(const SocialIndexModel& model) {
  std::ostringstream os;
  EXPECT_TRUE(write_model(os, model));
  return os.str();
}

std::string binary_of(const SocialIndexModel& model) {
  std::ostringstream os;
  EXPECT_TRUE(write_model_binary(os, model));
  return os.str();
}

/// Values a rewritten count field takes: near the true count, at the
/// 32- and 64-bit edges, and past them.
std::vector<std::string> count_values(std::uint64_t truth) {
  return {"0",
          "1",
          std::to_string(truth - 1),
          std::to_string(truth + 1),
          std::to_string(2 * truth),
          "4294967295",
          "4294967296",
          "1099511627776",
          "9223372036854775808",
          "18446744073709551615",
          "18446744073709551616",
          "-1"};
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    lines.push_back(text.substr(at, nl - at + 1));
    at = nl + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

enum class Kind { kFlip, kTruncate, kDuplicate, kSwap, kCount };

/// One seeded mutant of a text model.
std::string mutate_text(const std::string& text, Kind kind,
                        std::mt19937_64& rng) {
  std::string out = text;
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<std::string> lines = split_lines(text);
  switch (kind) {
    case Kind::kFlip: {
      static constexpr char kBytes[] = "0123456789 \n\t-+.e\0x";
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips; ++i) {
        out[pick(out.size())] =
            pick(4) == 0 ? static_cast<char>(pick(256))
                         : kBytes[pick(sizeof kBytes - 1)];
      }
      return out;
    }
    case Kind::kTruncate:
      return out.substr(0, pick(out.size()));
    case Kind::kDuplicate: {
      const std::size_t i = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join(lines);
    }
    case Kind::kSwap: {
      const std::size_t i = pick(lines.size());
      const std::size_t j = pick(4) == 0 ? pick(lines.size())
                                         : std::min(i + 1, lines.size() - 1);
      std::swap(lines[i], lines[j]);
      return join(lines);
    }
    case Kind::kCount: {
      static constexpr const char* kKeys[] = {"users", "types", "pairs"};
      const std::string key = kKeys[pick(3)];
      for (std::string& l : lines) {
        if (l.rfind(key + " ", 0) != 0) continue;
        const std::uint64_t truth = std::stoull(l.substr(key.size() + 1));
        const std::vector<std::string> values = count_values(truth);
        l = key + " " + values[pick(values.size())] + "\n";
        break;
      }
      return join(lines);
    }
  }
  return out;
}

/// One seeded mutant of a binary model with `pairs` rows.
std::string mutate_binary(const std::string& bin, std::size_t pairs,
                          Kind kind, std::mt19937_64& rng) {
  std::string out = bin;
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t rows_at = bin.size() - 20 * pairs;
  switch (kind) {
    case Kind::kFlip: {
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips; ++i) {
        // Half the flips land in the 56-byte header and the pair count.
        const std::size_t at = pick(2) == 0
                                   ? (pick(2) == 0 ? pick(56) : rows_at - 8 +
                                                                    pick(8))
                                   : pick(out.size());
        out[at] = static_cast<char>(out[at] ^ static_cast<char>(1 + pick(255)));
      }
      return out;
    }
    case Kind::kTruncate:
      return out.substr(0, pick(out.size()));
    case Kind::kDuplicate: {
      const std::size_t i = pick(pairs);
      out.insert(rows_at + 20 * i, bin.substr(rows_at + 20 * i, 20));
      return out;
    }
    case Kind::kSwap: {
      const std::size_t i = pick(pairs);
      const std::size_t j = pick(pairs);
      std::swap_ranges(out.begin() + static_cast<std::ptrdiff_t>(rows_at + 20 * i),
                       out.begin() + static_cast<std::ptrdiff_t>(rows_at + 20 * i + 20),
                       out.begin() + static_cast<std::ptrdiff_t>(rows_at + 20 * j));
      return out;
    }
    case Kind::kCount: {
      // users at 40, types at 48, the pair count just before the rows.
      const std::size_t offsets[] = {40, 48, rows_at - 8};
      const std::size_t at = offsets[pick(3)];
      std::uint64_t truth = 0;
      std::memcpy(&truth, out.data() + at, sizeof truth);
      const std::uint64_t values[] = {0,
                                      1,
                                      truth - 1,
                                      truth + 1,
                                      2 * truth,
                                      0xffffffffULL,
                                      0x100000000ULL,
                                      1ULL << 40,
                                      1ULL << 63,
                                      ~0ULL};
      const std::uint64_t v = values[pick(std::size(values))];
      std::memcpy(out.data() + at, &v, sizeof v);
      return out;
    }
  }
  return out;
}

/// A read-only streambuf that cannot seek, like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Runs one mutant through the loader, from a sized and from an
/// unseekable stream, and against the reference.
template <typename Load, typename Reference>
void check_mutant(const std::string& mutant, Load&& load,
                  Reference&& reference, Tally& tally,
                  const std::string& what) {
  ModelReadResult got;
  try {
    std::istringstream is(mutant);
    got = load(is);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": loader threw " << e.what();
    return;
  }
  ModelReadResult piped;
  try {
    PipeBuf buf(mutant);
    std::istream is(&buf);
    piped = load(is);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": loader threw on a pipe " << e.what();
    return;
  }
  // The outcome must not depend on whether the stream can seek; the
  // message may (a sized stream fails a count before reading).
  ASSERT_EQ(got.model.has_value(), piped.model.has_value())
      << what << ": " << got.error << " / " << piped.error;
  if (!got.model) {
    EXPECT_FALSE(got.error.empty()) << what;
    EXPECT_FALSE(piped.error.empty()) << what;
    ++tally.rejected;
    return;
  }
  ++tally.accepted;
  std::istringstream ref_is(mutant);
  const ModelReadResult want = reference(ref_is);
  ASSERT_TRUE(want.model.has_value())
      << what << ": accepted a model the reference rejects: " << want.error;
  const std::string bytes = text_of(*got.model);
  EXPECT_EQ(bytes, text_of(*want.model)) << what;
  EXPECT_EQ(bytes, text_of(*piped.model)) << what;
}

constexpr Kind kKinds[] = {Kind::kFlip, Kind::kTruncate, Kind::kDuplicate,
                           Kind::kSwap, Kind::kCount};
constexpr int kMutantsPerKind = 300;

TEST(ModelIoMutation, TextMutantsLoadOrFailCleanly) {
  const SocialIndexModel model = small_trained_model();
  const std::string text = text_of(model);
  ASSERT_GT(model.pair_stats().size(), 50u);
  Tally tally;
  std::mt19937_64 rng(0x5eed);
  for (const Kind kind : kKinds) {
    for (int i = 0; i < kMutantsPerKind; ++i) {
      const std::string what = "text kind " +
                               std::to_string(static_cast<int>(kind)) +
                               " #" + std::to_string(i);
      check_mutant(mutate_text(text, kind, rng),
                   [](std::istream& is) { return read_model(is); },
                   reference_read_text, tally, what);
      if (HasFatalFailure()) return;
    }
  }
  RecordProperty("accepted", static_cast<int>(tally.accepted));
  RecordProperty("rejected", static_cast<int>(tally.rejected));
  // The runner must exercise both outcomes to mean anything.
  EXPECT_GT(tally.accepted, 20u);
  EXPECT_GT(tally.rejected, 500u);
}

TEST(ModelIoMutation, BinaryMutantsLoadOrFailCleanly) {
  const SocialIndexModel model = small_trained_model();
  const std::string bin = binary_of(model);
  const std::size_t pairs = model.pair_stats().size();
  ASSERT_GT(pairs, 50u);
  Tally tally;
  std::mt19937_64 rng(0xb1a5);
  for (const Kind kind : kKinds) {
    for (int i = 0; i < kMutantsPerKind; ++i) {
      const std::string what = "binary kind " +
                               std::to_string(static_cast<int>(kind)) +
                               " #" + std::to_string(i);
      check_mutant(mutate_binary(bin, pairs, kind, rng),
                   [](std::istream& is) { return read_model_binary(is); },
                   reference_read_binary, tally, what);
      if (HasFatalFailure()) return;
    }
  }
  RecordProperty("accepted", static_cast<int>(tally.accepted));
  RecordProperty("rejected", static_cast<int>(tally.rejected));
  EXPECT_GT(tally.accepted, 20u);
  EXPECT_GT(tally.rejected, 500u);
}

TEST(ModelIoMutation, UnmutatedModelsMatchTheReference) {
  const SocialIndexModel model = small_trained_model();
  Tally tally;
  check_mutant(text_of(model), [](std::istream& is) { return read_model(is); },
               reference_read_text, tally, "text");
  check_mutant(binary_of(model),
               [](std::istream& is) { return read_model_binary(is); },
               reference_read_binary, tally, "binary");
  EXPECT_EQ(tally.accepted, 2u);
}

}  // namespace
}  // namespace s3::social
