#include "s3/social/model_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <streambuf>

#include "s3/trace/generator.h"
#include "s3/wlan/radio.h"

namespace s3::social {
namespace {

SocialIndexModel sample_model() {
  SocialModelConfig cfg;
  cfg.alpha = 0.25;
  cfg.events.co_leave_window = util::SimTime::from_minutes(5);
  cfg.events.min_encounter_overlap = util::SimTime::from_minutes(10);
  analysis::PairStatsMap stats;
  stats[UserPair(0, 1)] = {5, 3, 2};
  stats[UserPair(2, 4)] = {2, 2, 0};
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 1, 0, 1, 0};
  typing.centroids.assign(2 * apps::kNumCategories, 0.1);
  typing.centroids[0] = 0.5;
  TypeCoLeaveMatrix matrix(2);
  matrix.set(0, 0, 0.6);
  matrix.set(1, 1, 0.4);
  matrix.set(0, 1, 0.1);
  return SocialIndexModel::from_parts(cfg, std::move(stats), std::move(typing),
                                      std::move(matrix));
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

/// Replaces the first line starting with `key ` by "key value".
std::string with_header(std::string text, const std::string& key,
                        const std::string& value) {
  const std::size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t end = text.find('\n', at + 1);
  return text.replace(at + 1, end - at - 1, key + " " + value);
}

/// Overwrites the 64-bit count at byte `offset` of a binary model.
std::string with_count(std::string bin, std::size_t offset,
                       std::uint64_t value) {
  std::memcpy(bin.data() + offset, &value, sizeof value);
  return bin;
}

// Binary layout offsets: magic (8), alpha, window, overlap, trained_end
// (8 each), then users at 40, types at 48; the pair count sits just
// before the 20-byte pair rows.
constexpr std::size_t kUsersOffset = 40;
constexpr std::size_t kTypesOffset = 48;
std::size_t pairs_offset(const std::string& bin, std::size_t pairs) {
  return bin.size() - 20 * pairs - 8;
}

ModelReadResult read_text(const std::string& text) {
  std::istringstream is(text);
  return read_model(is);
}

ModelReadResult read_binary(const std::string& bin) {
  std::istringstream is(bin);
  return read_model_binary(is);
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

TEST(ModelIo, RoundTripPreservesEverything) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  const SocialIndexModel& back = *r.model;

  EXPECT_DOUBLE_EQ(back.alpha(), original.alpha());
  EXPECT_EQ(back.config().events.co_leave_window,
            original.config().events.co_leave_window);
  EXPECT_EQ(back.num_users(), original.num_users());
  EXPECT_EQ(back.typing().num_types, original.typing().num_types);
  EXPECT_EQ(back.typing().type_of_user, original.typing().type_of_user);
  EXPECT_EQ(back.typing().centroids, original.typing().centroids);
  EXPECT_EQ(back.pair_stats().size(), original.pair_stats().size());
  for (UserId u = 0; u < 5; ++u) {
    for (UserId v = u + 1; v < 5; ++v) {
      EXPECT_DOUBLE_EQ(back.theta(u, v), original.theta(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST(ModelIo, RoundTripTrainedModel) {
  trace::GeneratorConfig cfg;
  cfg.seed = 8;
  cfg.num_users = 150;
  cfg.num_days = 6;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel trained =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});

  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, trained));
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->pair_stats().size(), trained.pair_stats().size());
  // Spot-check thetas.
  for (UserId u = 0; u < 150; u += 17) {
    for (UserId v = u + 1; v < 150; v += 23) {
      EXPECT_DOUBLE_EQ(r.model->theta(u, v), trained.theta(u, v));
    }
  }
}

TEST(ModelIo, TrainedEndSurvivesRoundTrip) {
  SocialModelConfig cfg;
  cfg.trained_end_s = 2 * 86400;
  analysis::PairStatsMap stats;
  stats[UserPair(0, 1)] = {5, 3, 2};
  UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user = {0, 0};
  typing.centroids.assign(apps::kNumCategories, 0.1);
  TypeCoLeaveMatrix matrix(1);
  matrix.set(0, 0, 0.5);
  const SocialIndexModel original = SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), std::move(matrix));

  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  EXPECT_NE(ss.str().find("trained_end_s 172800"), std::string::npos);
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->config().trained_end_s, 2 * 86400);
}

TEST(ModelIo, OmitsUnknownTrainingHorizonForBackCompat) {
  // sample_model() leaves trained_end_s at its default (-1): the line
  // must be absent so pre-existing golden files stay byte-identical,
  // and reading such a file must preserve the "unknown" sentinel.
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  EXPECT_EQ(ss.str().find("trained_end_s"), std::string::npos);
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->config().trained_end_s, -1);
}

TEST(ModelIo, RejectsNegativeTrainedEnd) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  const std::size_t pos = text.find("users ");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "trained_end_s -7\n");
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("trained_end_s"), std::string::npos);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream ss("not a model\n");
  const ModelReadResult r = read_model(ss);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(ModelIo, RejectsTruncatedPairList) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  text.erase(text.rfind('\n', text.size() - 2));  // drop last pair row
  std::stringstream cut(text);
  const ModelReadResult r = read_model(cut);
  EXPECT_FALSE(r.model.has_value());
}

TEST(ModelIo, RejectsInconsistentCounts) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  // Corrupt a pair row: co_leaves > encounters.
  const std::size_t pos = text.find("5 3 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "2 9 0");
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("exceed"), std::string::npos);
}

TEST(ModelIo, RejectsUserIdOutOfRange) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  const std::size_t pos = text.find("2 4 2 2 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "2 9 2 2 0");  // user 9 > num_users
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
}

TEST(ModelIo, ParseModelFormatVocabulary) {
  EXPECT_EQ(parse_model_format("text"), ModelFormat::kTextV1);
  EXPECT_EQ(parse_model_format("binary"), ModelFormat::kBinaryV1);
  EXPECT_EQ(parse_model_format("auto"), ModelFormat::kAuto);
  EXPECT_FALSE(parse_model_format("csv").has_value());
  EXPECT_FALSE(parse_model_format("").has_value());
}

TEST(ModelIo, BinaryRoundTripPreservesEverything) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, original));
  const ModelReadResult r = read_model_binary(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  const SocialIndexModel& back = *r.model;
  EXPECT_DOUBLE_EQ(back.alpha(), original.alpha());
  EXPECT_EQ(back.num_users(), original.num_users());
  EXPECT_EQ(back.typing().type_of_user, original.typing().type_of_user);
  EXPECT_EQ(back.typing().centroids, original.typing().centroids);
  EXPECT_EQ(back.pair_stats().size(), original.pair_stats().size());
  for (UserId u = 0; u < 5; ++u) {
    for (UserId v = u + 1; v < 5; ++v) {
      // Binary stores the doubles verbatim: exact equality.
      EXPECT_EQ(back.theta(u, v), original.theta(u, v));
    }
  }
}

TEST(ModelIo, BinaryRejectsTruncation) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, original));
  const std::string full = ss.str();
  for (const std::size_t cut : {std::size_t{4}, full.size() / 2,
                                full.size() - 3}) {
    std::stringstream trunc(full.substr(0, cut));
    EXPECT_FALSE(read_model_binary(trunc).model.has_value()) << cut;
  }
}

TEST(ModelIo, SaveLoadDispatchAndAutoSniff) {
  const SocialIndexModel original = sample_model();
  const std::string text_path = ::testing::TempDir() + "/s3lb_fmt.txt";
  const std::string bin_path = ::testing::TempDir() + "/s3lb_fmt.bin";
  ASSERT_TRUE(save_model(text_path, original, ModelFormat::kTextV1));
  ASSERT_TRUE(save_model(bin_path, original, ModelFormat::kBinaryV1));

  // kAuto sniffs either encoding from the leading bytes.
  for (const std::string& path : {text_path, bin_path}) {
    const ModelReadResult r = load_model(path);
    ASSERT_TRUE(r.model.has_value()) << path << ": " << r.error;
    EXPECT_DOUBLE_EQ(r.model->theta(0, 1), original.theta(0, 1)) << path;
  }
  // Concrete formats reject files of the other encoding.
  EXPECT_FALSE(load_model(text_path, ModelFormat::kBinaryV1).model);
  EXPECT_FALSE(load_model(bin_path, ModelFormat::kTextV1).model);
  EXPECT_TRUE(load_model(text_path, ModelFormat::kTextV1).model.has_value());
  EXPECT_TRUE(load_model(bin_path, ModelFormat::kBinaryV1).model.has_value());
  // Saving needs a concrete format.
  EXPECT_THROW(save_model(text_path, original, ModelFormat::kAuto),
               std::invalid_argument);
}

TEST(ModelIo, SerializationIsIdenticalAcrossStorageBackends) {
  // The same logical model assembled through the PairStatsMap overload
  // and through a hand-built PairStore must serialize to identical
  // bytes in both formats — written models depend only on contents,
  // never on hash-table capacity or insertion order.
  const SocialIndexModel via_map = sample_model();

  SocialModelConfig cfg = via_map.config();
  PairStore store;
  // Insert in the opposite order, with extra churn to shift capacity.
  store.assign(UserPair(2, 4), {2, 2, 0});
  for (UserId v = 1; v < 40; ++v) store.upsert(UserPair(50 + v, 200 + v));
  for (UserId v = 1; v < 40; ++v) store.erase(UserPair(50 + v, 200 + v));
  store.assign(UserPair(0, 1), {5, 3, 2});
  const SocialIndexModel via_store = SocialIndexModel::from_parts(
      cfg, std::move(store), via_map.typing(), via_map.type_matrix());

  std::stringstream text_a, text_b, bin_a, bin_b;
  ASSERT_TRUE(write_model(text_a, via_map));
  ASSERT_TRUE(write_model(text_b, via_store));
  EXPECT_EQ(text_a.str(), text_b.str());
  ASSERT_TRUE(write_model_binary(bin_a, via_map));
  ASSERT_TRUE(write_model_binary(bin_b, via_store));
  EXPECT_EQ(bin_a.str(), bin_b.str());
}

TEST(ModelIo, BinaryRoundTripTrainedModelAcrossFormats) {
  trace::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.num_users = 120;
  cfg.num_days = 5;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel trained =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});

  // text -> model -> binary -> model: every theta must survive both
  // hops exactly (text rounds through max_digits10, binary verbatim).
  std::stringstream text;
  ASSERT_TRUE(write_model(text, trained));
  const ModelReadResult via_text = read_model(text);
  ASSERT_TRUE(via_text.model.has_value()) << via_text.error;
  std::stringstream bin;
  ASSERT_TRUE(write_model_binary(bin, *via_text.model));
  const ModelReadResult via_bin = read_model_binary(bin);
  ASSERT_TRUE(via_bin.model.has_value()) << via_bin.error;
  EXPECT_EQ(via_bin.model->pair_stats().size(), trained.pair_stats().size());
  for (UserId u = 0; u < 120; u += 7) {
    for (UserId v = u + 1; v < 120; v += 11) {
      EXPECT_EQ(via_bin.model->theta(u, v), via_text.model->theta(u, v));
    }
  }
}

TEST(ModelIo, RejectsPairCountNoTableCanHold) {
  // pairs = 2^64 - 1 used to spin forever in PairStore::reserve.
  const SocialIndexModel m = sample_model();
  const ModelReadResult text =
      read_text(with_header(text_of(m), "pairs", "18446744073709551615"));
  EXPECT_FALSE(text.model.has_value());
  EXPECT_NE(text.error.find("truncated pair list"), std::string::npos)
      << text.error;
  const std::string bin = binary_of(m);
  const ModelReadResult binary =
      read_binary(with_count(bin, pairs_offset(bin, 2), ~std::uint64_t{0}));
  EXPECT_FALSE(binary.model.has_value());
  EXPECT_NE(binary.error.find("truncated pair list"), std::string::npos)
      << binary.error;
}

TEST(ModelIo, RejectsTypeCountsThatWrapTheArityProducts) {
  // types = 2^63 wrapped types * 6 and types^2 to 0, so empty centroid
  // and matrix data passed the arity checks and the symmetry loop read
  // past them.
  const SocialIndexModel m = sample_model();
  std::string hostile = with_header(text_of(m), "types", "9223372036854775808");
  hostile = with_header(hostile, "centroids", "");
  hostile = with_header(hostile, "matrix", "");
  const ModelReadResult text = read_text(hostile);
  EXPECT_FALSE(text.model.has_value());
  EXPECT_NE(text.error.find("centroids arity"), std::string::npos)
      << text.error;
  for (const std::uint64_t types :
       {std::uint64_t{1} << 63, std::uint64_t{1} << 62, ~std::uint64_t{0},
        std::uint64_t{1} << 32}) {
    const ModelReadResult binary =
        read_binary(with_count(binary_of(m), kTypesOffset, types));
    EXPECT_FALSE(binary.model.has_value()) << types;
    EXPECT_NE(binary.error.find("types exceed"), std::string::npos)
        << binary.error;
  }
}

TEST(ModelIo, HugeDeclaredCountsReturnErrorsInsteadOfThrowing) {
  // users or pairs of 2^40 used to let std::bad_alloc escape.
  const SocialIndexModel m = sample_model();
  const std::string huge = std::to_string(std::uint64_t{1} << 40);
  for (const char* key : {"users", "pairs"}) {
    ModelReadResult r;
    EXPECT_NO_THROW(r = read_text(with_header(text_of(m), key, huge))) << key;
    EXPECT_FALSE(r.model.has_value()) << key;
  }
  const std::string bin = binary_of(m);
  for (const std::size_t offset : {kUsersOffset, pairs_offset(bin, 2)}) {
    ModelReadResult r;
    EXPECT_NO_THROW(r = read_binary(
                        with_count(bin, offset, std::uint64_t{1} << 40)))
        << offset;
    EXPECT_FALSE(r.model.has_value()) << offset;
  }
  // "users -1" reads as 2^64 - 1 through operator>>.
  ModelReadResult r;
  EXPECT_NO_THROW(r = read_text(with_header(text_of(m), "users", "-1")));
  EXPECT_FALSE(r.model.has_value());
}

TEST(ModelIo, RejectsBadPairRowsWithTheirRowNumber) {
  // sample_model() writes the rows "0 1 5 3 2" (row 0) and "2 4 2 2 0"
  // (row 1).
  const std::string text = text_of(sample_model());
  const auto reject = [&](const std::string& from, const std::string& to,
                          const std::string& why) {
    std::string bad = text;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    const ModelReadResult r = read_text(bad);
    EXPECT_FALSE(r.model.has_value()) << to;
    EXPECT_NE(r.error.find(why), std::string::npos) << to << ": " << r.error;
  };
  reject("2 4 2 2 0", "0 1 5 3 2", "pair row 1: duplicate pair");
  reject("0 1 5 3 2", "0 1 -1 0 0", "bad pair row 0");
  reject("0 1 5 3 2", "0 1 5 3 2 7", "bad pair row 0");
  reject("0 1 5 3 2", "0 1 5 3 2x", "bad pair row 0");
  reject("0 1 5 3 2", "0 1 5 3", "bad pair row 0");
  reject("0 1 5 3 2", "0 1 5 3 4294967296", "bad pair row 0");
  reject("0 1 5 3 2", "0 1 +5 3 2", "bad pair row 0");
  reject("0 1 5 3 2", "3 4 5 3 2", "pair row 1: pairs out of order");
  reject("2 4 2 2 0", "4 2 2 2 0", "pair row 1: bad user ids");

  // Blanks around fields and a missing final newline still load.
  std::string loose = text;
  loose.replace(loose.find("0 1 5 3 2"), 9, " 0\t1  5 3 2\r");
  loose.pop_back();
  const ModelReadResult ok = read_text(loose);
  ASSERT_TRUE(ok.model.has_value()) << ok.error;
  EXPECT_EQ(text_of(*ok.model), text);

  // The binary rows carry the same checks.
  const std::string bin = binary_of(sample_model());
  std::string dup = bin;
  std::memcpy(dup.data() + dup.size() - 20, dup.data() + dup.size() - 40, 20);
  const ModelReadResult r = read_binary(dup);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("pair row 1: duplicate pair"), std::string::npos)
      << r.error;
}

TEST(ModelIo, LoadsFromStreamsThatCannotSeek) {
  // A pipe cannot report its size: the loaders then reserve nothing up
  // front and grow as rows arrive. A sized stream gets a table of the
  // capacity PairStore(pairs) would have.
  trace::GeneratorConfig cfg;
  cfg.seed = 21;
  cfg.num_users = 90;
  cfg.num_days = 3;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 4;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel trained =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});
  const std::string text = text_of(trained);
  const std::string bin = binary_of(trained);
  const std::size_t pairs = trained.pair_stats().size();
  ASSERT_GT(pairs, 100u);

  PipeBuf text_pipe(text);
  std::istream text_is(&text_pipe);
  const ModelReadResult a = read_model(text_is);
  ASSERT_TRUE(a.model.has_value()) << a.error;
  EXPECT_EQ(text_of(*a.model), text);

  PipeBuf bin_pipe(bin);
  std::istream bin_is(&bin_pipe);
  const ModelReadResult b = read_model_binary(bin_is);
  ASSERT_TRUE(b.model.has_value()) << b.error;
  EXPECT_EQ(binary_of(*b.model), bin);

  PipeBuf cut_pipe(bin.substr(0, bin.size() - 7));
  std::istream cut_is(&cut_pipe);
  EXPECT_FALSE(read_model_binary(cut_is).model.has_value());

  EXPECT_EQ(read_text(text).model->pair_stats().capacity(),
            PairStore(pairs).capacity());
  EXPECT_EQ(read_binary(bin).model->pair_stats().capacity(),
            PairStore(pairs).capacity());
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/s3lb_model.txt";
  const SocialIndexModel original = sample_model();
  ASSERT_TRUE(write_model_file(path, original));
  const ModelReadResult r = read_model_file(path);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_DOUBLE_EQ(r.model->theta(0, 1), original.theta(0, 1));
  EXPECT_FALSE(read_model_file("/nonexistent/model.txt").model.has_value());
}

}  // namespace
}  // namespace s3::social
