#include "s3/social/model_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

namespace s3::social {

namespace {

constexpr std::string_view kMagic = "# s3lb social model v1";
// 8 bytes, deliberately not valid UTF-8 text past the version byte so a
// text parser bails on byte one.
constexpr char kBinaryMagic[8] = {'s', '3', 'l', 'b', 'm', 'd', 'l', '\x01'};

static_assert(std::endian::native == std::endian::little,
              "binary model format assumes a little-endian host");

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(is);
}

template <typename T>
void put_vec(std::ostream& os, const std::vector<T>& v) {
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

/// Reads n values in chunks, so `v` grows only with data that actually
/// arrives: a declared count the stream cannot back allocates at most
/// one chunk past the stream's end.
template <typename T>
bool get_vec(std::istream& is, std::vector<T>& v, std::size_t n) {
  constexpr std::size_t kChunk = (std::size_t{1} << 16) / sizeof(T);
  v.clear();
  while (v.size() < n) {
    const std::size_t done = v.size();
    const std::size_t k = std::min(n - done, kChunk);
    v.resize(done + k);
    is.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(k * sizeof(T)));
    if (!is) return false;
  }
  return true;
}

/// Bytes from the read position to the end of `is`, or nullopt when the
/// stream cannot seek (a pipe). Leaves the position and state as found.
std::optional<std::uint64_t> bytes_left(std::istream& is) {
  const std::ios::iostate state = is.rdstate();
  const std::istream::pos_type here = is.tellg();
  std::optional<std::uint64_t> left;
  if (here != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    if (end != std::istream::pos_type(-1) && end >= here) {
      left = static_cast<std::uint64_t>(end - here);
    }
    is.clear();
    is.seekg(here);
  }
  is.clear(state);
  return left;
}

// Smallest encoded pair row: "0 1 0 0 0\n" in text (the last row may
// omit its '\n'), five 32-bit fields in binary. Loaders reserve no more
// rows than the bytes left could hold.
constexpr std::uint64_t kMinTextRowBytes = 10;
constexpr std::uint64_t kBinaryRowBytes = 20;

/// Validates pair rows in file order and feeds them to a SortedBuilder.
/// The row checks are the same for both encodings.
class PairRows {
 public:
  PairRows(std::size_t expected, std::size_t num_users)
      : builder_(expected, num_users), num_users_(num_users) {}

  /// nullptr when the row is accepted, else why it is rejected.
  const char* add(UserId a, UserId b, const PairStore::Stats& ps) {
    if (a >= num_users_ || b >= num_users_ || a >= b) return "bad user ids";
    if (ps.co_leaves > ps.encounters) return "co_leaves exceed encounters";
    const std::uint64_t key = PairStore::pack(UserPair(a, b));
    if (builder_.size() > 0 && key <= last_) {
      return key == last_ ? "duplicate pair" : "pairs out of order";
    }
    builder_.append(UserPair(a, b), ps);
    last_ = key;
    return nullptr;
  }

  PairStore finish() && { return std::move(builder_).finish(); }

 private:
  PairStore::SortedBuilder builder_;
  std::size_t num_users_;
  std::uint64_t last_ = 0;
};

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Parses "a b encounters co_leaves co_comings": five unsigned 32-bit
/// decimal fields separated by blanks, nothing else but blanks.
bool parse_text_row(std::string_view line, std::uint32_t (&f)[5]) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::uint32_t& v : f) {
    while (p != end && is_blank(*p)) ++p;
    const std::from_chars_result r = std::from_chars(p, end, v);
    if (r.ec != std::errc{} || (r.ptr != end && !is_blank(*r.ptr))) {
      return false;
    }
    p = r.ptr;
  }
  while (p != end && is_blank(*p)) ++p;
  return p == end;
}

/// Splits the rest of a stream into lines, reading it in 64 KiB chunks.
class ChunkedLines {
 public:
  explicit ChunkedLines(std::istream& is) : is_(is) {}

  /// The next line without its '\n'; false at the end of the stream.
  /// The view lives until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const char* const from = buf_.data() + begin_;
      if (const void* nl = std::memchr(from, '\n', end_ - begin_)) {
        const auto len =
            static_cast<std::size_t>(static_cast<const char*>(nl) - from);
        line = std::string_view(from, len);
        begin_ += len + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = std::string_view(from, end_ - begin_);
        begin_ = end_;
        return true;
      }
      std::memmove(buf_.data(), from, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());  // long line
      is_.read(buf_.data() + end_,
               static_cast<std::streamsize>(buf_.size() - end_));
      end_ += static_cast<std::size_t>(is_.gcount());
      eof_ = !is_;
    }
  }

 private:
  std::istream& is_;
  std::vector<char> buf_ = std::vector<char>(std::size_t{1} << 16);
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

}  // namespace

bool write_model(std::ostream& os, const SocialIndexModel& model) {
  os.precision(17);
  const UserTyping& typing = model.typing();
  os << kMagic << '\n';
  os << "alpha " << model.alpha() << '\n';
  os << "co_leave_window_s "
     << model.config().events.co_leave_window.seconds() << '\n';
  os << "min_encounter_overlap_s "
     << model.config().events.min_encounter_overlap.seconds() << '\n';
  // Optional: omitted entirely for models that never recorded their
  // training horizon, so byte-for-byte golden files stay valid.
  if (model.config().trained_end_s >= 0) {
    os << "trained_end_s " << model.config().trained_end_s << '\n';
  }
  os << "users " << typing.type_of_user.size() << '\n';
  os << "types " << typing.num_types << '\n';

  os << "type_of_user";
  for (std::size_t t : typing.type_of_user) os << ' ' << t;
  os << '\n';

  os << "centroids";
  for (double v : typing.centroids) os << ' ' << v;
  os << '\n';

  os << "matrix";
  const TypeCoLeaveMatrix& m = model.type_matrix();
  for (std::size_t i = 0; i < m.num_types(); ++i) {
    for (std::size_t j = 0; j < m.num_types(); ++j) os << ' ' << m.at(i, j);
  }
  os << '\n';

  os << "pairs " << model.pair_stats().size() << '\n';
  // Canonical (a, b) order: file bytes depend only on model contents,
  // never on hash capacity or insertion history.
  for (const PairStore::Entry& e : model.pair_stats().sorted_entries()) {
    os << e.pair.a << ' ' << e.pair.b << ' ' << e.stats.encounters << ' '
       << e.stats.co_leaves << ' ' << e.stats.co_comings << '\n';
  }
  return static_cast<bool>(os);
}

bool write_model_file(const std::string& path, const SocialIndexModel& model) {
  std::ofstream os(path);
  return os && write_model(os, model);
}

ModelReadResult read_model(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    return {std::nullopt, "missing model magic line"};
  }

  SocialModelConfig config;
  std::size_t num_users = 0, num_types = 0, num_pairs = 0;
  UserTyping typing;
  std::vector<double> matrix_values;

  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, why};
  };

  // alpha
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
    // Optional training-horizon line (absent in models written before
    // the field existed — config.trained_end_s stays -1 for those).
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
    // Division, not num_types * kNumCategories: a declared count near
    // 2^64 would wrap the product.
    if (typing.centroids.size() % apps::kNumCategories != 0 ||
        typing.centroids.size() / apps::kNumCategories != num_types) {
      return fail("centroids arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "matrix") return fail("bad matrix line");
    double v;
    while (ls >> v) matrix_values.push_back(v);
    if (matrix_values.size() % num_types != 0 ||
        matrix_values.size() / num_types != num_types) {
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

  const std::optional<std::uint64_t> left = bytes_left(is);
  PairRows rows(left ? std::min<std::uint64_t>(
                           num_pairs, (*left + 1) / kMinTextRowBytes)
                     : 0,
                num_users);
  ChunkedLines lines(is);
  std::string_view row;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (!lines.next(row)) return fail("truncated pair list");
    std::uint32_t f[5];
    if (!parse_text_row(row, f)) {
      return fail("bad pair row " + std::to_string(p));
    }
    if (const char* why = rows.add(f[0], f[1], {f[2], f[3], f[4]})) {
      return fail("pair row " + std::to_string(p) + ": " + why);
    }
  }

  return {SocialIndexModel::from_parts(config, std::move(rows).finish(),
                                       std::move(typing), std::move(matrix)),
          ""};
}

ModelReadResult read_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return {std::nullopt, "cannot open " + path};
  return read_model(is);
}

bool write_model_binary(std::ostream& os, const SocialIndexModel& model) {
  os.write(kBinaryMagic, sizeof kBinaryMagic);
  const UserTyping& typing = model.typing();
  put(os, model.alpha());
  put(os, model.config().events.co_leave_window.seconds());
  put(os, model.config().events.min_encounter_overlap.seconds());
  put(os, model.config().trained_end_s);
  put(os, static_cast<std::uint64_t>(typing.type_of_user.size()));
  put(os, static_cast<std::uint64_t>(typing.num_types));

  std::vector<std::uint32_t> types(typing.type_of_user.begin(),
                                   typing.type_of_user.end());
  put_vec(os, types);
  put_vec(os, typing.centroids);

  const TypeCoLeaveMatrix& m = model.type_matrix();
  for (std::size_t i = 0; i < m.num_types(); ++i) {
    for (std::size_t j = 0; j < m.num_types(); ++j) put(os, m.at(i, j));
  }

  put(os, static_cast<std::uint64_t>(model.pair_stats().size()));
  for (const PairStore::Entry& e : model.pair_stats().sorted_entries()) {
    put(os, e.pair.a);
    put(os, e.pair.b);
    put(os, e.stats.encounters);
    put(os, e.stats.co_leaves);
    put(os, e.stats.co_comings);
  }
  return static_cast<bool>(os);
}

ModelReadResult read_model_binary(std::istream& is) {
  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, "binary model: " + why};
  };

  char magic[sizeof kBinaryMagic] = {};
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    return fail("missing magic");
  }

  SocialModelConfig config;
  std::int64_t window_s = 0, overlap_s = 0;
  std::uint64_t num_users = 0, num_types = 0;
  if (!get(is, config.alpha) || !get(is, window_s) || !get(is, overlap_s) ||
      !get(is, config.trained_end_s) || !get(is, num_users) ||
      !get(is, num_types)) {
    return fail("truncated header");
  }
  if (config.alpha < 0.0) return fail("negative alpha");
  if (window_s <= 0 || overlap_s <= 0) return fail("bad event windows");
  if (num_users == 0 || num_types == 0) return fail("bad counts");
  if (config.trained_end_s < -1) return fail("bad trained_end_s");
  // Bound the counts before any multiplication or allocation: users
  // take 4 bytes each, types 8 * (kNumCategories + types) each. A stream
  // that cannot tell its size keeps the products below 2^64 and grows
  // the vectors with the data that arrives.
  if (const std::optional<std::uint64_t> left = bytes_left(is)) {
    if (num_users > *left / 4) return fail("users exceed the bytes left");
    const std::uint64_t rest = (*left - 4 * num_users) / 8;
    if (num_types > rest / apps::kNumCategories ||
        num_types > rest / (apps::kNumCategories + num_types)) {
      return fail("types exceed the bytes left");
    }
  } else if (num_types > std::numeric_limits<std::uint32_t>::max()) {
    return fail("bad counts");
  }
  config.events.co_leave_window = util::SimTime(window_s);
  config.events.min_encounter_overlap = util::SimTime(overlap_s);

  UserTyping typing;
  typing.num_types = num_types;
  std::vector<std::uint32_t> types;
  if (!get_vec(is, types, num_users)) return fail("truncated typing");
  typing.type_of_user.reserve(num_users);
  for (std::uint32_t t : types) {
    if (t >= num_types) return fail("type id out of range");
    typing.type_of_user.push_back(t);
  }
  if (!get_vec(is, typing.centroids, num_types * apps::kNumCategories)) {
    return fail("truncated centroids");
  }

  std::vector<double> matrix_values;
  if (!get_vec(is, matrix_values, num_types * num_types)) {
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
  if (!get(is, num_pairs)) return fail("truncated pair count");
  const std::optional<std::uint64_t> left = bytes_left(is);
  PairRows rows(left ? std::min(num_pairs, *left / kBinaryRowBytes) : 0,
                num_users);
  constexpr std::uint64_t kBlockRows = 4096;
  std::vector<char> block(kBlockRows * kBinaryRowBytes);
  for (std::uint64_t p = 0; p < num_pairs;) {
    const std::uint64_t n = std::min(num_pairs - p, kBlockRows);
    is.read(block.data(), static_cast<std::streamsize>(n * kBinaryRowBytes));
    if (!is) return fail("truncated pair list");
    for (const char* r = block.data(); r != block.data() + n * kBinaryRowBytes;
         r += kBinaryRowBytes, ++p) {
      std::uint32_t f[5];
      std::memcpy(f, r, sizeof f);
      if (const char* why = rows.add(f[0], f[1], {f[2], f[3], f[4]})) {
        return fail("pair row " + std::to_string(p) + ": " + why);
      }
    }
  }

  return {SocialIndexModel::from_parts(config, std::move(rows).finish(),
                                       std::move(typing), std::move(matrix)),
          ""};
}

std::optional<ModelFormat> parse_model_format(const std::string& name) {
  if (name == "text") return ModelFormat::kTextV1;
  if (name == "binary") return ModelFormat::kBinaryV1;
  if (name == "auto") return ModelFormat::kAuto;
  return std::nullopt;
}

bool save_model(const std::string& path, const SocialIndexModel& model,
                ModelFormat format) {
  S3_REQUIRE(format != ModelFormat::kAuto,
             "save_model: kAuto is a load-only format");
  if (format == ModelFormat::kBinaryV1) {
    std::ofstream os(path, std::ios::binary);
    return os && write_model_binary(os, model);
  }
  return write_model_file(path, model);
}

ModelReadResult load_model(const std::string& path, ModelFormat format) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {std::nullopt, "cannot open " + path};
  if (format == ModelFormat::kAuto) {
    char first = 0;
    format = ModelFormat::kTextV1;
    if (is.get(first)) {
      if (first == kBinaryMagic[0]) {
        // Could still be text that happens to start with 's'; check the
        // full magic before committing.
        char rest[sizeof kBinaryMagic - 1] = {};
        is.read(rest, sizeof rest);
        if (is &&
            std::memcmp(rest, kBinaryMagic + 1, sizeof rest) == 0) {
          format = ModelFormat::kBinaryV1;
        }
      }
    }
    is.clear();
    is.seekg(0);
  }
  return format == ModelFormat::kBinaryV1 ? read_model_binary(is)
                                          : read_model(is);
}

}  // namespace s3::social
