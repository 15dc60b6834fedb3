#include "s3/util/argspec.h"

#include <charconv>
#include <system_error>

#include "s3/util/error.h"

namespace s3::util {
namespace {

const ArgSpec* find_spec(std::span<const ArgSpec> specs,
                         std::string_view name) {
  for (const ArgSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

/// Validates `text` against the spec's kind; returns "" or the error.
std::string check_operand(const ArgSpec& spec, std::string_view text) {
  if (spec.kind == ArgKind::kInt) {
    long value = 0;
    return parse_integer(spec.name, text, value);
  }
  if (spec.kind == ArgKind::kReal) {
    double value = 0.0;
    return parse_number(spec.name, text, value);
  }
  return {};
}

}  // namespace

std::string parse_integer(std::string_view flag, std::string_view text,
                          long& value) {
  value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return "--" + std::string(flag) + ": integer out of range: \"" +
           std::string(text) + "\"";
  }
  if (ec != std::errc() || ptr != last) {
    return "--" + std::string(flag) + ": expected an integer, got \"" +
           std::string(text) + "\"";
  }
  return {};
}

std::string parse_number(std::string_view flag, std::string_view text,
                         double& value) {
  value = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    return "--" + std::string(flag) + ": number out of range: \"" +
           std::string(text) + "\"";
  }
  if (ec != std::errc() || ptr != last) {
    return "--" + std::string(flag) + ": expected a number, got \"" +
           std::string(text) + "\"";
  }
  return {};
}

long ParsedArgs::num(std::string_view key, long def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  long value = 0;
  const std::string err = parse_integer(key, it->second, value);
  S3_REQUIRE(err.empty(), "ParsedArgs::num: unvalidated operand");
  return value;
}

double ParsedArgs::real(std::string_view key, double def) const {
  const auto it = values.find(key);
  if (it == values.end()) return def;
  double value = 0.0;
  const std::string err = parse_number(key, it->second, value);
  S3_REQUIRE(err.empty(), "ParsedArgs::real: unvalidated operand");
  return value;
}

ArgParseResult parse_args(std::span<const ArgSpec> specs, int argc,
                          char** argv, int first) {
  ArgParseResult result;
  for (int i = first; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      result.want_help = true;
      return result;
    }
    if (a.rfind("--", 0) != 0) {
      result.error = "unexpected argument: " + std::string(a);
      result.error_kind = ArgErrorKind::kUsage;
      return result;
    }
    std::string_view key = a.substr(2);
    std::string value;
    bool have_value = false;
    const std::size_t eq = key.find('=');
    if (eq != std::string_view::npos) {
      value = std::string(key.substr(eq + 1));
      key = key.substr(0, eq);
      have_value = true;
    }
    const ArgSpec* spec = find_spec(specs, key);
    if (spec == nullptr) {
      result.error = "unknown flag: --" + std::string(key);
      result.error_kind = ArgErrorKind::kUsage;
      return result;
    }
    if (spec->kind == ArgKind::kFlag) {
      if (have_value) {
        result.error = "--" + std::string(key) + ": takes no value";
        result.error_kind = ArgErrorKind::kValue;
        return result;
      }
      // Through a temporary, like `value` below (GCC 12 -Wrestrict).
      result.args.values[std::string(key)] = std::string("1");
      continue;
    }
    if (!have_value) {
      if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        result.error = "--" + std::string(key) + ": expected a value";
        result.error_kind = ArgErrorKind::kValue;
        return result;
      }
      // Assign through a temporary: GCC 12's -Wrestrict misfires on
      // inlined string::operator=(const char*) at -O3 (PR105651).
      value = std::string(argv[++i]);
    }
    const std::string err = check_operand(*spec, value);
    if (!err.empty()) {
      result.error = err;
      result.error_kind = ArgErrorKind::kValue;
      return result;
    }
    result.args.values[std::string(key)] = value;
  }
  return result;
}

std::string format_arg_specs(std::span<const ArgSpec> specs) {
  std::string out;
  for (const ArgSpec& spec : specs) {
    out += "  --";
    out += spec.name;
    switch (spec.kind) {
      case ArgKind::kInt:
        out += " N";
        break;
      case ArgKind::kReal:
        out += " X";
        break;
      case ArgKind::kString:
        out += " VALUE";
        break;
      case ArgKind::kFlag:
        break;
    }
    if (!spec.help.empty()) {
      out += "  ";
      out += spec.help;
    }
    out += "\n";
  }
  return out;
}

}  // namespace s3::util
