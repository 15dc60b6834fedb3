// s3lint fixture suite: lexer, `.s3lint` config parsing, and every
// rule id against the positive / suppressed / clean fixture triples in
// tests/lint/fixtures. The fixtures are lexed, never compiled — the
// root `.s3lint` excludes them from the tree walk precisely so they
// can contain the violations the rules exist to catch.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "s3lint/config.h"
#include "s3lint/lexer.h"
#include "s3lint/rules.h"

namespace s3::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(S3LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

Config output_scope_config() {
  Config c;
  c.output_scope = true;
  return c;
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const Config& config = Config{}) {
  const std::string content = read_fixture(name);
  return lint_file({name, content}, config);
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Rule registry.

TEST(Rules, RegistryIsSortedAndComplete) {
  const auto rules = all_rules();
  ASSERT_EQ(rules.size(), 12u);
  EXPECT_TRUE(std::is_sorted(
      rules.begin(), rules.end(),
      [](const RuleInfo& a, const RuleInfo& b) { return a.id < b.id; }));
  for (const RuleInfo& rule : rules) {
    EXPECT_EQ(find_rule(rule.id), &rule);
    EXPECT_FALSE(rule.summary.empty());
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

TEST(Rules, FindingFormatMatchesDiagnosticGrammar) {
  const Finding f{"src/foo.cpp", 12, "det-rand", Severity::kError, "boom"};
  EXPECT_EQ(f.format(), "src/foo.cpp:12: [det-rand] error: boom");
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(Lexer, ClassifiesTokensAndSkipsLiteralContents) {
  const LexResult r = lex("int rand_count = 3; f(\"rand()\", 'x');");
  std::vector<std::string> idents;
  for (const Token& t : r.tokens) {
    if (t.kind == TokenKind::kIdentifier) idents.push_back(t.text);
  }
  // "rand()" inside the string literal must not surface as tokens.
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "rand_count", "f"}));
  const auto is_string = [](const Token& t) {
    return t.kind == TokenKind::kString;
  };
  ASSERT_EQ(std::count_if(r.tokens.begin(), r.tokens.end(), is_string), 1);
}

TEST(Lexer, CommentsCarryLineAndOwnLineFlag) {
  const LexResult r = lex(
      "// own-line first\n"
      "int x = 0;  // trailing\n");
  ASSERT_EQ(r.comments.size(), 2u);
  EXPECT_EQ(r.comments[0].line, 1u);
  EXPECT_TRUE(r.comments[0].own_line);
  EXPECT_EQ(r.comments[1].line, 2u);
  EXPECT_FALSE(r.comments[1].own_line);
}

TEST(Lexer, DirectivesAreWholeLogicalLines) {
  const LexResult r = lex("#pragma once\nint y;\n");
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kDirective);
  EXPECT_EQ(r.tokens[0].text.substr(0, 7), "#pragma");
}

TEST(Lexer, NeverFailsOnMalformedInput) {
  // Unterminated string: best-effort consumption, no crash.
  const LexResult r = lex("const char* s = \"unterminated\nint z;");
  EXPECT_FALSE(r.tokens.empty());
}

// ---------------------------------------------------------------------------
// `.s3lint` config.

TEST(Config, ParsesEveryDirective) {
  const ConfigParseResult r = parse_config(
      "# comment\n"
      "disable det-unordered-iter\n"
      "severity lock-atomic-mix error\n"
      "allow det-rand s3/util/rng.cpp\n"
      "exclude tests/lint/fixtures\n"
      "output-scope on\n",
      ".s3lint", Config{});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.config.output_scope);
  EXPECT_TRUE(r.config.excluded("tests/lint/fixtures/det_rand_positive.cpp"));
  EXPECT_FALSE(r.config.excluded("src/core/s3/core/online_s3.cpp"));
  EXPECT_EQ(r.config.severity_for("det-unordered-iter", "src/x.cpp",
                                  Severity::kError),
            Severity::kOff);
  EXPECT_EQ(
      r.config.severity_for("lock-atomic-mix", "src/x.cpp", Severity::kWarning),
      Severity::kError);
  EXPECT_EQ(r.config.severity_for("det-rand", "s3/util/rng.cpp",
                                  Severity::kError),
            Severity::kOff);
  EXPECT_EQ(r.config.severity_for("det-rand", "s3/util/other.cpp",
                                  Severity::kError),
            Severity::kError);
}

TEST(Config, ErrorsNameTheFileAndLine) {
  const ConfigParseResult unknown =
      parse_config("disable not-a-rule\n", "src/.s3lint", Config{});
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error, "src/.s3lint line 1: unknown rule \"not-a-rule\"");

  const ConfigParseResult verb =
      parse_config("# fine\nfrobnicate det-rand\n", ".s3lint", Config{});
  EXPECT_FALSE(verb.ok());
  EXPECT_EQ(verb.error, ".s3lint line 2: unknown directive \"frobnicate\"");

  const ConfigParseResult arity =
      parse_config("output-scope maybe\n", ".s3lint", Config{});
  EXPECT_FALSE(arity.ok());
  EXPECT_EQ(arity.error, ".s3lint line 1: output-scope wants on or off");
}

TEST(Config, WildcardPatternsAndLaterOverridesWin) {
  EXPECT_TRUE(Config::pattern_matches("det-*", "det-rand"));
  EXPECT_TRUE(Config::pattern_matches("*", "hyg-assert"));
  EXPECT_FALSE(Config::pattern_matches("det-*", "lock-raw-mutex"));
  EXPECT_TRUE(Config::pattern_matches("det-rand", "det-rand"));

  const ConfigParseResult r = parse_config(
      "disable det-*\n"
      "severity det-rand warning\n",
      ".s3lint", Config{});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.severity_for("det-rand", "x.cpp", Severity::kError),
            Severity::kWarning);
  EXPECT_EQ(r.config.severity_for("det-time", "x.cpp", Severity::kError),
            Severity::kOff);
}

TEST(Config, ChildConfigMergesOnTopOfParent) {
  const ConfigParseResult parent =
      parse_config("disable hyg-assert\n", ".s3lint", Config{});
  ASSERT_TRUE(parent.ok());
  const ConfigParseResult child = parse_config(
      "severity hyg-assert error\noutput-scope on\n", "src/.s3lint",
      parent.config);
  ASSERT_TRUE(child.ok()) << child.error;
  // The child's later override wins; the parent alone stays off.
  EXPECT_EQ(child.config.severity_for("hyg-assert", "x.cpp", Severity::kError),
            Severity::kError);
  EXPECT_EQ(parent.config.severity_for("hyg-assert", "x.cpp", Severity::kError),
            Severity::kOff);
  EXPECT_TRUE(child.config.output_scope);
  EXPECT_FALSE(parent.config.output_scope);
}

// ---------------------------------------------------------------------------
// Every rule id: positive fires, suppressed is silent, clean is clean.

struct RuleFixture {
  std::string_view rule;
  std::string_view stem;  ///< fixture file stem
  std::string_view ext;   ///< ".cpp" or ".h" (hygiene rules are header-only)
  bool output_scope;      ///< lint under `output-scope on`
  std::size_t positive_findings;  ///< expected count in the positive fixture
};

constexpr RuleFixture kRuleFixtures[] = {
    {"det-rand", "det_rand", ".cpp", false, 2},
    {"det-random-device", "det_random_device", ".cpp", false, 1},
    {"det-sort-ties", "det_sort_ties", ".cpp", true, 3},
    {"det-time", "det_time", ".cpp", false, 2},
    {"det-unordered-iter", "det_unordered_iter", ".cpp", true, 2},
    {"hyg-assert", "hyg_assert", ".cpp", false, 1},
    {"hyg-pragma-once", "hyg_pragma_once", ".h", false, 1},
    {"hyg-using-namespace", "hyg_using_namespace", ".h", false, 1},
    {"lint-suppression", "lint_suppression", ".cpp", false, 5},
    {"lock-atomic-mix", "lock_atomic_mix", ".cpp", false, 3},
    {"lock-raw-mutex", "lock_raw_mutex", ".cpp", false, 3},
    {"lock-unguarded-field", "lock_unguarded_field", ".cpp", false, 1},
};

class RuleFixtureTest : public ::testing::TestWithParam<RuleFixture> {};

TEST_P(RuleFixtureTest, PositiveFixtureFires) {
  const RuleFixture& p = GetParam();
  const Config config = p.output_scope ? output_scope_config() : Config{};
  const auto findings = lint_fixture(
      std::string(p.stem) + "_positive" + std::string(p.ext), config);
  EXPECT_EQ(count_rule(findings, p.rule), p.positive_findings);
}

TEST_P(RuleFixtureTest, SuppressedFixtureIsSilentForTheRule) {
  const RuleFixture& p = GetParam();
  const Config config = p.output_scope ? output_scope_config() : Config{};
  const auto findings = lint_fixture(
      std::string(p.stem) + "_suppressed" + std::string(p.ext), config);
  if (p.rule == "lint-suppression") {
    // The exception: suppression findings are the audit trail and are
    // exempt from suppression — the malformed comment is still reported.
    EXPECT_EQ(count_rule(findings, p.rule), 1u);
  } else {
    EXPECT_EQ(count_rule(findings, p.rule), 0u)
        << findings.front().format();
  }
}

TEST_P(RuleFixtureTest, CleanFixtureHasNoFindingsAtAll) {
  const RuleFixture& p = GetParam();
  const Config config = p.output_scope ? output_scope_config() : Config{};
  const auto findings = lint_fixture(
      std::string(p.stem) + "_clean" + std::string(p.ext), config);
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings.front().format());
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleFixtureTest, ::testing::ValuesIn(kRuleFixtures),
    [](const ::testing::TestParamInfo<RuleFixture>& param_info) {
      return std::string(param_info.param.stem);
    });

// Fixture coverage is total: every registered rule appears in the
// table above, so adding a rule without fixtures fails here.
TEST(RuleFixtures, CoverEveryRegisteredRule) {
  std::set<std::string_view> covered;
  for (const RuleFixture& p : kRuleFixtures) covered.insert(p.rule);
  for (const RuleInfo& rule : all_rules()) {
    EXPECT_TRUE(covered.count(rule.id) == 1)
        << "rule " << rule.id << " has no fixture triple";
  }
}

// ---------------------------------------------------------------------------
// Cross-cutting behaviors.

TEST(Findings, OrderedByLineThenRule) {
  const auto findings = lint_fixture("lint_suppression_positive.cpp");
  ASSERT_GE(findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               if (a.line != b.line) return a.line < b.line;
                               return a.rule < b.rule;
                             }));
}

TEST(Findings, MalformedSuppressionAlsoLeavesTheTargetRuleLive) {
  // Every suppression in the positive fixture is malformed, so the
  // rand() calls it fails to cover are reported too.
  const auto findings = lint_fixture("lint_suppression_positive.cpp");
  EXPECT_EQ(count_rule(findings, "det-rand"), 5u);
}

TEST(DetUnorderedIter, FiresOnlyUnderOutputScope) {
  const std::string name = "det_unordered_iter_positive.cpp";
  EXPECT_EQ(count_rule(lint_fixture(name, output_scope_config()),
                       "det-unordered-iter"),
            2u);
  EXPECT_EQ(count_rule(lint_fixture(name), "det-unordered-iter"), 0u);
}

TEST(DetSortTies, FiresOnlyUnderOutputScopeAtTheCallLine) {
  const std::string name = "det_sort_ties_positive.cpp";
  std::vector<std::size_t> lines;
  for (const Finding& f : lint_fixture(name, output_scope_config())) {
    if (f.rule == "det-sort-ties") lines.push_back(f.line);
  }
  EXPECT_EQ(lines, (std::vector<std::size_t>{14, 16, 18}));
  EXPECT_EQ(count_rule(lint_fixture(name), "det-sort-ties"), 0u);
}

TEST(HeaderContext, SiblingHeaderDeclaresTheUnorderedMember) {
  const std::string header = read_fixture("header_context_store.h");
  const std::string source = read_fixture("header_context_store.cpp");
  const Config config = output_scope_config();

  FileInput with_header{"header_context_store.cpp", source, header};
  EXPECT_EQ(count_rule(lint_file(with_header, config), "det-unordered-iter"),
            1u);

  // Without the sibling header the member's type is unknown — the rule
  // stays quiet rather than guessing.
  FileInput without{"header_context_store.cpp", source};
  EXPECT_EQ(count_rule(lint_file(without, config), "det-unordered-iter"), 0u);
}

TEST(SeverityOverride, ConfigDowngradesAndDisablesRuleFindings) {
  const std::string content = read_fixture("det_rand_positive.cpp");

  ConfigParseResult warn =
      parse_config("severity det-rand warning\n", ".s3lint", Config{});
  ASSERT_TRUE(warn.ok());
  const auto downgraded =
      lint_file({"det_rand_positive.cpp", content}, warn.config);
  ASSERT_EQ(count_rule(downgraded, "det-rand"), 2u);
  for (const Finding& f : downgraded) {
    EXPECT_EQ(f.severity, Severity::kWarning);
  }

  ConfigParseResult off =
      parse_config("disable det-rand\n", ".s3lint", Config{});
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(count_rule(lint_file({"det_rand_positive.cpp", content},
                                 off.config),
                       "det-rand"),
            0u);
}

TEST(AllowDirective, ExemptsByPathSuffixOnly) {
  const std::string content = read_fixture("det_rand_positive.cpp");
  ConfigParseResult r = parse_config("allow det-rand util/rng.cpp\n",
                                     ".s3lint", Config{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(
      count_rule(lint_file({"src/util/rng.cpp", content}, r.config),
                 "det-rand"),
      0u);
  EXPECT_EQ(
      count_rule(lint_file({"src/core/online.cpp", content}, r.config),
                 "det-rand"),
      2u);
}

}  // namespace
}  // namespace s3::lint
