#include "s3lint/rules.h"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <utility>

#include "s3lint/lexer.h"

namespace s3::lint {

namespace {

constexpr std::array<RuleInfo, 12> kRules = {{
    {"det-rand", Severity::kError,
     "libc RNG (rand/srand/drand48) outside the seeded rng layer"},
    {"det-random-device", Severity::kError,
     "std::random_device draws real entropy; replay output must be seeded"},
    {"det-sort-ties", Severity::kError,
     "comparator sort/selection whose equal elements may reach output"},
    {"det-time", Severity::kError,
     "wall-clock read (time()/system_clock); decisions must use SimTime"},
    {"det-unordered-iter", Severity::kError,
     "iteration over an unordered container in output-producing code"},
    {"hyg-assert", Severity::kError,
     "bare assert(); use the runtime-selectable S3_PRECONDITION family"},
    {"hyg-pragma-once", Severity::kError,
     "header does not open with #pragma once"},
    {"hyg-using-namespace", Severity::kError,
     "using namespace in a header leaks into every includer"},
    {"lint-suppression", Severity::kError,
     "malformed s3lint suppression (unknown rule or missing reason)"},
    {"lock-atomic-mix", Severity::kWarning,
     "atomic field accessed through implicit seq_cst operator"},
    {"lock-raw-mutex", Severity::kError,
     "raw std::mutex/std::lock_guard; use annotated util::Mutex/MutexLock"},
    {"lock-unguarded-field", Severity::kError,
     "mutable field of a lock-owning class lacks S3_GUARDED_BY"},
}};

const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

bool is_header(std::string_view path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

bool ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

// ---------------------------------------------------------------------------
// Suppressions: the tool name, a colon, then allow(<rule>) and a
// mandatory reason tail, inside any comment.

struct Suppression {
  std::size_t line;  ///< line the suppression covers
  std::string rule;
};

struct SuppressionScan {
  std::vector<Suppression> suppressions;
  std::vector<Finding> malformed;  ///< lint-suppression findings
};

SuppressionScan scan_suppressions(const std::string& path,
                                  const std::vector<Comment>& comments) {
  SuppressionScan out;
  std::set<std::size_t> own_line_comments;
  for (const Comment& c : comments) {
    if (c.own_line) own_line_comments.insert(c.line);
  }
  for (const Comment& c : comments) {
    const auto at = c.text.find("s3lint:");
    if (at == std::string::npos) continue;
    auto bad = [&](const std::string& why) {
      out.malformed.push_back({path, c.line, "lint-suppression",
                               Severity::kError, why});
    };
    std::string_view rest = std::string_view(c.text).substr(at + 7);
    while (rest.starts_with(" ")) rest.remove_prefix(1);
    if (!rest.starts_with("allow(")) {
      bad("expected \"s3lint: allow(<rule-id>): <reason>\"");
      continue;
    }
    rest.remove_prefix(6);
    const auto close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("unterminated allow(");
      continue;
    }
    const std::string rule(rest.substr(0, close));
    rest.remove_prefix(close + 1);
    if (find_rule(rule) == nullptr) {
      bad("unknown rule \"" + rule + "\" in suppression");
      continue;
    }
    while (rest.starts_with(" ")) rest.remove_prefix(1);
    if (!rest.starts_with(":")) {
      bad("suppression of " + rule +
          " has no reason; write \"s3lint: allow(" + rule + "): <why>\"");
      continue;
    }
    rest.remove_prefix(1);
    const auto reason_end = rest.find_first_not_of(" \t");
    if (reason_end == std::string_view::npos) {
      bad("suppression of " + rule + " has an empty reason");
      continue;
    }
    out.suppressions.push_back({c.line, rule});
    if (own_line_comments.count(c.line) != 0) {
      // An own-line comment covers the next code line; chains of
      // own-line comments pass the coverage through.
      std::size_t target = c.line + 1;
      while (own_line_comments.count(target) != 0) ++target;
      out.suppressions.push_back({target, rule});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Declaration harvesting: unordered-container names, atomic field
// names, and the class structure the lock rules need.

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Advances past a balanced <...> group starting at tokens[i] == "<".
/// Returns the index just past the closing ">". Treats ">>" as two
/// closers, the C++11 rule.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return i + 1;
    } else if (t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t.text == ";") {
      return i;  // malformed; bail at statement end
    }
  }
  return i;
}

/// Names declared with an unordered container type, members and locals
/// alike: `std::unordered_map<K, V> name ...` => "name".
std::set<std::string> unordered_names(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    if (std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(),
                  toks[i].text) == kUnorderedTypes.end()) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && punct(toks[j], "<")) j = skip_template_args(toks, j);
    // Skip reference/pointer declarators: `unordered_map<..>& name`.
    while (j < toks.size() &&
           (punct(toks[j], "&") || punct(toks[j], "*") ||
            ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

/// Names declared as std::atomic<...> fields or locals.
std::set<std::string> atomic_names(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!ident(toks[i], "atomic")) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && punct(toks[j], "<")) j = skip_template_args(toks, j);
    if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

struct MemberField {
  std::string name;
  std::size_t line;
  bool annotated = false;  ///< carries S3_GUARDED_BY / S3_PT_GUARDED_BY
  bool is_lock = false;    ///< Mutex / std::mutex member
  bool is_atomic = false;
  bool exempt = false;     ///< static / constexpr / const value member
};

struct ClassDecl {
  std::string name;
  std::size_t line;
  std::vector<MemberField> fields;
  bool owns_lock() const {
    return std::any_of(fields.begin(), fields.end(),
                       [](const MemberField& f) { return f.is_lock; });
  }
};

/// Classifies one member-level statement. Returns false for anything
/// that is not a data member (functions, usings, friends, nested type
/// heads are filtered before this point).
bool classify_member(const std::vector<Token>& stmt, MemberField& out) {
  if (stmt.empty()) return false;
  static constexpr std::array<std::string_view, 10> kNotField = {
      "using",    "typedef",  "friend", "static_assert", "template",
      "operator", "enum",     "class",  "struct",        "union"};
  std::vector<Token> body;  // statement minus annotation macros
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.kind == TokenKind::kIdentifier) {
      if (std::find(kNotField.begin(), kNotField.end(), t.text) !=
          kNotField.end()) {
        return false;
      }
      if (t.text == "S3_GUARDED_BY" || t.text == "S3_PT_GUARDED_BY") {
        out.annotated = true;
        // Drop the macro and its argument list from the body.
        if (i + 1 < stmt.size() && punct(stmt[i + 1], "(")) {
          int depth = 0;
          ++i;
          for (; i < stmt.size(); ++i) {
            if (punct(stmt[i], "(")) ++depth;
            if (punct(stmt[i], ")") && --depth == 0) break;
          }
        }
        continue;
      }
    }
    body.push_back(t);
  }
  // A top-level parenthesis means constructor/method/function pointer —
  // not a plain data member.
  int angle = 0;
  for (const Token& t : body) {
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">") angle = std::max(0, angle - 1);
    if (t.text == ">>") angle = std::max(0, angle - 2);
    if (t.text == "(" && angle == 0) return false;
  }
  // Field name: last identifier before the initializer or array bound.
  std::string name;
  std::size_t line = body.empty() ? 0 : body.front().line;
  angle = 0;
  for (const Token& t : body) {
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == ">>") angle = std::max(0, angle - 2);
      if (angle == 0 && (t.text == "=" || t.text == "{" || t.text == "[")) {
        break;
      }
      continue;
    }
    if (t.kind == TokenKind::kIdentifier && angle == 0) {
      name = t.text;
      line = t.line;
    }
  }
  if (name.empty()) return false;
  out.name = name;
  out.line = line;
  for (const Token& t : body) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == name) break;  // flags come from the type, not the init
    if (t.text == "Mutex" || t.text == "mutex" || t.text == "shared_mutex") {
      out.is_lock = true;
    }
    if (t.text == "atomic" || t.text == "atomic_flag") out.is_atomic = true;
    if (t.text == "static" || t.text == "constexpr") out.exempt = true;
  }
  // A const value member is immutable after construction; `const X*`
  // (pointee const, pointer mutable) stays in scope of the rule only
  // if the class chooses to annotate it — treat both as exempt: the
  // pointer itself is set once in every pattern this codebase uses.
  for (const Token& t : body) {
    if (ident(t, "const")) out.exempt = true;
    if (t.kind == TokenKind::kIdentifier && t.text == name) break;
  }
  return true;
}

/// Walks the token stream tracking class/struct bodies and collects
/// their data members. Deliberately tolerant: anything it cannot
/// classify is skipped, never mis-reported.
std::vector<ClassDecl> scan_classes(const std::vector<Token>& toks) {
  std::vector<ClassDecl> out;
  struct Open {
    ClassDecl decl;
    int body_depth;
  };
  std::vector<Open> stack;
  struct Pending {
    std::string name;
    std::size_t line;
    std::size_t open_index;  ///< index of the body's "{" token
  };
  std::vector<Pending> pending;

  int depth = 0;
  std::vector<Token> stmt;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kDirective) continue;

    // Class-head detection (not `enum class`).
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "class" || t.text == "struct") &&
        !(i > 0 && ident(toks[i - 1], "enum"))) {
      std::string name;
      std::size_t line = t.line;
      int nest = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const Token& h = toks[j];
        if (h.kind == TokenKind::kPunct) {
          if (h.text == "(" || h.text == "[" || h.text == "<") ++nest;
          if (h.text == ")" || h.text == "]" || h.text == ">") --nest;
          if (nest > 0) continue;
          if (h.text == ";") break;  // forward declaration
          if (h.text == ":" || h.text == "{") {
            if (h.text == ":" ) {
              // Base clause: the body "{" is the next top-level one.
              std::size_t k = j + 1;
              int bnest = 0;
              for (; k < toks.size(); ++k) {
                if (toks[k].kind != TokenKind::kPunct) continue;
                if (toks[k].text == "(" || toks[k].text == "[" ||
                    toks[k].text == "<") {
                  ++bnest;
                }
                if (toks[k].text == ")" || toks[k].text == "]" ||
                    toks[k].text == ">") {
                  --bnest;
                }
                if (bnest <= 0 &&
                    (toks[k].text == "{" || toks[k].text == ";")) {
                  break;
                }
              }
              if (k < toks.size() && punct(toks[k], "{") && !name.empty()) {
                pending.push_back({name, line, k});
              }
            } else if (!name.empty()) {
              pending.push_back({name, line, j});
            }
            break;
          }
        } else if (h.kind == TokenKind::kIdentifier && nest == 0 &&
                   h.text != "final" && h.text != "alignas") {
          name = h.text;
        }
      }
    }

    const bool at_member_level =
        !stack.empty() && depth == stack.back().body_depth;

    if (punct(t, "{")) {
      // Drop pendings whose body brace was consumed by another path.
      std::erase_if(pending,
                    [&](const Pending& p) { return p.open_index < i; });
      const auto opens = std::find_if(
          pending.begin(), pending.end(),
          [&](const Pending& p) { return p.open_index == i; });
      if (opens != pending.end()) {
        stack.push_back({{opens->name, opens->line, {}}, depth + 1});
        pending.erase(opens);
        stmt.clear();
        ++depth;
        continue;
      }
      if (at_member_level) {
        bool has_paren = false;
        int angle = 0;
        for (const Token& s : stmt) {
          if (s.kind != TokenKind::kPunct) continue;
          if (s.text == "<") ++angle;
          if (s.text == ">") angle = std::max(0, angle - 1);
          if (s.text == ">>") angle = std::max(0, angle - 2);
          if (s.text == "(" && angle == 0) has_paren = true;
        }
        if (has_paren || stmt.empty()) {
          // Function body (or stray block): skip it wholesale.
          int body = 0;
          for (; i < toks.size(); ++i) {
            if (punct(toks[i], "{")) ++body;
            if (punct(toks[i], "}") && --body == 0) break;
          }
          stmt.clear();
          continue;
        }
        // Brace initializer: fold into the statement.
        int init = 0;
        for (; i < toks.size(); ++i) {
          stmt.push_back(toks[i]);
          if (punct(toks[i], "{")) ++init;
          if (punct(toks[i], "}") && --init == 0) break;
        }
        continue;
      }
      ++depth;
      continue;
    }
    if (punct(t, "}")) {
      --depth;
      if (!stack.empty() && depth < stack.back().body_depth) {
        out.push_back(std::move(stack.back().decl));
        stack.pop_back();
      }
      stmt.clear();
      continue;
    }

    if (!at_member_level) continue;

    if (punct(t, ";")) {
      MemberField field;
      if (classify_member(stmt, field)) {
        stack.back().decl.fields.push_back(std::move(field));
      }
      stmt.clear();
      continue;
    }
    if (punct(t, ":") && stmt.size() == 1 &&
        (ident(stmt[0], "public") || ident(stmt[0], "private") ||
         ident(stmt[0], "protected"))) {
      stmt.clear();
      continue;
    }
    stmt.push_back(t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The rules themselves.

class Linter {
 public:
  Linter(const FileInput& input, const Config& config)
      : input_(input), config_(config) {}

  std::vector<Finding> run() {
    const LexResult lexed = lex(input_.content);
    toks_ = &lexed.tokens;

    std::set<std::string> unordered = unordered_names(lexed.tokens);
    std::set<std::string> atomics = atomic_names(lexed.tokens);
    if (!input_.header_context.empty()) {
      const LexResult header = lex(input_.header_context);
      unordered.merge(unordered_names(header.tokens));
      atomics.merge(atomic_names(header.tokens));
    }

    rule_det_rand();
    rule_det_random_device();
    rule_det_time();
    if (config_.output_scope) {
      rule_det_unordered_iter(unordered);
      rule_det_sort_ties();
    }
    rule_lock_raw_mutex();
    rule_lock_unguarded_field();
    rule_lock_atomic_mix(atomics);
    rule_hyg_pragma_once();
    rule_hyg_using_namespace();
    rule_hyg_assert();

    const SuppressionScan sup = scan_suppressions(input_.path, lexed.comments);
    std::vector<Finding> kept;
    for (Finding& f : findings_) {
      const bool suppressed = std::any_of(
          sup.suppressions.begin(), sup.suppressions.end(),
          [&](const Suppression& s) {
            return s.line == f.line && s.rule == f.rule;
          });
      if (!suppressed) kept.push_back(std::move(f));
    }
    if (config_.severity_for("lint-suppression", input_.path,
                             find_rule("lint-suppression")->default_severity) !=
        Severity::kOff) {
      kept.insert(kept.end(), sup.malformed.begin(), sup.malformed.end());
    }
    std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    return kept;
  }

 private:
  const Token& tok(std::size_t i) const { return (*toks_)[i]; }
  std::size_t size() const { return toks_->size(); }

  bool enabled(std::string_view rule) const {
    return severity(rule) != Severity::kOff;
  }
  Severity severity(std::string_view rule) const {
    return config_.severity_for(rule, input_.path,
                                find_rule(rule)->default_severity);
  }
  void report(std::string_view rule, std::size_t line, std::string message) {
    findings_.push_back({input_.path, line, std::string(rule), severity(rule),
                         std::move(message)});
  }

  bool member_access_before(std::size_t i) const {
    return i > 0 && (punct(tok(i - 1), ".") || punct(tok(i - 1), "->"));
  }
  /// True when tokens[i] is qualified by a namespace other than std /
  /// std::chrono (so `util::time(...)` is somebody's own function).
  bool foreign_qualifier_before(std::size_t i) const {
    if (i < 2 || !punct(tok(i - 1), "::")) return false;
    const Token& q = tok(i - 2);
    return !(ident(q, "std") || ident(q, "chrono"));
  }
  bool called(std::size_t i) const {
    return i + 1 < size() && punct(tok(i + 1), "(");
  }

  void rule_det_rand() {
    if (!enabled("det-rand")) return;
    static constexpr std::array<std::string_view, 6> kLibcRng = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"};
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdentifier) continue;
      if (std::find(kLibcRng.begin(), kLibcRng.end(), t.text) ==
          kLibcRng.end()) {
        continue;
      }
      if (!called(i) || member_access_before(i) || foreign_qualifier_before(i)) {
        continue;
      }
      report("det-rand", t.line,
             t.text + "() is unseeded libc RNG; use util::Rng (splitmix64, "
                      "seeded per run) so replays stay reproducible");
    }
  }

  void rule_det_random_device() {
    if (!enabled("det-random-device")) return;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!ident(tok(i), "random_device")) continue;
      report("det-random-device", tok(i).line,
             "std::random_device draws nondeterministic entropy; seed "
             "util::Rng from the run's --seed instead");
    }
  }

  void rule_det_time() {
    if (!enabled("det-time")) return;
    static constexpr std::array<std::string_view, 7> kWallClock = {
        "time", "gettimeofday", "localtime", "gmtime", "mktime", "ftime",
        "clock"};
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "system_clock") {
        report("det-time", t.line,
               "std::chrono::system_clock is wall clock; simulation decisions "
               "use util::SimTime, measurements use steady_clock");
        continue;
      }
      if (std::find(kWallClock.begin(), kWallClock.end(), t.text) ==
          kWallClock.end()) {
        continue;
      }
      if (!called(i) || member_access_before(i) || foreign_qualifier_before(i)) {
        continue;
      }
      report("det-time", t.line,
             t.text + "() reads the wall clock; nothing that feeds replay or "
                      "serve output may depend on real time");
    }
  }

  void rule_det_unordered_iter(const std::set<std::string>& unordered) {
    if (!enabled("det-unordered-iter") || unordered.empty()) return;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!ident(tok(i), "for") || i + 1 >= size() || !punct(tok(i + 1), "(")) {
        continue;
      }
      // Slice out the for-header.
      std::size_t end = i + 1;
      int depth = 0;
      for (; end < size(); ++end) {
        if (punct(tok(end), "(")) ++depth;
        if (punct(tok(end), ")") && --depth == 0) break;
      }
      bool classic = false;
      std::size_t colon = 0;
      depth = 0;
      for (std::size_t j = i + 2; j < end; ++j) {
        if (punct(tok(j), "(") || punct(tok(j), "[") || punct(tok(j), "{")) {
          ++depth;
        }
        if (punct(tok(j), ")") || punct(tok(j), "]") || punct(tok(j), "}")) {
          --depth;
        }
        if (depth != 0) continue;
        if (punct(tok(j), ";")) classic = true;
        if (punct(tok(j), ":") && colon == 0) colon = j;
      }
      if (classic) {
        // `for (auto it = m.begin(); ...)` — flag begin() on a tracked name.
        for (std::size_t j = i + 2; j + 2 < end; ++j) {
          if (tok(j).kind == TokenKind::kIdentifier &&
              unordered.count(tok(j).text) != 0 && punct(tok(j + 1), ".") &&
              (ident(tok(j + 2), "begin") || ident(tok(j + 2), "cbegin"))) {
            report("det-unordered-iter", tok(j).line,
                   "iterator loop over unordered container \"" + tok(j).text +
                       "\": iteration order is hash-dependent; sort or use an "
                       "ordered structure before it reaches output");
          }
        }
      } else if (colon != 0) {
        for (std::size_t j = colon + 1; j < end; ++j) {
          if (tok(j).kind == TokenKind::kIdentifier &&
              unordered.count(tok(j).text) != 0) {
            // `m.at(k)` / `m[k]` in the range expression iterates a
            // mapped value, not the map itself.
            if (j + 1 < end &&
                (punct(tok(j + 1), "[") ||
                 (punct(tok(j + 1), ".") && j + 2 < end &&
                  ident(tok(j + 2), "at")))) {
              continue;
            }
            report("det-unordered-iter", tok(j).line,
                   "range-for over unordered container \"" + tok(j).text +
                       "\": iteration order is hash-dependent; sort or use an "
                       "ordered structure before it reaches output");
            break;
          }
        }
      }
    }
  }

  /// std::sort, std::nth_element and std::partial_sort leave equal
  /// elements in an order the library picks. With their default `<` the
  /// elements are values, so equal ones are interchangeable; with a
  /// comparator they may differ in fields the comparator ignores. Such
  /// a call must break ties totally or say why ties cannot reach output.
  void rule_det_sort_ties() {
    if (!enabled("det-sort-ties")) return;
    // Arguments of the comparator overload: (first, last, comp) for
    // sort, (first, middle|nth, last, comp) for the other two.
    static constexpr std::array<std::pair<std::string_view, std::size_t>, 3>
        kWithComparator = {{{"sort", 3}, {"nth_element", 4},
                            {"partial_sort", 4}}};
    for (std::size_t i = 2; i + 1 < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdentifier) continue;
      const auto algo = std::find_if(
          kWithComparator.begin(), kWithComparator.end(),
          [&](const auto& a) { return a.first == t.text; });
      if (algo == kWithComparator.end()) continue;
      if (!punct(tok(i - 1), "::") || !ident(tok(i - 2), "std") ||
          !called(i)) {
        continue;
      }
      std::size_t args = 1;
      int depth = 0;
      for (std::size_t j = i + 1; j < size(); ++j) {
        const Token& a = tok(j);
        if (a.kind != TokenKind::kPunct) continue;
        if (a.text == "(" || a.text == "[" || a.text == "{") ++depth;
        if (a.text == ")" || a.text == "]" || a.text == "}") {
          if (--depth == 0) break;
        }
        if (a.text == "," && depth == 1) ++args;
      }
      if (args < algo->second) continue;
      report("det-sort-ties", t.line,
             "std::" + t.text + " with a comparator leaves equal elements in "
             "an order the library picks; break ties totally or allow it "
             "with the reason ties cannot reach output");
    }
  }

  void rule_lock_raw_mutex() {
    if (!enabled("lock-raw-mutex")) return;
    static constexpr std::array<std::string_view, 10> kRawTypes = {
        "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
        "shared_timed_mutex", "lock_guard", "unique_lock", "scoped_lock",
        "shared_lock", "recursive_timed_mutex"};
    for (std::size_t i = 2; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdentifier) continue;
      if (std::find(kRawTypes.begin(), kRawTypes.end(), t.text) ==
          kRawTypes.end()) {
        continue;
      }
      if (!punct(tok(i - 1), "::") || !ident(tok(i - 2), "std")) continue;
      report("lock-raw-mutex", t.line,
             "std::" + t.text + " is invisible to -Wthread-safety; use "
             "util::Mutex/MutexLock so S3_GUARDED_BY contracts stay "
             "compiler-checked");
    }
  }

  void rule_lock_unguarded_field() {
    if (!enabled("lock-unguarded-field")) return;
    for (const ClassDecl& decl : scan_classes(*toks_)) {
      if (!decl.owns_lock()) continue;
      for (const MemberField& f : decl.fields) {
        if (f.is_lock || f.is_atomic || f.exempt || f.annotated) continue;
        report("lock-unguarded-field", f.line,
               "\"" + decl.name + "\" owns a lock but field \"" + f.name +
                   "\" has no S3_GUARDED_BY; tie it to its mutex (or mark "
                   "the protocol with S3_NO_THREAD_SAFETY_ANALYSIS)");
      }
    }
  }

  void rule_lock_atomic_mix(const std::set<std::string>& atomics) {
    if (!enabled("lock-atomic-mix") || atomics.empty()) return;
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdentifier || atomics.count(t.text) == 0) {
        continue;
      }
      if (member_access_before(i)) continue;  // other object's field
      // `Type name = ...` declares a fresh local that merely shares the
      // atomic field's name; the preceding type token gives it away.
      if (i > 0 && (tok(i - 1).kind == TokenKind::kIdentifier ||
                    punct(tok(i - 1), "*") || punct(tok(i - 1), "&") ||
                    punct(tok(i - 1), ">") || punct(tok(i - 1), "::"))) {
        continue;
      }
      if (i + 1 >= size() || tok(i + 1).kind != TokenKind::kPunct) continue;
      const std::string& op = tok(i + 1).text;
      const bool write = op == "=" || op == "++" || op == "--" || op == "+=" ||
                         op == "-=" || op == "|=" || op == "&=" || op == "^=";
      if (!write) continue;
      report("lock-atomic-mix", t.line,
             "\"" + t.text + "\" is std::atomic but is written through "
             "operator" + op + " (implicit seq_cst); spell the access "
             ".store()/.fetch_*() with an explicit memory order");
    }
  }

  void rule_hyg_pragma_once() {
    if (!enabled("hyg-pragma-once") || !is_header(input_.path)) return;
    for (std::size_t i = 0; i < size(); ++i) {
      if (tok(i).kind != TokenKind::kDirective) continue;
      std::istringstream d(tok(i).text);
      std::string hash_word, pragma_word;
      d >> hash_word >> pragma_word;
      if ((hash_word == "#pragma" && pragma_word == "once") ||
          (hash_word == "#" && pragma_word == "pragma")) {
        return;  // first directive is the guard — good
      }
      report("hyg-pragma-once", tok(i).line,
             "first preprocessor directive must be #pragma once (found \"" +
                 tok(i).text + "\")");
      return;
    }
    report("hyg-pragma-once", 1, "header has no #pragma once");
  }

  void rule_hyg_using_namespace() {
    if (!enabled("hyg-using-namespace") || !is_header(input_.path)) return;
    for (std::size_t i = 0; i + 1 < size(); ++i) {
      if (ident(tok(i), "using") && ident(tok(i + 1), "namespace")) {
        report("hyg-using-namespace", tok(i).line,
               "using namespace in a header injects the namespace into every "
               "translation unit that includes it");
      }
    }
  }

  void rule_hyg_assert() {
    if (!enabled("hyg-assert")) return;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!ident(tok(i), "assert") || !called(i) || member_access_before(i)) {
        continue;
      }
      report("hyg-assert", tok(i).line,
             "bare assert() vanishes in release builds; use S3_PRECONDITION / "
             "S3_POSTCONDITION / S3_INVARIANT (runtime-selectable, counted on "
             "the metrics bus)");
    }
  }

  const FileInput& input_;
  const Config& config_;
  const std::vector<Token>* toks_ = nullptr;
  std::vector<Finding> findings_;
};

}  // namespace

std::span<const RuleInfo> all_rules() { return kRules; }

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : kRules) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

std::string Finding::format() const {
  return path + ":" + std::to_string(line) + ": [" + rule + "] " +
         severity_name(severity) + ": " + message;
}

std::vector<Finding> lint_file(const FileInput& input, const Config& config) {
  return Linter(input, config).run();
}

}  // namespace s3::lint
