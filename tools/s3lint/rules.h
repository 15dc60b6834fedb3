// s3lint rule registry and the per-file lint driver.
//
// Three rule families, each encoding a project invariant the tests can
// only check dynamically:
//
//   determinism — replay/serve/model output must be a pure function of
//     (inputs, seeds): no wall clock, no libc RNG, no entropy source,
//     and no output derived from unordered-container iteration order or
//     from the order std::sort and friends leave equal elements in.
//   lock discipline — shared state uses the annotated util::Mutex
//     capability so clang's -Wthread-safety analysis sees every
//     acquisition, and every mutable field of a lock-owning class is
//     tied to its lock with S3_GUARDED_BY.
//   hygiene — headers are `#pragma once`, never `using namespace`;
//     src/ uses the S3_PRECONDITION contract family instead of bare
//     assert so checks stay runtime-selectable.
//
// Findings can be suppressed inline, one rule at a time, only with a
// reason:
//
//   ... code ...  // s3lint: allow(det-unordered-iter): sorted below
//
// An own-line suppression comment covers the next line. A suppression
// without a reason (or naming an unknown rule) is itself a finding —
// the audit trail is the point.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "s3lint/config.h"

namespace s3::lint {

struct RuleInfo {
  std::string_view id;
  Severity default_severity;
  std::string_view summary;
};

/// Every rule s3lint knows, sorted by id.
std::span<const RuleInfo> all_rules();

/// nullptr when `id` names no rule.
const RuleInfo* find_rule(std::string_view id);

struct Finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;

  /// "path:line: [rule] message" — the diagnostic grammar the CI job
  /// and the fixture tests both key on.
  std::string format() const;
};

/// One file to lint. `header_context` is the text of the sibling
/// header (foo.h next to foo.cpp) when one exists: member fields are
/// declared there, and the determinism/atomic rules need their types
/// to judge loops and accesses in the .cpp.
struct FileInput {
  std::string path;  ///< root-relative, '/'-separated
  std::string_view content;
  std::string_view header_context = {};
};

/// Lints one file under an effective config. Deterministic: findings
/// come out ordered by (line, rule).
std::vector<Finding> lint_file(const FileInput& input, const Config& config);

}  // namespace s3::lint
