// Static analysis of specification graphs: a rule-based diagnostics engine.
//
// EXPLORE only produces a meaningful (cost, 1/flexibility) front when the
// hierarchical specification G_S = (G_P, G_A, E_M) is well-formed; defects
// like unmappable leaves or flexibility-dead subtrees otherwise survive
// silently into a long branch-and-bound run.  The lint engine checks
// hierarchy, port, mapping and timing consistency *statically, per level,
// before flattening* — the cheap place to catch them.
//
// Every rule has a stable identifier (SDF001...), a severity and a fix-it
// hint; docs/LINT.md is the catalogue.  The graph-structural rules
// (SDF001-SDF008) are implemented by `graph/validate.cpp` and folded into
// this registry; the semantic rules (SDF009+) need the whole specification.
//
// `lint()` runs the registry over a specification; `lint_errors()` is the
// error-severity-only fast path used as the EXPLORE/upgrade/sensitivity
// preflight.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/validate.hpp"
#include "spec/specification.hpp"
#include "util/json.hpp"

namespace sdf {

// ---- specification-level rule identifiers ------------------------------------
// (SDF001..SDF008 are declared in graph/validate.hpp.)

inline constexpr const char* kRuleUnmappableProcess = "SDF009";
inline constexpr const char* kRuleBadMappingEndpoint = "SDF010";
inline constexpr const char* kRuleDuplicateMapping = "SDF011";
inline constexpr const char* kRuleNegativeAttribute = "SDF012";
inline constexpr const char* kRuleMissingCost = "SDF013";
inline constexpr const char* kRuleSingleAlternative = "SDF014";
inline constexpr const char* kRuleDeadCluster = "SDF015";
inline constexpr const char* kRuleUtilizationImpossible = "SDF016";
inline constexpr const char* kRuleCostUnreachable = "SDF017";
inline constexpr const char* kRuleCapacityImpossible = "SDF018";
inline constexpr const char* kRuleBoundEmptyFront = "SDF019";
inline constexpr const char* kRuleDominatedAlternative = "SDF020";
inline constexpr const char* kRuleCommUnsatisfiable = "SDF021";
inline constexpr const char* kRuleDuplicateName = "SDF022";

/// One lint finding.
struct Diagnostic {
  std::string rule;      ///< stable id, e.g. "SDF009"
  std::string name;      ///< rule slug, e.g. "unmappable-process"
  Severity severity = Severity::kError;
  /// Which part of the specification: "problem", "architecture" or
  /// "mapping", followed by a hierarchy path, e.g. "problem:G_P.root/gD/Pd1".
  std::string location;
  std::string message;
  std::string hint;      ///< fix-it suggestion (may be empty)
};

/// Registry metadata of one rule.
struct RuleInfo {
  std::string id;        ///< "SDF009"
  std::string name;      ///< "unmappable-process"
  Severity severity = Severity::kError;
  std::string summary;   ///< one-line rationale
};

/// The full rule catalogue, id order.
[[nodiscard]] const std::vector<RuleInfo>& lint_rule_catalog();

/// Catalogue lookup by id ("SDF009") or slug ("unmappable-process");
/// nullptr when unknown.
[[nodiscard]] const RuleInfo* find_lint_rule(std::string_view id_or_name);

/// Parses "note" / "warning" / "error"; nullopt otherwise.
[[nodiscard]] std::optional<Severity> parse_severity(std::string_view s);

struct LintOptions {
  /// Run only these rules, by id or slug (empty = the whole registry).
  std::vector<std::string> only_rules;
  /// Run/report only rules of at least this severity.  `kError` gives the
  /// preflight fast path.
  Severity min_severity = Severity::kNote;
};

/// The result of a lint run.
struct LintReport {
  std::vector<Diagnostic> diagnostics;  ///< registry order, then occurrence

  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  [[nodiscard]] std::size_t warnings() const {
    return count(Severity::kWarning);
  }
  [[nodiscard]] std::size_t notes() const { return count(Severity::kNote); }
  [[nodiscard]] bool has_errors() const { return errors() > 0; }

  /// The CLI exit-code contract: 0 = clean or notes only, 1 = warnings,
  /// 2 = errors.
  [[nodiscard]] int exit_code() const;

  /// One line per diagnostic ("<location>: <severity> [<id>] <message>",
  /// hints indented below) plus a summary line.
  [[nodiscard]] std::string to_text() const;

  /// {"diagnostics": [...], "errors": N, "warnings": N, "notes": N}.
  [[nodiscard]] Json to_json() const;
};

/// Runs the rule registry over `spec`.
[[nodiscard]] LintReport lint(const SpecificationGraph& spec,
                              const LintOptions& options = {});

/// Error-severity rules only: the fast preflight EXPLORE and friends run
/// before a potentially multi-minute exploration.
[[nodiscard]] LintReport lint_errors(const SpecificationGraph& spec);

}  // namespace sdf
