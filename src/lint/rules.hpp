// Internal rule table of the lint engine (see lint.hpp for the public API).
//
// A rule is metadata plus an optional check function.  Graph-structural
// rules (SDF001-SDF008) have no check function here: they are implemented
// by `graph/validate.cpp` and folded in by the engine's structural pass, so
// `validate_or_error` and `lint` share one implementation.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "analysis/analysis.hpp"
#include "lint/lint.hpp"

namespace sdf::lint_internal {

struct RuleDef;

/// Mutable state handed to a check function: the spec under analysis (raw
/// and compiled — the engine builds the query index once for all semantic
/// rules), the rule being run, the diagnostic sink, the solver options the
/// verdicts hold under, and the run's static analyzer.
struct LintContext {
  const SpecificationGraph& spec;
  const CompiledSpec& compiled;
  const RuleDef& rule;
  std::vector<Diagnostic>& sink;
  const SolverOptions& solver;
  /// Built by the first rule that calls `analysis()`, then shared by the
  /// run's later rules.
  std::optional<SpecAnalysis>& analyzer;

  void report(std::string location, std::string message,
              std::string hint = "");
  /// The spec's analysis under `solver`.
  [[nodiscard]] const SpecAnalysis& analysis();
};

using CheckFn = void (*)(LintContext&);

struct RuleDef {
  const char* id;       ///< "SDF009"
  const char* name;     ///< "unmappable-process"
  Severity severity;
  const char* summary;  ///< one-line rationale (docs/LINT.md has the prose)
  CheckFn check;        ///< nullptr for graph-structural rules
};

/// The whole registry, id order.
[[nodiscard]] const std::vector<RuleDef>& rule_defs();

/// Lookup by id or slug; nullptr when unknown.
[[nodiscard]] const RuleDef* find_rule_def(std::string_view id_or_name);

}  // namespace sdf::lint_internal
