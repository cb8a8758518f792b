#include "lint/lint.hpp"

#include <algorithm>

#include "lint/rules.hpp"
#include "spec/compiled.hpp"
#include "util/strings.hpp"

namespace sdf {

using lint_internal::LintContext;
using lint_internal::RuleDef;
using lint_internal::rule_defs;

namespace {

/// Registry position of a rule id; diagnostics sort by it so reports are
/// stable regardless of check order.
std::size_t rule_order(std::string_view id) {
  const auto& defs = rule_defs();
  for (std::size_t i = 0; i < defs.size(); ++i)
    if (id == defs[i].id) return i;
  return defs.size();
}

/// Folds the graph-structural findings of `validate()` over one side of the
/// specification into lint diagnostics, prefixing locations with the side.
void fold_structural(const HierarchicalGraph& g, const char* side,
                     std::vector<Diagnostic>& sink) {
  ValidateOptions options;
  options.require_complete_port_mappings = true;  // SDF005, warning severity
  for (ValidationIssue& issue : validate(g, options)) {
    const RuleDef* def = lint_internal::find_rule_def(issue.rule);
    sink.push_back(Diagnostic{std::move(issue.rule),
                              def != nullptr ? def->name : "",
                              issue.severity,
                              std::string(side) + ":" + issue.location,
                              std::move(issue.message), std::move(issue.hint)});
  }
}

bool rule_selected(const RuleDef& def, const LintOptions& options) {
  if (def.severity < options.min_severity) return false;
  if (options.only_rules.empty()) return true;
  return std::any_of(options.only_rules.begin(), options.only_rules.end(),
                     [&](const std::string& sel) {
                       return sel == def.id || sel == def.name;
                     });
}

/// `lint` with the analyzer rules and SDF016 judged under `solver`.
LintReport run_lint(const SpecificationGraph& spec, const LintOptions& options,
                    const SolverOptions& solver) {
  LintReport report;

  // Structural pass: run validate() once per graph, then keep only the
  // findings whose rules are selected.
  const bool any_structural = std::any_of(
      rule_defs().begin(), rule_defs().end(), [&](const RuleDef& d) {
        return d.check == nullptr && rule_selected(d, options);
      });
  if (any_structural) {
    std::vector<Diagnostic> structural;
    fold_structural(spec.problem(), "problem", structural);
    fold_structural(spec.architecture(), "architecture", structural);
    for (Diagnostic& d : structural) {
      const RuleDef* def = lint_internal::find_rule_def(d.rule);
      if (def != nullptr && rule_selected(*def, options))
        report.diagnostics.push_back(std::move(d));
    }
  }

  // Semantic pass.  The compiled index is built once here and shared by all
  // checks (it tolerates defective specs: mappings onto non-units are kept
  // with an invalid unit id).
  const bool any_semantic = std::any_of(
      rule_defs().begin(), rule_defs().end(), [&](const RuleDef& d) {
        return d.check != nullptr && rule_selected(d, options);
      });
  if (any_semantic) {
    const CompiledSpec& cs = spec.compiled();
    std::optional<SpecAnalysis> analyzer;
    for (const RuleDef& def : rule_defs()) {
      if (def.check == nullptr || !rule_selected(def, options)) continue;
      LintContext ctx{spec, cs, def, report.diagnostics, solver, analyzer};
      def.check(ctx);
    }
  }

  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return rule_order(a.rule) < rule_order(b.rule);
                   });
  return report;
}

}  // namespace

const std::vector<RuleInfo>& lint_rule_catalog() {
  static const std::vector<RuleInfo> catalog = [] {
    std::vector<RuleInfo> out;
    out.reserve(rule_defs().size());
    for (const RuleDef& d : rule_defs())
      out.push_back(RuleInfo{d.id, d.name, d.severity, d.summary});
    return out;
  }();
  return catalog;
}

const RuleInfo* find_lint_rule(std::string_view id_or_name) {
  for (const RuleInfo& info : lint_rule_catalog())
    if (id_or_name == info.id || id_or_name == info.name) return &info;
  return nullptr;
}

std::optional<Severity> parse_severity(std::string_view s) {
  if (s == "note") return Severity::kNote;
  if (s == "warning") return Severity::kWarning;
  if (s == "error") return Severity::kError;
  return std::nullopt;
}

std::size_t LintReport::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

int LintReport::exit_code() const {
  if (errors() > 0) return 2;
  if (warnings() > 0) return 1;
  return 0;
}

std::string LintReport::to_text() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.location;
    out += ": ";
    out += severity_name(d.severity);
    out += " [";
    out += d.rule;
    out += "] ";
    out += d.message;
    out += '\n';
    if (!d.hint.empty()) {
      out += "    hint: ";
      out += d.hint;
      out += '\n';
    }
  }
  out += strprintf("%zu error(s), %zu warning(s), %zu note(s)\n", errors(),
                   warnings(), notes());
  return out;
}

Json LintReport::to_json() const {
  JsonArray items;
  items.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) {
    JsonObject o;
    o.emplace_back("rule", d.rule);
    o.emplace_back("name", d.name);
    o.emplace_back("severity", std::string(severity_name(d.severity)));
    o.emplace_back("location", d.location);
    o.emplace_back("message", d.message);
    if (!d.hint.empty()) o.emplace_back("hint", d.hint);
    items.emplace_back(std::move(o));
  }
  JsonObject root;
  root.emplace_back("diagnostics", std::move(items));
  root.emplace_back("errors", errors());
  root.emplace_back("warnings", warnings());
  root.emplace_back("notes", notes());
  return Json(std::move(root));
}

LintReport lint(const SpecificationGraph& spec, const LintOptions& options) {
  return run_lint(spec, options, SolverOptions{});
}

LintReport lint_errors(const SpecificationGraph& spec,
                       const SolverOptions& solver) {
  LintOptions options;
  options.min_severity = Severity::kError;
  return run_lint(spec, options, solver);
}

}  // namespace sdf
