// Structural validation of hierarchical graphs.
//
// Every structural rule carries a stable identifier (`SDF001`...) shared
// with the specification-level lint engine (`lint/lint.hpp`), which folds
// these graph-local rules into its registry alongside the semantic rules
// that need the whole specification.  `validate_or_error` remains the
// Status-returning shim used by construction-time sanity checks.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/hierarchical_graph.hpp"

namespace sdf {

/// Diagnostic severity, ordered so that comparisons work: note < warning
/// < error.
enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

/// "note" / "warning" / "error".
[[nodiscard]] std::string_view severity_name(Severity s);

// ---- rule identifiers --------------------------------------------------------
//
// The graph-structural rules of the shared registry.  docs/LINT.md is the
// catalogue; `lint_rule_catalog()` exposes metadata programmatically.

inline constexpr const char* kRuleVertexWithClusters = "SDF001";
inline constexpr const char* kRuleVertexWithPorts = "SDF002";
inline constexpr const char* kRuleEmptyInterface = "SDF003";
inline constexpr const char* kRuleDanglingPortMapping = "SDF004";
inline constexpr const char* kRuleIncompletePortMapping = "SDF005";
inline constexpr const char* kRuleCrossHierarchyEdge = "SDF006";
inline constexpr const char* kRulePortOwnerMismatch = "SDF007";
inline constexpr const char* kRuleClusterCycle = "SDF008";

/// Options controlling which structural rules `validate` enforces beyond
/// the ones it always runs.
struct ValidateOptions {
  /// Every (port, refinement) pair must have a port mapping.  Off by
  /// default: the paper's examples use default-boundary resolution.
  /// [SDF005]
  bool require_complete_port_mappings = false;
};

/// A single validation finding.
struct ValidationIssue {
  /// Stable rule identifier, e.g. "SDF003".
  std::string rule;
  Severity severity = Severity::kError;
  /// Slash-separated hierarchy path of the offending entity, e.g.
  /// "G_P.root/gD/Pd1".
  std::string location;
  std::string message;
  /// Optional fix-it suggestion.
  std::string hint;
};

/// Hierarchy path of a cluster: ancestry cluster names joined by '/'.
[[nodiscard]] std::string cluster_path(const HierarchicalGraph& g,
                                       ClusterId cluster);
/// Hierarchy path of a node: its owning cluster's path plus the node name.
[[nodiscard]] std::string node_path(const HierarchicalGraph& g, NodeId node);

/// All structural problems found in `g` (empty = valid).
[[nodiscard]] std::vector<ValidationIssue> validate(
    const HierarchicalGraph& g, const ValidateOptions& options = {});

/// Convenience: Status wrapper around `validate` (first issue reported).
[[nodiscard]] Status validate_or_error(const HierarchicalGraph& g,
                                       const ValidateOptions& options = {});

}  // namespace sdf
