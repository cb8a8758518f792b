#include "graph/validate.hpp"

#include <algorithm>

#include "graph/traversal.hpp"
#include "util/strings.hpp"

namespace sdf {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

std::string cluster_path(const HierarchicalGraph& g, ClusterId cluster) {
  std::vector<std::string> names;
  for (ClusterId cid : g.ancestry(cluster)) names.push_back(g.cluster(cid).name);
  return join(names, "/");
}

std::string node_path(const HierarchicalGraph& g, NodeId node) {
  const Node& n = g.node(node);
  return cluster_path(g, n.parent) + "/" + n.name;
}

std::vector<ValidationIssue> validate(const HierarchicalGraph& g,
                                      const ValidateOptions& options) {
  std::vector<ValidationIssue> issues;
  auto issue = [&](const char* rule, Severity severity, std::string location,
                   std::string msg, std::string hint) {
    issues.push_back(ValidationIssue{rule, severity, std::move(location),
                                     std::move(msg), std::move(hint)});
  };

  for (const Node& n : g.nodes()) {
    if (!n.is_interface()) {
      if (!n.clusters.empty())
        issue(kRuleVertexWithClusters, Severity::kError, node_path(g, n.id),
              "vertex '" + n.name + "' has refinement clusters",
              "declare '" + n.name + "' as an interface or drop its clusters");
      if (!n.ports.empty())
        issue(kRuleVertexWithPorts, Severity::kError, node_path(g, n.id),
              "vertex '" + n.name + "' declares ports",
              "only interfaces expose ports; remove them or make '" + n.name +
                  "' an interface");
      continue;
    }
    if (n.clusters.empty())
      issue(kRuleEmptyInterface, Severity::kError, node_path(g, n.id),
            "interface '" + n.name + "' has no refinement cluster",
            "add at least one alternative cluster or demote '" + n.name +
                "' to a plain vertex");
    for (PortId pid : n.ports) {
      const Port& p = g.port(pid);
      // Dangling port mappings: entries for clusters that do not refine this
      // interface, or targets that live outside the mapped cluster.
      for (const auto& [cid, target] : p.mapping) {
        if (g.cluster(cid).parent != n.id) {
          issue(kRuleDanglingPortMapping, Severity::kError, node_path(g, n.id),
                strprintf("port '%s' of interface '%s' is mapped for cluster "
                          "'%s', which does not refine '%s'",
                          p.name.c_str(), n.name.c_str(),
                          g.cluster(cid).name.c_str(), n.name.c_str()),
                "map the port only for this interface's own refinement "
                "clusters");
        } else if (g.node(target).parent != cid) {
          issue(kRuleDanglingPortMapping, Severity::kError, node_path(g, n.id),
                strprintf("port '%s' of interface '%s' maps cluster '%s' to "
                          "node '%s', which lives outside that cluster",
                          p.name.c_str(), n.name.c_str(),
                          g.cluster(cid).name.c_str(),
                          g.node(target).name.c_str()),
                "pick a port target inside the mapped cluster");
        }
      }
      if (options.require_complete_port_mappings) {
        for (ClusterId cid : n.clusters) {
          if (!p.mapping.contains(cid)) {
            issue(kRuleIncompletePortMapping, Severity::kWarning,
                  node_path(g, n.id),
                  strprintf("port '%s' of interface '%s' unmapped for "
                            "cluster '%s'",
                            p.name.c_str(), n.name.c_str(),
                            g.cluster(cid).name.c_str()),
                  "add a port mapping or rely on default boundary "
                  "resolution");
          }
        }
      }
    }
  }

  for (const Edge& e : g.edges()) {
    if (g.node(e.from).parent != g.node(e.to).parent)
      issue(kRuleCrossHierarchyEdge, Severity::kError,
            node_path(g, e.from) + " -> " + node_path(g, e.to),
            strprintf("edge #%u crosses cluster boundaries", e.id.value()),
            "route crossing connections through interface ports instead");
    if (e.src_port.valid() && g.port(e.src_port).owner != e.from)
      issue(kRulePortOwnerMismatch, Severity::kError, node_path(g, e.from),
            strprintf("edge #%u src port owner mismatch", e.id.value()),
            "attach the edge to a port declared by its own endpoint");
    if (e.dst_port.valid() && g.port(e.dst_port).owner != e.to)
      issue(kRulePortOwnerMismatch, Severity::kError, node_path(g, e.to),
            strprintf("edge #%u dst port owner mismatch", e.id.value()),
            "attach the edge to a port declared by its own endpoint");
  }

  for_each_cluster(g, [&](ClusterId cid) {
    if (!topological_order(g, cid).has_value())
      issue(kRuleClusterCycle, Severity::kError, cluster_path(g, cid),
            "cluster '" + g.cluster(cid).name + "' contains a cycle",
            "dependence edges define a partial order; break the cycle");
  });

  return issues;
}

Status validate_or_error(const HierarchicalGraph& g,
                         const ValidateOptions& options) {
  const auto issues = validate(g, options);
  if (issues.empty()) return Status::Ok();
  return Error{"invalid hierarchical graph '" + g.name() +
               "': " + issues.front().message +
               (issues.size() > 1
                    ? strprintf(" (+%zu more)", issues.size() - 1)
                    : "")};
}

}  // namespace sdf
