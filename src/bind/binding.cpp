#include "bind/binding.hpp"

#include <queue>

#include "spec/compiled.hpp"
#include "util/strings.hpp"

namespace sdf {

void Binding::assign(BindingAssignment a) {
  assignments_.push_back(std::move(a));
}

const BindingAssignment* Binding::find(NodeId process) const {
  for (const BindingAssignment& a : assignments_)
    if (a.process == process) return &a;
  return nullptr;
}

double Binding::total_latency() const {
  double sum = 0.0;
  for (const BindingAssignment& a : assignments_) sum += a.latency;
  return sum;
}

namespace {

/// BFS over top-level architecture nodes that are "present" under `alloc`
/// (vertex units allocated, or interfaces with an allocated configuration).
bool tops_path_connected(const CompiledSpec& cs, const AllocSet& alloc,
                         NodeId from, NodeId to) {
  const HierarchicalGraph& arch = cs.architecture();
  // Presence of each top-level node under the allocation.
  DynBitset present(arch.node_count());
  const auto& units = cs.units();
  alloc.for_each(
      [&](std::size_t i) { present.set(units[i].top.index()); });
  if (!present.test(from.index()) || !present.test(to.index())) return false;

  DynBitset seen(arch.node_count());
  std::queue<NodeId> frontier;
  frontier.push(from);
  seen.set(from.index());
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop();
    if (cur == to) return true;
    auto visit = [&](NodeId next) {
      if (!present.test(next.index()) || seen.test(next.index())) return;
      seen.set(next.index());
      frontier.push(next);
    };
    for (EdgeId eid : arch.node(cur).out_edges) visit(arch.edge(eid).to);
    for (EdgeId eid : arch.node(cur).in_edges) visit(arch.edge(eid).from);
  }
  return false;
}

}  // namespace

bool units_can_communicate(const CompiledSpec& cs, const AllocSet& alloc,
                           AllocUnitId a, AllocUnitId b, CommModel model) {
  switch (model) {
    case CommModel::kDirectOnly:
      // `tops_direct` also covers the equal-top case.
      return cs.tops_direct(a, b);
    case CommModel::kOneHopBus:
      return cs.comm_reachable(alloc, a, b);
    case CommModel::kAnyPath: {
      const NodeId top_a = cs.unit(a).top;
      const NodeId top_b = cs.unit(b).top;
      if (top_a == top_b) return true;
      return tops_path_connected(cs, alloc, top_a, top_b);
    }
  }
  return false;
}

Status check_binding(const CompiledSpec& cs, const AllocSet& alloc,
                     const FlatGraph& flat, const Binding& binding,
                     CommModel model) {
  const HierarchicalGraph& p = cs.problem();

  // Rule 1: assignments start at activated problem vertices and end at
  // allocated resources.
  for (const BindingAssignment& a : binding.assignments()) {
    if (!flat.contains_vertex(a.process))
      return Error{strprintf("rule 1: process '%s' bound but not activated",
                             p.node(a.process).name.c_str())};
    if (!a.unit.valid() || !alloc.test(a.unit.index()))
      return Error{strprintf("rule 1: process '%s' bound to unallocated "
                             "resource",
                             p.node(a.process).name.c_str())};
  }

  // Rule 2: exactly one activated mapping edge per activated leaf.
  for (NodeId v : flat.vertices) {
    std::size_t count = 0;
    for (const BindingAssignment& a : binding.assignments())
      if (a.process == v) ++count;
    if (count != 1)
      return Error{strprintf("rule 2: process '%s' has %zu activated mapping "
                             "edges (needs exactly 1)",
                             p.node(v).name.c_str(), count)};
  }

  // Rule 3: communication feasibility of every activated dependence edge.
  for (const auto& [from, to] : flat.edges) {
    const BindingAssignment* af = binding.find(from);
    const BindingAssignment* at = binding.find(to);
    SDF_CHECK(af != nullptr && at != nullptr, "rule 2 passed but lookup failed");
    if (af->unit == at->unit) continue;
    if (!units_can_communicate(cs, alloc, af->unit, at->unit, model))
      return Error{strprintf(
          "rule 3: no activated communication between '%s' (on %s) and '%s' "
          "(on %s)",
          p.node(from).name.c_str(), cs.unit(af->unit).name.c_str(),
          p.node(to).name.c_str(), cs.unit(at->unit).name.c_str())};
  }

  return Status::Ok();
}

}  // namespace sdf
