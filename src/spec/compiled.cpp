#include "spec/compiled.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "spec/spec_io.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/word_hash.hpp"

namespace sdf {

CompiledSpec::CompiledSpec(const SpecificationGraph& spec) : spec_(spec) {
  const HierarchicalGraph& problem = spec.problem();
  const HierarchicalGraph& arch = spec.architecture();
  const std::size_t np = problem.node_count();

  // ---- units: the universe, resource ownership, interface prices ----------
  // Built from the graphs alone: `spec.compiled()` holds its lock while this
  // runs, so the spec's unit accessors must not be called back.
  resource_to_unit_.assign(arch.node_count(), AllocUnitId{});
  const auto push_unit = [&](AllocUnit u) {
    u.id = AllocUnitId{units_.size()};
    units_.push_back(std::move(u));
    return units_.back().id;
  };
  // Top-level vertices first, arena order.
  for (const NodeId nid : arch.cluster(arch.root()).nodes) {
    const Node& n = arch.node(nid);
    if (n.is_interface()) continue;
    AllocUnit u;
    u.name = n.name;
    u.vertex = nid;
    u.cost = arch.attr_or(nid, attr::kCost, 0.0);
    u.is_comm = arch.attr_or(nid, attr::kComm, 0.0) != 0.0;
    u.top = nid;
    resource_to_unit_[nid.index()] = push_unit(std::move(u));
  }
  // Then the outermost refinement clusters (those whose interface sits at
  // the top level), arena order: the paper's "whole clusters" granularity.
  // Every leaf in such a cluster's subtree resolves to its unit.
  for (const Cluster& c : arch.clusters()) {
    if (c.is_root() || !arch.cluster(arch.node(c.parent).parent).is_root())
      continue;
    AllocUnit u;
    u.name = c.name;
    u.cluster = c.id;
    u.cost = arch.attr_or(c.id, attr::kCost, 0.0);
    u.top = c.parent;
    const AllocUnitId id = push_unit(std::move(u));
    for (const NodeId leaf : arch.leaves(c.id))
      resource_to_unit_[leaf.index()] = id;
  }
  const std::size_t nu = units_.size();

  unit_capacity_.resize(nu, 0.0);
  unit_iface_slot_.assign(nu, npos);
  for (const AllocUnit& u : units_) {
    unit_capacity_[u.id.index()] =
        u.is_cluster_unit() ? arch.attr_or(u.cluster, attr::kCapacity, 0.0)
                            : arch.attr_or(u.vertex, attr::kCapacity, 0.0);
    if (!u.is_cluster_unit()) continue;
    // One dense slot per configurable device (top interface), so the
    // device's own cost is charged at most once per allocation.
    std::size_t slot = npos;
    for (std::size_t j = 0; j < u.id.index(); ++j)
      if (units_[j].is_cluster_unit() && units_[j].top == u.top) {
        slot = unit_iface_slot_[j];
        break;
      }
    if (slot == npos) {
      slot = iface_cost_.size();
      iface_cost_.push_back(arch.attr_or(u.top, attr::kCost, 0.0));
    }
    unit_iface_slot_[u.id.index()] = slot;
  }

  // ---- mapping edges: CSR by process, insertion order preserved ------------
  const std::vector<MappingEdge>& mappings = spec.mappings();
  map_offsets_.assign(np + 1, 0);
  for (const MappingEdge& m : mappings) ++map_offsets_[m.process.index() + 1];
  for (std::size_t i = 0; i < np; ++i) map_offsets_[i + 1] += map_offsets_[i];
  map_entries_.resize(mappings.size());
  {
    std::vector<std::size_t> cursor(map_offsets_.begin(),
                                    map_offsets_.end() - 1);
    for (const MappingEdge& m : mappings) {
      const AllocUnitId unit = m.resource.index() < resource_to_unit_.size()
                                   ? resource_to_unit_[m.resource.index()]
                                   : AllocUnitId{};
      map_entries_[cursor[m.process.index()]++] =
          CompiledMapping{m.resource, unit, m.latency};
    }
  }

  // ---- reachability: bitset + first-seen-order list per process ------------
  reach_bits_.assign(np, DynBitset(nu));
  reach_offsets_.assign(np + 1, 0);
  for (std::size_t p = 0; p < np; ++p) {
    for (const CompiledMapping& m : mappings_of(NodeId{p}))
      if (m.unit.valid() && !reach_bits_[p].test(m.unit.index())) {
        reach_bits_[p].set(m.unit.index());
        ++reach_offsets_[p + 1];
      }
  }
  for (std::size_t i = 0; i < np; ++i)
    reach_offsets_[i + 1] += reach_offsets_[i];
  reach_list_.resize(reach_offsets_[np]);
  {
    std::vector<std::size_t> cursor(reach_offsets_.begin(),
                                    reach_offsets_.end() - 1);
    DynBitset seen(nu);
    for (std::size_t p = 0; p < np; ++p) {
      seen.clear();
      for (const CompiledMapping& m : mappings_of(NodeId{p}))
        if (m.unit.valid() && !seen.test(m.unit.index())) {
          seen.set(m.unit.index());
          reach_list_[cursor[p]++] = m.unit;
        }
    }
  }

  // ---- candidate processes per unit (ascending, deduplicated) --------------
  mappable_units_ = DynBitset(nu);
  unit_proc_offsets_.assign(nu + 1, 0);
  for (std::size_t p = 0; p < np; ++p)
    reach_bits_[p].for_each([&](std::size_t u) {
      mappable_units_.set(u);
      ++unit_proc_offsets_[u + 1];
    });
  for (std::size_t i = 0; i < nu; ++i)
    unit_proc_offsets_[i + 1] += unit_proc_offsets_[i];
  unit_procs_.resize(unit_proc_offsets_[nu]);
  {
    std::vector<std::size_t> cursor(unit_proc_offsets_.begin(),
                                    unit_proc_offsets_.end() - 1);
    for (std::size_t p = 0; p < np; ++p)
      reach_bits_[p].for_each(
          [&](std::size_t u) { unit_procs_[cursor[u]++] = NodeId{p}; });
  }

  // ---- dense per-process attributes ----------------------------------------
  period_.resize(np);
  weight_.resize(np);
  footprint_.resize(np);
  demand_.resize(np, 0.0);
  for (std::size_t p = 0; p < np; ++p) {
    const NodeId id{p};
    period_[p] = problem.attr_or(id, attr::kPeriod, 0.0);
    weight_[p] = problem.attr_or(id, attr::kTimingWeight, 1.0);
    footprint_[p] = problem.attr_or(id, attr::kFootprint, 0.0);
    if (period_[p] > 0.0 && weight_[p] > 0.0)
      demand_[p] = weight_[p] / period_[p];
  }

  // ---- communication: per-top adjacency folded into per-unit bitsets -------
  // Architecture-edge adjacency of each node (either direction), as a
  // bitset over architecture nodes.
  std::vector<DynBitset> arch_adj(arch.node_count(),
                                  DynBitset(arch.node_count()));
  for (const Edge& e : arch.edges()) {
    arch_adj[e.from.index()].set(e.to.index());
    arch_adj[e.to.index()].set(e.from.index());
  }

  comm_neighbor_tops_.resize(nu);
  tops_direct_.assign(nu, DynBitset(nu));
  comm_adj_.assign(nu, DynBitset(nu));
  comm_units_ = DynBitset(nu);
  for (const AllocUnit& a : units_) {
    const std::size_t i = a.id.index();
    if (a.is_comm) comm_units_.set(i);
    for (const AllocUnit& b : units_) {
      if (a.top == b.top || arch_adj[a.top.index()].test(b.top.index()))
        tops_direct_[i].set(b.id.index());
      if (b.is_comm && arch_adj[b.top.index()].test(a.top.index()))
        comm_adj_[i].set(b.id.index());
    }
    if (a.is_comm)
      arch_adj[a.top.index()].for_each([&](std::size_t n) {
        comm_neighbor_tops_[i].push_back(NodeId{n});
      });
  }

  build_decomposition();
}

void CompiledSpec::build_decomposition() {
  const HierarchicalGraph& problem = spec_.problem();
  const std::size_t np = problem.node_count();
  const std::size_t nc = problem.cluster_count();
  const std::size_t nu = units_.size();
  const std::size_t nslots = iface_cost_.size();

  // ---- preorder: each node, then the nodes of each of its refinements -----
  // A node's subtree over all alternatives is then one interval of
  // preorder numbers.  Walks start at the root and at every cluster no
  // interface owns (one attached to a plain vertex, an SDF001 defect, is no
  // part of the vertex's subtree).  An explicit stack keeps arbitrarily
  // deep hierarchies off the call stack.
  preorder_.assign(np, 0);
  std::vector<NodeId> visit;  // nodes in preorder
  visit.reserve(np);
  {
    std::vector<NodeId> stack;
    const auto push_children = [&](const std::vector<NodeId>& nodes) {
      stack.insert(stack.end(), nodes.rbegin(), nodes.rend());
    };
    for (const Cluster& c : problem.clusters()) {
      if (!c.is_root() && problem.node(c.parent).is_interface()) continue;
      push_children(c.nodes);
      while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        preorder_[id.index()] = static_cast<std::uint32_t>(visit.size());
        visit.push_back(id);
        const Node& n = problem.node(id);
        if (!n.is_interface()) continue;
        for (auto c = n.clusters.rbegin(); c != n.clusters.rend(); ++c)
          push_children(problem.cluster(*c).nodes);
      }
    }
  }

  // ---- per-node subtree summaries, bottom-up ------------------------------
  // `subtree_end`: one past the subtree's last preorder number; `sub_dev`:
  // the dense device slots (`unit_iface_slot_`) reachable in it, since two
  // subtrees touching configurations of the same device couple through the
  // exclusive-configuration rule even with disjoint unit sets.
  std::vector<std::uint32_t> subtree_end(np);
  std::vector<DynBitset> sub_units(np, DynBitset(nu));
  std::vector<DynBitset> sub_dev(np, DynBitset(nslots));
  for (auto it = visit.rbegin(); it != visit.rend(); ++it) {
    const std::size_t i = it->index();
    const Node& n = problem.node(*it);
    subtree_end[i] = preorder_[i] + 1;
    if (!n.is_interface()) {
      sub_units[i] |= reach_bits_[i];
      reach_bits_[i].for_each([&](std::size_t u) {
        const std::size_t slot = unit_iface_slot_[u];
        if (slot != npos) sub_dev[i].set(slot);
      });
      continue;
    }
    for (const ClusterId cid : n.clusters) {
      for (const NodeId child : problem.cluster(cid).nodes) {
        const std::size_t c = child.index();
        subtree_end[i] = std::max(subtree_end[i], subtree_end[c]);
        sub_units[i] |= sub_units[c];
        sub_dev[i] |= sub_dev[c];
      }
    }
  }

  // Each node's position among its own cluster's nodes.
  std::vector<std::size_t> slot_of(np, 0);
  for (const Cluster& c : problem.clusters())
    for (std::size_t i = 0; i < c.nodes.size(); ++i)
      slot_of[c.nodes[i].index()] = i;

  // ---- per-cluster union-find over direct nodes ----------------------------
  decomposition_.assign(nc, ClusterDecomposition{});
  std::vector<std::size_t> parent, group_of;
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const Cluster& cluster = problem.cluster(ClusterId{ci});
    const std::size_t k = cluster.nodes.size();
    if (k == 0) continue;

    parent.resize(k);
    for (std::size_t i = 0; i < k; ++i) parent[i] = i;
    const auto find = [&parent](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    const auto unite = [&](std::size_t a, std::size_t b) {
      parent[find(a)] = find(b);
    };

    // (a) dependence edges of this cluster couple their endpoints.
    for (const EdgeId eid : cluster.edges) {
      const Edge& e = problem.edge(eid);
      if (problem.node(e.from).parent == cluster.id &&
          problem.node(e.to).parent == cluster.id)
        unite(slot_of[e.from.index()], slot_of[e.to.index()]);
    }
    // (b) shared mappable units couple via utilization/capacity sums;
    // (c) shared devices couple via exclusive configurations.
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t ni = cluster.nodes[i].index();
      for (std::size_t j = 0; j < i; ++j) {
        const std::size_t nj = cluster.nodes[j].index();
        if (sub_units[ni].intersects(sub_units[nj]) ||
            sub_dev[ni].intersects(sub_dev[nj]))
          unite(i, j);
      }
    }

    // ---- materialize groups, ascending by smallest member ------------------
    // A group's items are siblings in cluster order, so their subtrees are
    // consecutive preorder intervals; adjacent ones merge.
    ClusterDecomposition& d = decomposition_[ci];
    group_of.assign(k, npos);
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t& gi = group_of[find(i)];
      if (gi == npos) {
        gi = d.groups.size();
        d.groups.push_back(ClusterGroup{});
        d.groups.back().subtree_units = DynBitset(nu);
      }
      ClusterGroup& g = d.groups[gi];
      const NodeId item = cluster.nodes[i];
      const std::uint32_t begin = preorder_[item.index()];
      const std::uint32_t end = subtree_end[item.index()];
      g.items.push_back(item);
      if (!g.subtree.empty() && g.subtree.back().second == begin)
        g.subtree.back().second = end;
      else
        g.subtree.emplace_back(begin, end);
      g.subtree_units |= sub_units[item.index()];
    }
    for (ClusterGroup& g : d.groups) {
      g.single_interface =
          g.items.size() == 1 && problem.node(g.items[0]).is_interface();
      // FNV-1a over the group's static port signature.
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t w) {
        h ^= w;
        h *= 1099511628211ull;
      };
      mix(g.items.size());
      for (const NodeId item : g.items) {
        const Node& n = problem.node(item);
        mix(n.is_interface() ? 1 : 2);
        if (!n.is_interface()) continue;
        mix(n.ports.size());
        for (const PortId pid : n.ports) {
          const Port& port = problem.port(pid);
          mix(port.direction == PortDirection::kIn ? 3 : 4);
          mix(port.mapping.size());
        }
        mix(n.clusters.size());
      }
      g.signature = h;
    }
  }

  // ---- usefulness: can the hierarchical path ever beat the flat kernel? ---
  std::vector<std::uint8_t> state(nc, 0);  // 0 = unvisited, 1 = done
  const std::function<bool(ClusterId)> useful = [&](ClusterId cid) -> bool {
    ClusterDecomposition& d = decomposition_[cid.index()];
    if (state[cid.index()] != 0) return d.useful;
    state[cid.index()] = 1;
    if (d.groups.size() > 1) {
      d.useful = true;
    } else if (d.groups.size() == 1 && d.groups[0].single_interface) {
      for (const ClusterId alt : problem.node(d.groups[0].items[0]).clusters)
        if (useful(alt)) d.useful = true;
    }
    return d.useful;
  };
  for (std::size_t ci = 0; ci < nc; ++ci) useful(ClusterId{ci});
  hier_useful_ = useful(problem.root());
}

bool CompiledSpec::in_subtree(const ClusterGroup& group, NodeId node) const {
  const std::uint32_t p = preorder_[node.index()];
  const auto after = std::upper_bound(
      group.subtree.begin(), group.subtree.end(), p,
      [](std::uint32_t v, const auto& span) { return v < span.first; });
  return after != group.subtree.begin() && p < std::prev(after)->second;
}

double CompiledSpec::allocation_cost(const AllocSet& alloc) const {
  // Summation order: ascending unit index, each unit's cost followed by its
  // device's cost the first time a configuration of that device appears.
  double cost = 0.0;
  if (iface_cost_.size() <= 64) {
    std::uint64_t charged = 0;
    alloc.for_each([&](std::size_t i) {
      cost += units_[i].cost;
      const std::size_t slot = unit_iface_slot_[i];
      if (slot == npos) return;
      const std::uint64_t bit = std::uint64_t{1} << slot;
      if ((charged & bit) == 0) {
        charged |= bit;
        cost += iface_cost_[slot];
      }
    });
  } else {
    DynBitset charged(iface_cost_.size());
    alloc.for_each([&](std::size_t i) {
      cost += units_[i].cost;
      const std::size_t slot = unit_iface_slot_[i];
      if (slot != npos && !charged.test(slot)) {
        charged.set(slot);
        cost += iface_cost_[slot];
      }
    });
  }
  return cost;
}

namespace {

/// Approximate heap payload of one flatten-cache entry, for the byte budget.
std::size_t flat_entry_bytes(const CompiledFlat* flat) {
  if (flat == nullptr) return sizeof(void*);
  std::size_t bytes = sizeof(CompiledFlat);
  bytes += flat->graph.vertices.capacity() * sizeof(NodeId);
  bytes += flat->graph.edges.capacity() * sizeof(std::pair<NodeId, NodeId>);
  bytes += flat->graph.active_clusters.capacity() * sizeof(ClusterId);
  bytes += flat->graph.active_interfaces.capacity() * sizeof(NodeId);
  bytes += flat->index_of.capacity() * sizeof(std::size_t);
  bytes += flat->adj.capacity() * sizeof(std::vector<std::size_t>);
  for (const std::vector<std::size_t>& n : flat->adj)
    bytes += n.capacity() * sizeof(std::size_t);
  bytes += flat->edge_pairs.capacity() *
           sizeof(std::pair<std::size_t, std::size_t>);
  bytes += (flat->demand.capacity() + flat->footprint.capacity()) *
           sizeof(double);
  bytes += (flat->load_order.capacity() + flat->footprint_order.capacity()) *
           sizeof(std::uint32_t);
  return bytes;
}

/// Approximate heap payload of one prepared-activation list, flattenings
/// included (the list keeps them alive past their flatten-cache eviction).
std::size_t prepared_bytes(const PreparedEcas& ecas) {
  std::size_t bytes =
      sizeof(PreparedEcas) + ecas.capacity() * sizeof(PreparedEca);
  for (const PreparedEca& p : ecas) {
    // One hash node per selected interface.
    bytes += p.eca.selection.size() *
             (sizeof(NodeId) + sizeof(ClusterId) + 2 * sizeof(void*));
    bytes += p.eca.clusters.capacity() * sizeof(ClusterId);
    bytes += p.key.capacity() * sizeof(std::uint32_t);
    bytes += p.groups.capacity() * sizeof(PreparedGroup);
    for (const PreparedGroup& g : p.groups)
      bytes += g.key.capacity() * sizeof(std::uint32_t);
    bytes += flat_entry_bytes(p.flat.get());
  }
  return bytes;
}

using SelectionPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Appends the terminal groups of `cluster`'s decomposition under
/// `selection` (see `PreparedEca::groups`), each with its `HierCache` key.
void collect_terminal_groups(const CompiledSpec& cs,
                             const ClusterSelection& selection,
                             const SelectionPairs& pairs, ClusterId cluster,
                             std::vector<PreparedGroup>& out) {
  const ClusterDecomposition& d = cs.decomposition(cluster);
  for (std::size_t gi = 0; gi < d.groups.size(); ++gi) {
    const ClusterGroup& g = d.groups[gi];
    if (g.single_interface) {
      const ClusterId alt = selection.selected(g.items[0]);
      if (alt.valid() && cs.decomposition(alt).useful) {
        collect_terminal_groups(cs, selection, pairs, alt, out);
        continue;
      }
    }
    PreparedGroup& t = out.emplace_back();
    t.group = &g;
    std::vector<std::uint32_t>& key = t.key;
    key.push_back(static_cast<std::uint32_t>(cluster.index()));
    key.push_back(static_cast<std::uint32_t>(gi));
    key.push_back(static_cast<std::uint32_t>(g.signature));
    key.push_back(static_cast<std::uint32_t>(g.signature >> 32));
    const std::size_t restriction_slot = key.size();
    key.push_back(0);  // patched below: number of restricted selection pairs
    std::uint32_t restricted = 0;
    for (const auto& [iface, cl] : pairs) {
      const NodeId id{iface};
      if (!cs.problem().node(id).is_interface() || !cs.in_subtree(g, id))
        continue;
      key.push_back(iface);
      key.push_back(cl);
      ++restricted;
    }
    key[restriction_slot] = restricted;
  }
}

}  // namespace

void CompiledSpec::evict_flat_locked() const {
  while (flat_cache_.size() > 1 &&
         ((flat_max_entries_ != 0 && flat_cache_.size() > flat_max_entries_) ||
          (flat_max_bytes_ != 0 && flat_bytes_ > flat_max_bytes_))) {
    const FlatKey* victim = lru_.back();
    const auto it = flat_cache_.find(*victim);
    SDF_CHECK(it != flat_cache_.end(), "flatten-cache LRU key without entry");
    flat_bytes_ -= it->second.bytes;
    lru_.pop_back();
    flat_cache_.erase(it);
    ++flat_evictions_;
  }
}

std::shared_ptr<const CompiledFlat> CompiledSpec::flat(
    const ClusterSelection& selection) const {
  FlatKey key = selection.key();
  {
    const std::lock_guard<std::mutex> lock(flat_mutex_);
    if (const auto it = flat_cache_.find(key); it != flat_cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // move to front
      return it->second.flat;
    }
  }

  // Build outside the lock: flattening is pure, and a concurrent duplicate
  // build is cheaper than serializing every miss.
  Result<FlatGraph> fg = flatten(spec_.problem(), selection);
  std::shared_ptr<CompiledFlat> entry;  // null memoizes a failed flattening
  if (fg.ok()) {
    entry = std::make_shared<CompiledFlat>();
    entry->graph = std::move(fg.value());
    const std::vector<NodeId>& vertices = entry->graph.vertices;
    entry->index_of.assign(spec_.problem().node_count(), CompiledFlat::npos);
    for (std::size_t i = 0; i < vertices.size(); ++i)
      entry->index_of[vertices[i].index()] = i;
    entry->adj.resize(vertices.size());
    entry->edge_pairs.reserve(entry->graph.edges.size());
    for (const auto& [from, to] : entry->graph.edges) {
      const std::size_t a = entry->index_of[from.index()];
      const std::size_t b = entry->index_of[to.index()];
      SDF_CHECK(a != CompiledFlat::npos && b != CompiledFlat::npos,
                "flat edge endpoint is not an active leaf");
      entry->adj[a].push_back(b);
      entry->adj[b].push_back(a);
      entry->edge_pairs.emplace_back(a, b);
    }
    entry->demand.resize(vertices.size());
    entry->footprint.resize(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      entry->demand[i] = demand_[vertices[i].index()];
      entry->footprint[i] = footprint_[vertices[i].index()];
    }
    sort_loads(*entry);
  }

  const std::lock_guard<std::mutex> lock(flat_mutex_);
  const auto [it, inserted] = flat_cache_.try_emplace(std::move(key));
  if (!inserted) {
    // A concurrent miss beat us to the publish; keep the winner's entry so
    // every caller observes one canonical flattening per selection.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.flat;
  }
  it->second.flat = std::move(entry);
  it->second.bytes = flat_entry_bytes(it->second.flat.get());
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  flat_bytes_ += it->second.bytes;
  evict_flat_locked();
  return it->second.flat;
}

void CompiledSpec::sort_loads(CompiledFlat& flat) const {
  // Ties keep ascending index order, so every build sorts alike.
  const std::vector<NodeId>& vertices = flat.graph.vertices;
  std::vector<std::pair<double, std::uint32_t>> keyed;
  std::uint32_t position = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (const CompiledMapping& m : mappings_of(vertices[i])) {
      const double share = flat.demand[i] * m.latency;
      if (flat.demand[i] > 0.0 && !std::isnan(share))
        keyed.emplace_back(share, position);
      ++position;
    }
  }
  const auto largest_first = [](const std::pair<double, std::uint32_t>& a,
                                const std::pair<double, std::uint32_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  std::sort(keyed.begin(), keyed.end(), largest_first);
  flat.load_order.clear();
  for (const auto& entry : keyed) flat.load_order.push_back(entry.second);

  keyed.clear();
  for (std::size_t i = 0; i < vertices.size(); ++i)
    if (flat.footprint[i] > 0.0)
      keyed.emplace_back(flat.footprint[i], static_cast<std::uint32_t>(i));
  std::sort(keyed.begin(), keyed.end(), largest_first);
  flat.footprint_order.clear();
  for (const auto& entry : keyed) flat.footprint_order.push_back(entry.second);
}

void CompiledSpec::set_flat_cache_budget(std::size_t max_entries,
                                         std::size_t max_bytes) const {
  // Both locks: the memo reads the limits under its own.
  const std::scoped_lock lock(flat_mutex_, prep_mutex_);
  flat_max_entries_ = max_entries;
  flat_max_bytes_ = max_bytes;
  evict_flat_locked();
  evict_prepared_locked();
}

std::uint64_t CompiledSpec::flat_cache_entries() const {
  const std::lock_guard<std::mutex> lock(flat_mutex_);
  return flat_cache_.size();
}

std::uint64_t CompiledSpec::flat_cache_evictions() const {
  const std::lock_guard<std::mutex> lock(flat_mutex_);
  return flat_evictions_;
}

PreparedEca CompiledSpec::prepare(Eca eca) const {
  PreparedEca p;
  p.eca = std::move(eca);
  const ClusterSelection& selection = p.eca.selection;
  const std::vector<ClusterId>& clusters = p.eca.clusters;
  p.flat = flat(selection);
  const SelectionPairs pairs = selection.key();
  p.key.reserve(2 * pairs.size() + clusters.size() + 2);
  p.key.push_back(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [interface_id, cluster_id] : pairs) {
    p.key.push_back(interface_id);
    p.key.push_back(cluster_id);
  }
  p.key.push_back(static_cast<std::uint32_t>(clusters.size()));
  for (const ClusterId c : clusters)
    p.key.push_back(static_cast<std::uint32_t>(c.index()));
  if (p.flat != nullptr)
    collect_terminal_groups(*this, selection, pairs, problem().root(),
                            p.groups);
  return p;
}

void CompiledSpec::evict_prepared_locked() const {
  while (prep_cache_.size() > 1 &&
         ((flat_max_entries_ != 0 && prep_cache_.size() > flat_max_entries_) ||
          (flat_max_bytes_ != 0 && prep_bytes_ > flat_max_bytes_))) {
    const DynBitset* victim = prep_lru_.back();
    const auto it = prep_cache_.find(*victim);
    SDF_CHECK(it != prep_cache_.end(), "prepared-memo LRU key without entry");
    prep_bytes_ -= it->second.bytes;
    prep_lru_.pop_back();
    prep_cache_.erase(it);
  }
}

std::shared_ptr<const PreparedEcas> CompiledSpec::prepared_ecas(
    const DynBitset& activatable) const {
  std::size_t max_bytes = 0;
  {
    const std::lock_guard<std::mutex> lock(prep_mutex_);
    if (const auto it = prep_cache_.find(activatable);
        it != prep_cache_.end()) {
      prep_lru_.splice(prep_lru_.begin(), prep_lru_, it->second.lru);
      return it->second.ecas;
    }
    max_bytes = flat_max_bytes_;
  }

  // Counted arithmetically, so a set past the limit costs no enumeration
  // before it is refused.
  const double count = count_ecas(problem(), activatable);
  if (count > static_cast<double>(kEcaLimit))
    throw std::length_error(strprintf(
        "allocation activates %s elementary cluster activations, more than "
        "the %zu a construction enumerates",
        format_double(count, 0).c_str(), kEcaLimit));

  // Build outside the lock, like `flat()`: a concurrent duplicate build is
  // cheaper than serializing every miss, and the first publish wins.  A
  // list holds its flattenings alive, so it stops preparing entries once
  // they pass the byte budget: one activatable set can have thousands of
  // ECAs, each flattening with an index over the whole problem graph.
  auto ecas = std::make_shared<PreparedEcas>();
  std::size_t held_bytes = 0;
  for (Eca& eca : enumerate_ecas(problem(), activatable)) {
    PreparedEca& entry = ecas->emplace_back();
    if (max_bytes != 0 && held_bytes > max_bytes) {
      entry.eca = std::move(eca);
      continue;
    }
    entry = prepare(std::move(eca));
    held_bytes += flat_entry_bytes(entry.flat.get());
  }

  const std::lock_guard<std::mutex> lock(prep_mutex_);
  const auto [it, inserted] = prep_cache_.try_emplace(activatable);
  if (!inserted) {
    prep_lru_.splice(prep_lru_.begin(), prep_lru_, it->second.lru);
    return it->second.ecas;
  }
  it->second.bytes = prepared_bytes(*ecas);
  it->second.ecas = std::move(ecas);
  prep_lru_.push_front(&it->first);
  it->second.lru = prep_lru_.begin();
  prep_bytes_ += it->second.bytes;
  evict_prepared_locked();
  return it->second.ecas;
}

std::uint64_t CompiledSpec::prepared_entries() const {
  const std::lock_guard<std::mutex> lock(prep_mutex_);
  return prep_cache_.size();
}

const Result<std::string>& CompiledSpec::digest() const {
  std::call_once(digest_once_, [this] {
    // Hashed chunk by chunk as the writer emits them, so no DOM or
    // whole-spec string is ever built.
    WordHash64 h;
    JsonWriter out(2, [&h](std::string_view chunk) { h.update(chunk); });
    const Status written = write_spec(spec_, out);
    out.flush();
    if (written.ok())
      digest_.emplace(strprintf("%016" PRIx64, h.finish()));
    else
      digest_.emplace(written.error());
  });
  return *digest_;
}

}  // namespace sdf
