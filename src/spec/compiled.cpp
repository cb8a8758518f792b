#include "spec/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace sdf {

CompiledSpec::CompiledSpec(const SpecificationGraph& spec) : spec_(spec) {
  const HierarchicalGraph& problem = spec.problem();
  const HierarchicalGraph& arch = spec.architecture();
  const std::size_t np = problem.node_count();

  // ---- units: copy the universe, resolve resources, price interfaces -------
  units_ = spec.alloc_units();
  const std::size_t nu = units_.size();
  resource_to_unit_.resize(arch.node_count());
  for (std::size_t i = 0; i < arch.node_count(); ++i)
    resource_to_unit_[i] = spec.unit_of_resource(NodeId{i});

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

  // ---- per-node subtree closures (over all alternatives), bottom-up -------
  // `dev` tracks the dense device slots (`unit_iface_slot_`) reachable in a
  // subtree: two subtrees touching configurations of the same device couple
  // through the exclusive-configuration rule even with disjoint unit sets.
  std::vector<DynBitset> sub_nodes(np, DynBitset(np));
  std::vector<DynBitset> sub_ifaces(np, DynBitset(np));
  std::vector<DynBitset> sub_units(np, DynBitset(nu));
  std::vector<DynBitset> sub_dev(np, DynBitset(nslots));
  std::vector<std::uint8_t> done(np, 0);

  // Explicit DFS keeps arbitrarily deep hierarchies off the call stack.
  const std::function<void(NodeId)> close_node = [&](NodeId id) {
    const std::size_t i = id.index();
    if (done[i] != 0) return;
    done[i] = 1;  // hierarchy is a forest: no cycles, set-before-recurse ok
    const Node& n = problem.node(id);
    sub_nodes[i].set(i);
    if (!n.is_interface()) {
      if (i < reach_bits_.size()) {
        sub_units[i] |= reach_bits_[i];
        reach_bits_[i].for_each([&](std::size_t u) {
          const std::size_t slot = unit_iface_slot_[u];
          if (slot != npos) sub_dev[i].set(slot);
        });
      }
      return;
    }
    sub_ifaces[i].set(i);
    for (const ClusterId cid : n.clusters) {
      for (const NodeId child : problem.cluster(cid).nodes) {
        close_node(child);
        sub_nodes[i] |= sub_nodes[child.index()];
        sub_ifaces[i] |= sub_ifaces[child.index()];
        sub_units[i] |= sub_units[child.index()];
        sub_dev[i] |= sub_dev[child.index()];
      }
    }
  };
  for (std::size_t i = 0; i < np; ++i) close_node(NodeId{i});

  // ---- per-cluster union-find over direct nodes ----------------------------
  decomposition_.assign(nc, ClusterDecomposition{});
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const Cluster& cluster = problem.cluster(ClusterId{ci});
    const std::size_t k = cluster.nodes.size();
    if (k == 0) continue;

    std::vector<std::size_t> parent(k);
    for (std::size_t i = 0; i < k; ++i) parent[i] = i;
    const std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    const auto unite = [&](std::size_t a, std::size_t b) {
      parent[find(a)] = find(b);
    };

    std::map<NodeId, std::size_t> pos;
    for (std::size_t i = 0; i < k; ++i) pos[cluster.nodes[i]] = i;

    // (a) dependence edges of this cluster couple their endpoints.
    for (const EdgeId eid : cluster.edges) {
      const Edge& e = problem.edge(eid);
      const auto fa = pos.find(e.from);
      const auto fb = pos.find(e.to);
      if (fa != pos.end() && fb != pos.end()) unite(fa->second, fb->second);
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
    std::map<std::size_t, std::size_t> group_of_root;
    ClusterDecomposition& d = decomposition_[ci];
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t r = find(i);
      const auto [it, inserted] = group_of_root.emplace(r, d.groups.size());
      if (inserted) {
        d.groups.push_back(ClusterGroup{});
        ClusterGroup& g = d.groups.back();
        g.subtree_nodes = DynBitset(np);
        g.subtree_interfaces = DynBitset(np);
        g.subtree_units = DynBitset(nu);
      }
      ClusterGroup& g = d.groups[it->second];
      const NodeId item = cluster.nodes[i];
      g.items.push_back(item);
      g.subtree_nodes |= sub_nodes[item.index()];
      g.subtree_interfaces |= sub_ifaces[item.index()];
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

double CompiledSpec::allocation_cost(const AllocSet& alloc) const {
  // Summation order matches the SpecificationGraph shim bit-for-bit:
  // ascending unit index, each unit's cost followed by its device's cost
  // the first time a configuration of that device appears.
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
    key.reserve(6 + 2 * g.subtree_interfaces.count());
    key.push_back(static_cast<std::uint32_t>(cluster.index()));
    key.push_back(static_cast<std::uint32_t>(gi));
    key.push_back(static_cast<std::uint32_t>(g.signature));
    key.push_back(static_cast<std::uint32_t>(g.signature >> 32));
    const std::size_t restriction_slot = key.size();
    key.push_back(0);  // patched below: number of restricted selection pairs
    std::uint32_t restricted = 0;
    for (const auto& [iface, cl] : pairs) {
      if (!g.subtree_interfaces.test(iface)) continue;
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
    const PreparedKey* victim = prep_lru_.back();
    const auto it = prep_cache_.find(*victim);
    SDF_CHECK(it != prep_cache_.end(), "prepared-memo LRU key without entry");
    prep_bytes_ -= it->second.bytes;
    prep_lru_.pop_back();
    prep_cache_.erase(it);
  }
}

std::shared_ptr<const PreparedEcas> CompiledSpec::prepared_ecas(
    const DynBitset& activatable, std::size_t eca_limit) const {
  PreparedKey key{activatable, eca_limit};
  std::size_t max_bytes = 0;
  {
    const std::lock_guard<std::mutex> lock(prep_mutex_);
    if (const auto it = prep_cache_.find(key); it != prep_cache_.end()) {
      prep_lru_.splice(prep_lru_.begin(), prep_lru_, it->second.lru);
      return it->second.ecas;
    }
    max_bytes = flat_max_bytes_;
  }

  // Build outside the lock, like `flat()`: a concurrent duplicate build is
  // cheaper than serializing every miss, and the first publish wins.  A
  // list holds its flattenings alive, so it stops preparing entries once
  // they pass the byte budget: one activatable set can have thousands of
  // ECAs, each flattening with an index over the whole problem graph.
  auto ecas = std::make_shared<PreparedEcas>();
  std::size_t held_bytes = 0;
  for (Eca& eca : enumerate_ecas(problem(), activatable, eca_limit)) {
    PreparedEca& entry = ecas->emplace_back();
    if (max_bytes != 0 && held_bytes > max_bytes) {
      entry.eca = std::move(eca);
      continue;
    }
    entry = prepare(std::move(eca));
    held_bytes += flat_entry_bytes(entry.flat.get());
  }

  const std::lock_guard<std::mutex> lock(prep_mutex_);
  const auto [it, inserted] = prep_cache_.try_emplace(std::move(key));
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

}  // namespace sdf
