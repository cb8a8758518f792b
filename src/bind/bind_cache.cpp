#include "bind/bind_cache.hpp"

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "bind/implementation.hpp"
#include "spec/compiled.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace sdf {
namespace {

using Key = MonotoneFrontier::Key;

std::size_t hash_key(const Key& key) {
  // FNV-1a over the words.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : key) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

struct KeyHash {
  std::size_t operator()(const Key& key) const { return hash_key(key); }
};

struct FeasibleEntry {
  DynBitset alloc;  ///< minimal known-feasible allocation
  Binding witness;  ///< a feasible binding using only units in `alloc`
};

/// One key's facts: antichains of minimal feasible and maximal infeasible
/// allocations, in insertion order.
struct Facts {
  std::vector<FeasibleEntry> minimal_feasible;
  std::vector<DynBitset> maximal_infeasible;
  /// The key's sub-problem (fixed by the key); stored once, shared by
  /// every probe.
  std::shared_ptr<const CompiledFlat> flat;
};

}  // namespace

struct MonotoneFrontier::Shard {
  std::mutex mutex;
  std::unordered_map<Key, Facts, KeyHash> map;
};

MonotoneFrontier::MonotoneFrontier(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

MonotoneFrontier::~MonotoneFrontier() = default;

MonotoneFrontier::Shard& MonotoneFrontier::shard_for(const Key& key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

MonotoneFrontier::Probe MonotoneFrontier::probe(const Key& key,
                                                const AllocSet& alloc) const {
  Probe out;
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return out;
  const Facts& facts = it->second;
  out.flat = facts.flat;
  for (const FeasibleEntry& entry : facts.minimal_feasible) {
    if (entry.alloc.is_subset_of(alloc)) {
      out.witness = entry.witness;
      return out;
    }
  }
  for (const DynBitset& m : facts.maximal_infeasible) {
    if (alloc.is_subset_of(m)) {
      out.infeasible = true;
      break;
    }
  }
  return out;
}

void MonotoneFrontier::insert(const Key& key, const AllocSet& alloc,
                              const Binding* witness,
                              std::shared_ptr<const CompiledFlat> flat) {
  SDF_FAULT_POINT("bind_cache.insert");
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  // Already implied: a stored feasible subset, or infeasible superset.  A
  // concurrent worker may have proven it since this one's probe.
  if (it != shard.map.end()) {
    const Facts& facts = it->second;
    if (witness != nullptr) {
      for (const FeasibleEntry& entry : facts.minimal_feasible)
        if (entry.alloc.is_subset_of(alloc)) return;
    } else {
      for (const DynBitset& m : facts.maximal_infeasible)
        if (alloc.is_subset_of(m)) return;
    }
  }
  SDF_FAULT_POINT("bind_cache.merge");
  if (it == shard.map.end()) it = shard.map.try_emplace(key).first;
  Facts& facts = it->second;
  if (facts.flat == nullptr) facts.flat = std::move(flat);
  // Prune the entries the new fact dominates (strict supersets are no
  // longer minimal, strict subsets no longer maximal), then append it.
  std::size_t pruned = 0;
  if (witness != nullptr) {
    pruned = std::erase_if(facts.minimal_feasible,
                           [&](const FeasibleEntry& entry) {
                             return alloc.is_subset_of(entry.alloc);
                           });
    facts.minimal_feasible.push_back(FeasibleEntry{alloc, *witness});
  } else {
    pruned = std::erase_if(facts.maximal_infeasible, [&](const DynBitset& m) {
      return m.is_subset_of(alloc);
    });
    facts.maximal_infeasible.push_back(alloc);
  }
  // Unsigned wrap-around subtracts when more than one entry was pruned.
  entries_.fetch_add(1 - static_cast<std::uint64_t>(pruned),
                     std::memory_order_relaxed);
}

void MonotoneFrontier::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
  }
  entries_.store(0, std::memory_order_relaxed);
}

// ---- BindCache --------------------------------------------------------------

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc,
                                        const PreparedEca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;

  MonotoneFrontier::Probe probe = frontier_.probe(eca.key, alloc);
  if (probe.infeasible) {
    s.aborted = false;
    s.outcome = SolveOutcome::kInfeasible;
    ++s.cache_hits_infeasible;
    return std::nullopt;
  }
  if (probe.witness.has_value()) {
    ++s.cache_revalidations;
    if (eca.flat != nullptr &&
        binding_feasible_flat(cs, alloc, *eca.flat, *probe.witness, options)) {
      s.aborted = false;
      s.outcome = SolveOutcome::kFeasible;
      ++s.cache_hits_feasible;
      return std::move(probe.witness);
    }
    // Monotonicity guarantees revalidation cannot fail; stay sound anyway
    // by falling through to a real solve.
  }

  std::optional<Binding> solved;
  if (eca.flat != nullptr) {
    solved = solve_binding_flat(cs, alloc, *eca.flat, options, &s);
  } else {
    // A selection that does not flatten has no binding.
    s.aborted = false;
    s.outcome = SolveOutcome::kInfeasible;
  }
  if (s.outcome == SolveOutcome::kFeasible && solved.has_value())
    frontier_.insert(eca.key, alloc, &*solved);
  else if (s.outcome == SolveOutcome::kInfeasible)
    frontier_.insert(eca.key, alloc, nullptr);
  // kBudgetExceeded / kCancelled: the solver gave up — that
  // verdict proves nothing and must never enter the frontier.
  return solved;
}

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc, const Eca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  return solve(cs, alloc, cs.prepare(eca), options, stats);
}

// ---- HierCache --------------------------------------------------------------

namespace {

/// The group's slice of a full flattening: the vertices, edges and dense
/// attribute arrays restricted to the nodes under `group`, with its own
/// load orders.  The decomposition contract guarantees no flat edge
/// crosses the slice boundary.
std::shared_ptr<const CompiledFlat> slice_flat(const CompiledSpec& cs,
                                               const CompiledFlat& full,
                                               const ClusterGroup& group) {
  auto sub = std::make_shared<CompiledFlat>();
  sub->index_of.assign(full.index_of.size(), CompiledFlat::npos);
  for (const NodeId v : full.graph.vertices) {
    if (!cs.in_subtree(group, v)) continue;
    sub->index_of[v.index()] = sub->graph.vertices.size();
    sub->graph.vertices.push_back(v);
    const std::size_t fi = full.index_of[v.index()];
    sub->demand.push_back(full.demand[fi]);
    sub->footprint.push_back(full.footprint[fi]);
  }
  sub->adj.resize(sub->graph.vertices.size());
  for (const auto& [from, to] : full.graph.edges) {
    const bool in_from = cs.in_subtree(group, from);
    const bool in_to = cs.in_subtree(group, to);
    SDF_CHECK(in_from == in_to, "flat edge crosses a decomposition group");
    if (!in_from) continue;
    sub->graph.edges.emplace_back(from, to);
    const std::size_t i = sub->index_of[from.index()];
    const std::size_t j = sub->index_of[to.index()];
    sub->adj[i].push_back(j);
    if (j != i) sub->adj[j].push_back(i);
    sub->edge_pairs.emplace_back(i, j);
  }
  for (const ClusterId c : full.graph.active_clusters)
    sub->graph.active_clusters.push_back(c);
  for (const NodeId i : full.graph.active_interfaces)
    if (cs.in_subtree(group, i)) sub->graph.active_interfaces.push_back(i);
  cs.sort_loads(*sub);
  return sub;
}

/// The allocation as one terminal group sees it: its own unit share, plus —
/// under the one-hop model — every communication unit (bus reachability is
/// the only way a foreign unit can influence a group-local verdict).  Under
/// kAnyPath routes may thread through arbitrary allocated units, so the
/// projection is the identity.
AllocSet project_alloc(const CompiledSpec& cs, const AllocSet& alloc,
                       const ClusterGroup& group,
                       const SolverOptions& options) {
  if (options.comm_model == CommModel::kAnyPath) return alloc;
  AllocSet proj = group.subtree_units;
  if (options.comm_model == CommModel::kOneHopBus) proj |= cs.comm_units();
  proj &= alloc;
  return proj;
}

}  // namespace

std::optional<Binding> HierCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc,
                                        const PreparedEca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;
  s.aborted = false;
  // Infeasible until every terminal group is proven feasible.
  s.outcome = SolveOutcome::kInfeasible;

  // The memoized flattening decides flattenability exactly like the flat
  // path and is the substrate terminal groups are sliced from on a miss.
  // What the hierarchical path never does is *search* the flat problem as
  // a whole.
  if (eca.flat == nullptr) return std::nullopt;

  Binding combined;
  for (const PreparedGroup& t : eca.groups) {
    const ClusterGroup& g = *t.group;
    const AllocSet proj = project_alloc(cs, alloc, g, options);
    MonotoneFrontier::Probe probe = frontier_.probe(t.key, proj);

    if (probe.infeasible) {
      // One infeasible group refutes the whole ECA; later groups are never
      // touched (the flat kernel would have searched across all of them).
      ++s.hier_hits;
      return std::nullopt;
    }

    if (probe.witness.has_value()) {
      ++s.cache_revalidations;
      if (binding_feasible_flat(cs, proj, *probe.flat, *probe.witness,
                                options)) {
        ++s.hier_hits;
        for (const BindingAssignment& a : probe.witness->assignments())
          combined.assign(a);
        continue;
      }
      // Monotonicity guarantees revalidation cannot fail; stay sound anyway
      // by falling through to a real sub-solve.
    }

    std::shared_ptr<const CompiledFlat> sub_flat = std::move(probe.flat);
    if (sub_flat == nullptr)
      sub_flat = slice_flat(cs, *eca.flat, g);

    ++s.hier_subsolves;
    SolverStats gs;
    const std::optional<Binding> solved =
        solve_binding_flat(cs, proj, *sub_flat, options, &gs);
    s.nodes += gs.nodes;
    s.backtracks += gs.backtracks;

    if (gs.outcome == SolveOutcome::kFeasible && solved.has_value()) {
      frontier_.insert(t.key, proj, &*solved, std::move(sub_flat));
      for (const BindingAssignment& a : solved->assignments())
        combined.assign(a);
      continue;
    }
    if (gs.outcome == SolveOutcome::kInfeasible) {
      frontier_.insert(t.key, proj, nullptr, std::move(sub_flat));
      return std::nullopt;
    }
    // Budget / cancel / node-limit: proves nothing, cache nothing.
    s.aborted = true;
    s.outcome = gs.outcome;
    return std::nullopt;
  }

  s.outcome = SolveOutcome::kFeasible;
  return combined;
}

std::optional<Binding> HierCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc, const Eca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  return solve(cs, alloc, cs.prepare(eca), options, stats);
}

void adopt_run_caches(ImplementationOptions& impl, BindCache& bind_cache,
                      HierCache& hier_cache) {
  if (impl.use_bind_cache && impl.bind_cache == nullptr)
    impl.bind_cache = &bind_cache;
  if (impl.use_hier && impl.hier_cache == nullptr)
    impl.hier_cache = &hier_cache;
}

}  // namespace sdf
