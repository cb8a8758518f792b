#include "bind/solver.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "spec/compiled.hpp"
#include "util/status.hpp"

namespace sdf {
namespace {

/// One candidate mapping for a process, with its target unit remapped to a
/// dense "slot" over the units that actually appear in this search.
struct Candidate {
  NodeId resource;
  AllocUnitId unit;
  double latency;
  std::uint32_t slot;
};

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kNoCandidate = static_cast<std::uint32_t>(-1);

/// Per slot, the candidates whose utilization (resp. capacity) flag can
/// flip, ordered by their share of the slot's load — demand × latency
/// (resp. footprint) — largest first, in the slot's region
/// [slot_offsets[s], end[s]) of one candidate array.  A candidate is over
/// the limit when load + share > limit.  Floating-point addition is
/// monotone in each operand, so at any load the flagged candidates are a
/// prefix of that order (NaN shares, which never flag, are left out): a
/// load change moves the prefix end `cut` past exactly the flags that flip.
struct LoadLists {
  std::vector<std::uint32_t> cand;
  std::vector<double> share;
  std::vector<std::size_t> end;  ///< per slot: end of its list
  std::vector<std::size_t> cut;  ///< per slot: end of the flagged prefix
};

/// Scratch of one solve (or one `binding_feasible_flat` check), kept per
/// thread so that a call reuses the capacity earlier calls grew and the
/// steady state allocates nothing.  Between calls `slot_of_unit` holds
/// kNoSlot and `unit_load`/`unit_used` hold 0 at every unit: each call
/// resets the entries it touched instead of refilling the unit universe.
struct Workspace {
  // BindingSearch.
  std::vector<std::size_t> dom_offsets;
  std::vector<Candidate> dom;
  std::vector<std::uint32_t> owner_of;
  std::vector<std::uint32_t> cand_of_mapping;  ///< by flat mapping position
  std::vector<AllocUnitId> slot_units;
  std::vector<std::uint32_t> slot_of_unit;  ///< by unit index
  std::vector<std::uint8_t> comm_ok;
  std::vector<std::uint8_t> excl_bad;
  std::vector<std::uint8_t> slot_is_cluster_unit;
  std::vector<std::size_t> slot_offsets;  ///< CSR of the candidates by slot
  std::vector<std::uint32_t> slot_cand;   ///< only with exclusive configs
  std::vector<std::size_t> slot_fill;     ///< slot_cand's fill cursors
  std::vector<double> slot_load;
  std::vector<double> slot_used;
  LoadLists util;
  LoadLists cap;
  std::vector<double> cap_limit;  ///< per slot: capacity + 1e-9
  std::vector<std::size_t> assignment;
  std::vector<std::uint32_t> bad;
  std::vector<std::size_t> live_count;
  // binding_feasible_flat.
  std::vector<const BindingAssignment*> at;
  std::vector<double> unit_load;  ///< by unit index
  std::vector<double> unit_used;  ///< by unit index
  bool busy = false;
};

/// The calling thread's workspace, held for one solve or check.  Nothing a
/// solve calls starts another solve, so a second lease on a thread that
/// holds one is a bug: it would hand both the same scratch.
class WorkspaceLease {
 public:
  WorkspaceLease() : ws_(thread_workspace()) {
    SDF_CHECK(!ws_.busy, "binding solves must not nest on one thread");
    ws_.busy = true;
  }
  ~WorkspaceLease() { ws_.busy = false; }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] Workspace& operator*() const { return ws_; }

 private:
  static Workspace& thread_workspace() {
    thread_local Workspace ws;
    return ws;
  }

  Workspace& ws_;
};

// Zero-allocation MRV backtracking with forward checking.
//
// All conflict structure is precomputed once per solve, in the calling
// thread's workspace (one solve at a time per thread, see
// WorkspaceLease): candidate domains as one CSR array, pairwise slot
// tables for communication feasibility and exclusive configurations, and
// the per-slot load lists.  During search a per-candidate violation count
// (`bad`) and a per-process live-candidate count (`live_count`) are
// maintained incrementally on assign/unassign: communication and
// exclusive-configuration conflicts bump the candidates they rule out, and
// a load change moves the slot's load-list cuts, which touch only the
// candidates whose utilization or capacity flag flips.  A decision node
// costs O(conflicts and flags touched), never a rescan of the unassigned
// domains or of a slot's candidates, and the steady state performs no heap
// allocation.  The load orders come sorted with the flattening
// (`CompiledSpec::sort_loads`), so a solve lays them out per slot in
// linear time.
//
// The flags stay a pure function of the floating-point slot loads, so the
// live counts at every node, and with them the search tree the tests pin
// node for node, follow from the MRV rule (first unassigned process with
// strictly fewest consistent candidates, scan ended early at a count of
// 1), the ascending candidate order, the node/backtrack accounting and
// the budget-charge point alone.
class BindingSearch {
 public:
  BindingSearch(const CompiledSpec& cs, const AllocSet& alloc,
                const CompiledFlat& flat, const SolverOptions& options,
                SolverStats& stats)
      : cs_(cs), alloc_(alloc), flat_(flat), options_(options), stats_(stats) {}

  ~BindingSearch() {
    for (const AllocUnitId u : ws_.slot_units)
      ws_.slot_of_unit[u.index()] = kNoSlot;
  }
  BindingSearch(const BindingSearch&) = delete;
  BindingSearch& operator=(const BindingSearch&) = delete;

  std::optional<Binding> run() {
    if (!build_domains()) return std::nullopt;  // rule 2 unsatisfiable
    build_conflict_tables();
    build_load_lists();
    seed_counts();

    if (!search(0)) {
      if (interrupted_) {
        stats_.aborted = true;
        stats_.outcome = options_.budget != nullptr &&
                                 options_.budget->reason() ==
                                     StopReason::kCancelled
                             ? SolveOutcome::kCancelled
                             : SolveOutcome::kBudgetExceeded;
      }
      return std::nullopt;
    }
    stats_.outcome = SolveOutcome::kFeasible;

    const std::vector<NodeId>& processes = flat_.graph.vertices;
    Binding b;
    for (std::size_t i = 0; i < n_; ++i) {
      const Candidate& c = ws_.dom[ws_.assignment[i]];
      b.assign(BindingAssignment{processes[i], c.resource, c.unit,
                                 c.latency});
    }
    return b;
  }

 private:
  /// Candidate domains (allocated targets only) as one CSR array, plus the
  /// dense slot remap of the units they reference.
  bool build_domains() {
    const std::vector<NodeId>& processes = flat_.graph.vertices;
    n_ = processes.size();
    ws_.dom_offsets.assign(n_ + 1, 0);
    ws_.dom.clear();
    ws_.owner_of.clear();
    ws_.cand_of_mapping.clear();
    ws_.slot_units.clear();
    ws_.slot_offsets.assign(1, 0);
    if (ws_.slot_of_unit.size() < cs_.unit_count())
      ws_.slot_of_unit.resize(cs_.unit_count(), kNoSlot);
    for (std::size_t i = 0; i < n_; ++i) {
      // Word-parallel pre-check: rule 2 is unsatisfiable outright when no
      // reachable unit of this process is allocated, so the per-edge scan
      // below would only build an empty domain.  One bitset intersection
      // replaces it.
      if (!alloc_.intersects(cs_.reachable_units(processes[i]))) return false;
      for (const CompiledMapping& m : cs_.mappings_of(processes[i])) {
        if (!m.unit.valid() || !alloc_.test(m.unit.index())) {
          ws_.cand_of_mapping.push_back(kNoCandidate);
          continue;
        }
        std::uint32_t& slot = ws_.slot_of_unit[m.unit.index()];
        if (slot == kNoSlot) {
          slot = static_cast<std::uint32_t>(ws_.slot_units.size());
          ws_.slot_units.push_back(m.unit);
          ws_.slot_offsets.push_back(0);
        }
        ++ws_.slot_offsets[slot + 1];
        ws_.cand_of_mapping.push_back(
            static_cast<std::uint32_t>(ws_.dom.size()));
        ws_.dom.push_back(Candidate{m.resource, m.unit, m.latency, slot});
        ws_.owner_of.push_back(static_cast<std::uint32_t>(i));
      }
      if (ws_.dom.size() == ws_.dom_offsets[i]) return false;
      ws_.dom_offsets[i + 1] = ws_.dom.size();
    }
    slot_count_ = ws_.slot_units.size();
    for (std::size_t s = 0; s < slot_count_; ++s)
      ws_.slot_offsets[s + 1] += ws_.slot_offsets[s];
    return true;
  }

  /// Static pairwise slot tables, and the per-slot candidate lists that
  /// exclusive configurations propagate through.
  void build_conflict_tables() {
    const std::vector<AllocUnit>& units = cs_.units();
    ws_.comm_ok.assign(slot_count_ * slot_count_, 0);
    ws_.slot_is_cluster_unit.assign(slot_count_, 0);
    for (std::size_t a = 0; a < slot_count_; ++a) {
      ws_.comm_ok[a * slot_count_ + a] = 1;  // same unit: no channel needed
      ws_.slot_is_cluster_unit[a] =
          units[ws_.slot_units[a].index()].is_cluster_unit() ? 1 : 0;
      for (std::size_t b = 0; b < a; ++b) {
        const std::uint8_t ok =
            units_can_communicate(cs_, alloc_, ws_.slot_units[a],
                                  ws_.slot_units[b], options_.comm_model)
                ? 1
                : 0;
        ws_.comm_ok[a * slot_count_ + b] = ok;
        ws_.comm_ok[b * slot_count_ + a] = ok;
      }
    }

    any_excl_ = false;
    ws_.excl_bad.assign(slot_count_ * slot_count_, 0);
    if (options_.exclusive_configurations) {
      for (std::size_t a = 0; a < slot_count_; ++a) {
        if (!ws_.slot_is_cluster_unit[a]) continue;
        const AllocUnit& ua = units[ws_.slot_units[a].index()];
        for (std::size_t b = 0; b < a; ++b) {
          if (!ws_.slot_is_cluster_unit[b]) continue;
          const AllocUnit& ub = units[ws_.slot_units[b].index()];
          if (ua.top == ub.top && ua.cluster != ub.cluster) {
            ws_.excl_bad[a * slot_count_ + b] = 1;
            ws_.excl_bad[b * slot_count_ + a] = 1;
            any_excl_ = true;
          }
        }
      }
    }
    if (!any_excl_) return;
    ws_.slot_cand.resize(ws_.dom.size());
    ws_.slot_fill.assign(ws_.slot_offsets.begin(), ws_.slot_offsets.end() - 1);
    for (std::size_t g = 0; g < ws_.dom.size(); ++g)
      ws_.slot_cand[ws_.slot_fill[ws_.dom[g].slot]++] =
          static_cast<std::uint32_t>(g);
  }

  /// Empties `lists`: every slot's list ends where its region starts.
  void clear_lists(LoadLists& lists) {
    lists.cand.resize(ws_.dom.size());
    lists.share.resize(ws_.dom.size());
    lists.end.assign(ws_.slot_offsets.begin(), ws_.slot_offsets.end() - 1);
    lists.cut.assign(ws_.slot_offsets.begin(), ws_.slot_offsets.end() - 1);
  }

  static void append(LoadLists& lists, std::uint32_t slot, std::uint32_t g,
                     double share) {
    const std::size_t at = lists.end[slot]++;
    lists.cand[at] = g;
    lists.share[at] = share;
  }

  /// The utilization and capacity load lists, appended in the flattening's
  /// presorted orders: linear in the candidates, no sort per solve.  A
  /// constraint no candidate can violate keeps no lists at all.
  void build_load_lists() {
    util_on_ = options_.utilization_bound > 0.0 && !flat_.load_order.empty();
    if (util_on_) {
      util_limit_ = options_.utilization_bound + 1e-9;
      clear_lists(ws_.util);
      for (const std::uint32_t position : flat_.load_order) {
        const std::uint32_t g = ws_.cand_of_mapping[position];
        if (g == kNoCandidate) continue;
        const Candidate& c = ws_.dom[g];
        append(ws_.util, c.slot, g, flat_.demand[ws_.owner_of[g]] * c.latency);
      }
    }

    cap_on_ = options_.enforce_capacities && !flat_.footprint_order.empty();
    if (cap_on_) {
      const std::vector<double>& caps = cs_.unit_capacities();
      ws_.cap_limit.resize(slot_count_);
      for (std::size_t s = 0; s < slot_count_; ++s)
        ws_.cap_limit[s] = caps[ws_.slot_units[s].index()] + 1e-9;
      clear_lists(ws_.cap);
      for (const std::uint32_t i : flat_.footprint_order) {
        for (std::size_t g = ws_.dom_offsets[i]; g < ws_.dom_offsets[i + 1];
             ++g) {
          const Candidate& c = ws_.dom[g];
          if (caps[c.unit.index()] > 0.0)
            append(ws_.cap, c.slot, static_cast<std::uint32_t>(g),
                   flat_.footprint[i]);
        }
      }
    }
  }

  /// Initial counts: the empty assignment, so only a candidate's own
  /// demand/footprint can already put it over a limit.
  void seed_counts() {
    ws_.assignment.assign(n_, kUnassigned);
    ws_.bad.assign(ws_.dom.size(), 0);
    ws_.live_count.resize(n_);
    for (std::size_t i = 0; i < n_; ++i)
      ws_.live_count[i] = ws_.dom_offsets[i + 1] - ws_.dom_offsets[i];
    ws_.slot_load.assign(slot_count_, 0.0);
    ws_.slot_used.assign(slot_count_, 0.0);
    for (std::uint32_t s = 0; s < slot_count_; ++s) move_cuts(s);
  }

  void bump(std::size_t g, int delta) {
    const std::size_t owner = ws_.owner_of[g];
    if (delta > 0) {
      if (ws_.bad[g]++ == 0) --ws_.live_count[owner];
    } else {
      if (--ws_.bad[g] == 0) ++ws_.live_count[owner];
    }
  }

  /// Moves slot `s`'s cut in `lists` to the flags at `load` against
  /// `limit`.  Assigned owners' candidates move too: the flags stay a pure
  /// function of the live load, so assign/unassign restore them exactly
  /// and the counts can never drift.
  void move_cut(LoadLists& lists, std::uint32_t s, double load,
                double limit) {
    const std::size_t first = ws_.slot_offsets[s];
    const std::size_t last = lists.end[s];
    std::size_t cut = lists.cut[s];
    while (cut < last && load + lists.share[cut] > limit)
      bump(lists.cand[cut++], +1);
    while (cut > first && !(load + lists.share[cut - 1] > limit))
      bump(lists.cand[--cut], -1);
    lists.cut[s] = cut;
  }

  void move_cuts(std::uint32_t s) {
    if (util_on_) move_cut(ws_.util, s, ws_.slot_load[s], util_limit_);
    if (cap_on_) move_cut(ws_.cap, s, ws_.slot_used[s], ws_.cap_limit[s]);
  }

  /// Bumps, by `delta`, every unassigned candidate on a configuration of
  /// the same device as `slot` other than `slot`'s own.
  void bump_exclusive(std::uint32_t slot, int delta) {
    const std::uint8_t* excl_row = ws_.excl_bad.data() + slot * slot_count_;
    for (std::uint32_t s2 = 0; s2 < slot_count_; ++s2) {
      if (excl_row[s2] == 0) continue;
      for (std::size_t k = ws_.slot_offsets[s2]; k < ws_.slot_offsets[s2 + 1];
           ++k) {
        const std::size_t g2 = ws_.slot_cand[k];
        if (ws_.assignment[ws_.owner_of[g2]] != kUnassigned) continue;
        bump(g2, delta);
      }
    }
  }

  /// Bumps, by `delta`, every candidate of an unassigned flat neighbor of
  /// `i` that cannot reach `slot`.
  void bump_unreachable(std::size_t i, std::uint32_t slot, int delta) {
    const std::uint8_t* comm_row = ws_.comm_ok.data() + slot * slot_count_;
    for (std::size_t j : flat_.adj[i]) {
      if (ws_.assignment[j] != kUnassigned) continue;
      for (std::size_t g2 = ws_.dom_offsets[j]; g2 < ws_.dom_offsets[j + 1];
           ++g2)
        if (comm_row[ws_.dom[g2].slot] == 0) bump(g2, delta);
    }
  }

  void assign(std::size_t i, std::size_t g) {
    ws_.assignment[i] = g;  // first: excludes i's own row from the updates
    const Candidate& c = ws_.dom[g];
    const std::uint32_t slot = c.slot;
    bump_unreachable(i, slot, +1);
    if (any_excl_ && ws_.slot_is_cluster_unit[slot] != 0)
      bump_exclusive(slot, +1);
    ws_.slot_load[slot] += flat_.demand[i] * c.latency;
    ws_.slot_used[slot] += flat_.footprint[i];
    move_cuts(slot);
  }

  // Exact inverse of assign().  LIFO undo guarantees the set of unassigned
  // processes here equals the set at assign time, so every bump cancels.
  void unassign(std::size_t i, std::size_t g) {
    const Candidate& c = ws_.dom[g];
    const std::uint32_t slot = c.slot;
    ws_.slot_load[slot] -= flat_.demand[i] * c.latency;
    ws_.slot_used[slot] -= flat_.footprint[i];
    move_cuts(slot);
    if (any_excl_ && ws_.slot_is_cluster_unit[slot] != 0)
      bump_exclusive(slot, -1);
    bump_unreachable(i, slot, -1);
    ws_.assignment[i] = kUnassigned;  // last: mirrors assign()
  }

  bool search(std::size_t depth) {
    if (interrupted_) return false;
    if (depth == n_) return true;

    // MRV over the maintained counts: first unassigned process with the
    // strictly fewest live candidates; a count of 1 ends the scan.
    std::size_t best = kUnassigned;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (ws_.assignment[i] != kUnassigned) continue;
      const std::size_t count = ws_.live_count[i];
      if (count == 0) return false;  // forward-checking wipeout
      if (best == kUnassigned || count < best_count) {
        best = i;
        best_count = count;
        if (count == 1) break;
      }
    }

    for (std::size_t g = ws_.dom_offsets[best]; g < ws_.dom_offsets[best + 1];
         ++g) {
      if (ws_.bad[g] != 0) continue;
      ++stats_.nodes;
      // Solver-node granularity budget check: a tripped budget unwinds the
      // whole search immediately (every recursion level re-tests
      // `interrupted_` via this same charge returning false).
      if (options_.budget != nullptr &&
          !options_.budget->charge_solver_node()) {
        interrupted_ = true;
        return false;
      }
      assign(best, g);
      if (search(depth + 1)) return true;
      unassign(best, g);
      if (interrupted_) return false;  // unwind without trying siblings
      ++stats_.backtracks;
    }
    return false;
  }

  const WorkspaceLease lease_;
  Workspace& ws_ = *lease_;
  const CompiledSpec& cs_;
  const AllocSet& alloc_;
  const CompiledFlat& flat_;
  const SolverOptions& options_;
  SolverStats& stats_;

  std::size_t n_ = 0;
  std::size_t slot_count_ = 0;
  bool any_excl_ = false;
  bool util_on_ = false;  ///< some candidate's utilization flag can flip
  bool cap_on_ = false;   ///< some candidate's capacity flag can flip
  double util_limit_ = 0.0;
  bool interrupted_ = false;  ///< run budget tripped mid-search
};

}  // namespace

std::optional<Binding> solve_binding(const CompiledSpec& cs,
                                     const AllocSet& alloc, const Eca& eca,
                                     const SolverOptions& options,
                                     SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;
  // Per-call fields must not leak a previous call's verdict through a
  // reused stats object.
  s.aborted = false;
  s.outcome = SolveOutcome::kInfeasible;
  const std::shared_ptr<const CompiledFlat> flat = cs.flat(eca.selection);
  if (flat == nullptr) return std::nullopt;
  return BindingSearch(cs, alloc, *flat, options, s).run();
}

std::optional<Binding> solve_binding_flat(const CompiledSpec& cs,
                                          const AllocSet& alloc,
                                          const CompiledFlat& flat,
                                          const SolverOptions& options,
                                          SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;
  s.aborted = false;
  s.outcome = SolveOutcome::kInfeasible;
  return BindingSearch(cs, alloc, flat, options, s).run();
}

std::optional<Binding> solve_binding(const SpecificationGraph& spec,
                                     const AllocSet& alloc, const Eca& eca,
                                     const SolverOptions& options,
                                     SolverStats* stats) {
  return solve_binding(spec.compiled(), alloc, eca, options, stats);
}

bool binding_feasible(const CompiledSpec& cs, const AllocSet& alloc,
                      const Eca& eca, const Binding& binding,
                      const SolverOptions& options) {
  const std::shared_ptr<const CompiledFlat> flat = cs.flat(eca.selection);
  if (flat == nullptr) return false;
  return binding_feasible_flat(cs, alloc, *flat, binding, options);
}

bool binding_feasible_flat(const CompiledSpec& cs, const AllocSet& alloc,
                           const CompiledFlat& flat, const Binding& binding,
                           const SolverOptions& options) {
  const std::size_t n = flat.graph.vertices.size();
  const std::vector<BindingAssignment>& assignments = binding.assignments();
  if (assignments.size() != n) return false;

  const WorkspaceLease lease;
  Workspace& ws = *lease;

  // Rules 1/2: exactly one assignment per activated process, onto an
  // allocated unit.
  std::vector<const BindingAssignment*>& at = ws.at;
  at.assign(n, nullptr);
  for (const BindingAssignment& a : assignments) {
    if (a.process.index() >= flat.index_of.size()) return false;
    const std::size_t i = flat.index_of[a.process.index()];
    if (i == CompiledFlat::npos || at[i] != nullptr) return false;
    if (!a.unit.valid() || !alloc.test(a.unit.index())) return false;
    at[i] = &a;
  }

  // Rule 3: every activated dependence is communication-feasible.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j : flat.adj[i]) {
      if (j <= i) continue;  // adjacency stores both directions
      const AllocUnitId ua = at[i]->unit;
      const AllocUnitId ub = at[j]->unit;
      if (ua == ub) continue;
      if (!units_can_communicate(cs, alloc, ua, ub, options.comm_model))
        return false;
    }
  }

  // Exclusive configurations.
  if (options.exclusive_configurations) {
    const std::vector<AllocUnit>& units = cs.units();
    for (std::size_t i = 0; i < n; ++i) {
      const AllocUnit& ui = units[at[i]->unit.index()];
      if (!ui.is_cluster_unit()) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        const AllocUnit& uj = units[at[j]->unit.index()];
        if (uj.is_cluster_unit() && uj.top == ui.top &&
            uj.cluster != ui.cluster)
          return false;
      }
    }
  }

  // Utilization bound and capacities against the summed loads.  Only the
  // units the binding uses carry load, so only they are summed, checked
  // and reset to zero afterwards.
  if (options.utilization_bound > 0.0 || options.enforce_capacities) {
    std::vector<double>& load = ws.unit_load;
    std::vector<double>& used = ws.unit_used;
    if (load.size() < cs.unit_count()) {
      load.resize(cs.unit_count(), 0.0);
      used.resize(cs.unit_count(), 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      load[at[i]->unit.index()] += flat.demand[i] * at[i]->latency;
      used[at[i]->unit.index()] += flat.footprint[i];
    }
    const std::vector<double>& caps = cs.unit_capacities();
    bool feasible = true;
    for (std::size_t i = 0; i < n && feasible; ++i) {
      const std::size_t u = at[i]->unit.index();
      if (options.utilization_bound > 0.0 &&
          load[u] > options.utilization_bound + 1e-9)
        feasible = false;
      if (options.enforce_capacities && caps[u] > 0.0 &&
          used[u] > caps[u] + 1e-9)
        feasible = false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      load[at[i]->unit.index()] = 0.0;
      used[at[i]->unit.index()] = 0.0;
    }
    return feasible;
  }
  return true;
}

std::vector<double> unit_footprints(const CompiledSpec& cs,
                                    const Binding& binding) {
  std::vector<double> used(cs.unit_count(), 0.0);
  for (const BindingAssignment& a : binding.assignments())
    used[a.unit.index()] += cs.footprint(a.process);
  return used;
}

std::vector<double> unit_footprints(const SpecificationGraph& spec,
                                    const Binding& binding) {
  return unit_footprints(spec.compiled(), binding);
}

double unit_capacity(const CompiledSpec& cs, AllocUnitId unit) {
  return cs.unit_capacity(unit);
}

double unit_capacity(const SpecificationGraph& spec, AllocUnitId unit) {
  return spec.compiled().unit_capacity(unit);
}

std::vector<double> unit_utilizations(const CompiledSpec& cs,
                                      const Binding& binding) {
  std::vector<double> load(cs.unit_count(), 0.0);
  for (const BindingAssignment& a : binding.assignments()) {
    const double period = cs.period(a.process);
    const double weight = cs.timing_weight(a.process);
    if (period > 0.0 && weight > 0.0)
      load[a.unit.index()] += weight * a.latency / period;
  }
  return load;
}

std::vector<double> unit_utilizations(const SpecificationGraph& spec,
                                      const Binding& binding) {
  return unit_utilizations(spec.compiled(), binding);
}

}  // namespace sdf
