#include "bind/solver.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "spec/compiled.hpp"

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

// Zero-allocation (per node) MRV backtracking with forward checking.
//
// All conflict structure is precomputed once per solve: candidate domains as
// one CSR array, pairwise slot tables for communication feasibility and
// exclusive configurations, and per-slot candidate lists.  During search a
// per-candidate violation count (`bad_`) and a per-process live-candidate
// count (`live_count_`) are maintained incrementally on assign/unassign, so
// a decision node costs O(conflicts touched), never a rescan of all
// unassigned domains, and the steady state performs no heap allocation.
//
// The search tree is bit-identical to the pre-rewrite rescanning solver:
// same MRV rule (first unassigned process with strictly fewest consistent
// candidates, scan ended early at a count of 1), same ascending candidate
// order, same node/backtrack accounting, and the same budget-charge point.
class BindingSearch {
 public:
  BindingSearch(const CompiledSpec& cs, const AllocSet& alloc,
                const CompiledFlat& flat, const SolverOptions& options,
                SolverStats& stats)
      : cs_(cs), alloc_(alloc), flat_(flat), options_(options), stats_(stats) {}

  std::optional<Binding> run() {
    if (!build_domains()) return std::nullopt;  // rule 2 unsatisfiable
    build_conflict_tables();
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
      const Candidate& c = dom_[assignment_[i]];
      b.assign(BindingAssignment{processes[i], c.resource, c.unit,
                                 c.latency});
    }
    return b;
  }

 private:
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// Candidate domains (allocated targets only) as one CSR array, plus the
  /// dense slot remap of the units they reference.
  bool build_domains() {
    const std::vector<NodeId>& processes = flat_.graph.vertices;
    n_ = processes.size();
    dom_offsets_.assign(n_ + 1, 0);
    slot_of_unit_.assign(cs_.unit_count(), kNoSlot);
    for (std::size_t i = 0; i < n_; ++i) {
      // Word-parallel pre-check: rule 2 is unsatisfiable outright when no
      // reachable unit of this process is allocated, so the per-edge scan
      // below would only build an empty domain.  One bitset intersection
      // replaces it.
      if (!alloc_.intersects(cs_.reachable_units(processes[i]))) return false;
      for (const CompiledMapping& m : cs_.mappings_of(processes[i])) {
        if (!m.unit.valid() || !alloc_.test(m.unit.index())) continue;
        std::uint32_t& slot = slot_of_unit_[m.unit.index()];
        if (slot == kNoSlot) {
          slot = static_cast<std::uint32_t>(slot_units_.size());
          slot_units_.push_back(m.unit);
        }
        dom_.push_back(Candidate{m.resource, m.unit, m.latency, slot});
        owner_of_.push_back(static_cast<std::uint32_t>(i));
      }
      if (dom_.size() == dom_offsets_[i]) return false;
      dom_offsets_[i + 1] = dom_.size();
    }
    slot_count_ = slot_units_.size();
    return true;
  }

  /// Static pairwise slot tables and per-slot candidate lists.
  void build_conflict_tables() {
    const std::vector<AllocUnit>& units = cs_.units();
    comm_ok_.assign(slot_count_ * slot_count_, 0);
    slot_is_cluster_unit_.assign(slot_count_, 0);
    for (std::size_t a = 0; a < slot_count_; ++a) {
      comm_ok_[a * slot_count_ + a] = 1;  // same unit: no channel needed
      slot_is_cluster_unit_[a] =
          units[slot_units_[a].index()].is_cluster_unit() ? 1 : 0;
      for (std::size_t b = 0; b < a; ++b) {
        const std::uint8_t ok =
            units_can_communicate(cs_, alloc_, slot_units_[a], slot_units_[b],
                                  options_.comm_model)
                ? 1
                : 0;
        comm_ok_[a * slot_count_ + b] = ok;
        comm_ok_[b * slot_count_ + a] = ok;
      }
    }

    excl_bad_.assign(slot_count_ * slot_count_, 0);
    if (options_.exclusive_configurations) {
      for (std::size_t a = 0; a < slot_count_; ++a) {
        if (!slot_is_cluster_unit_[a]) continue;
        const AllocUnit& ua = units[slot_units_[a].index()];
        for (std::size_t b = 0; b < a; ++b) {
          if (!slot_is_cluster_unit_[b]) continue;
          const AllocUnit& ub = units[slot_units_[b].index()];
          if (ua.top == ub.top && ua.cluster != ub.cluster) {
            excl_bad_[a * slot_count_ + b] = 1;
            excl_bad_[b * slot_count_ + a] = 1;
            any_excl_ = true;
          }
        }
      }
    }

    slot_cand_offsets_.assign(slot_count_ + 1, 0);
    for (const Candidate& c : dom_) ++slot_cand_offsets_[c.slot + 1];
    for (std::size_t s = 0; s < slot_count_; ++s)
      slot_cand_offsets_[s + 1] += slot_cand_offsets_[s];
    slot_cand_.resize(dom_.size());
    std::vector<std::size_t> cursor(slot_cand_offsets_.begin(),
                                    slot_cand_offsets_.end() - 1);
    for (std::size_t g = 0; g < dom_.size(); ++g)
      slot_cand_[cursor[dom_[g].slot]++] = static_cast<std::uint32_t>(g);

    const std::vector<double>& caps = cs_.unit_capacities();
    slot_capacity_.resize(slot_count_);
    for (std::size_t s = 0; s < slot_count_; ++s)
      slot_capacity_[s] = caps[slot_units_[s].index()];
  }

  /// Initial violation flags (empty assignment: only a candidate's own
  /// demand/footprint can already exceed the bound) and live counts.
  void seed_counts() {
    assignment_.assign(n_, kUnassigned);
    bad_.assign(dom_.size(), 0);
    util_bad_.assign(dom_.size(), 0);
    cap_bad_.assign(dom_.size(), 0);
    live_count_.assign(n_, 0);
    slot_load_.assign(slot_count_, 0.0);
    slot_used_.assign(slot_count_, 0.0);
    const bool util_on = options_.utilization_bound > 0.0;
    const bool cap_on = options_.enforce_capacities;
    for (std::size_t g = 0; g < dom_.size(); ++g) {
      const Candidate& c = dom_[g];
      const std::size_t i = owner_of_[g];
      if (util_on && flat_.demand[i] > 0.0 &&
          flat_.demand[i] * c.latency > options_.utilization_bound + 1e-9) {
        util_bad_[g] = 1;
        ++bad_[g];
      }
      if (cap_on && flat_.footprint[i] > 0.0 && slot_capacity_[c.slot] > 0.0 &&
          flat_.footprint[i] > slot_capacity_[c.slot] + 1e-9) {
        cap_bad_[g] = 1;
        ++bad_[g];
      }
      if (bad_[g] == 0) ++live_count_[owner_of_[g]];
    }
  }

  void bump(std::size_t owner, std::size_t g, int delta) {
    if (delta > 0) {
      if (bad_[g]++ == 0) --live_count_[owner];
    } else {
      if (--bad_[g] == 0) ++live_count_[owner];
    }
  }

  /// Recomputes the utilization/capacity flags of every candidate targeting
  /// `slot` against the current loads.  Assigned owners are refreshed too:
  /// the flags stay a pure function of the live loads, so assign/unassign
  /// restore them exactly and the counts can never drift.
  void refresh_unit_flags(std::uint32_t slot) {
    const bool util_on = options_.utilization_bound > 0.0;
    const bool cap_on = options_.enforce_capacities;
    const double cap = slot_capacity_[slot];
    for (std::size_t k = slot_cand_offsets_[slot];
         k < slot_cand_offsets_[slot + 1]; ++k) {
      const std::size_t g = slot_cand_[k];
      const std::size_t i = owner_of_[g];
      if (util_on && flat_.demand[i] > 0.0) {
        const std::uint8_t now =
            slot_load_[slot] + flat_.demand[i] * dom_[g].latency >
                    options_.utilization_bound + 1e-9
                ? 1
                : 0;
        if (now != util_bad_[g]) {
          util_bad_[g] = now;
          bump(i, g, now != 0 ? +1 : -1);
        }
      }
      if (cap_on && flat_.footprint[i] > 0.0 && cap > 0.0) {
        const std::uint8_t now =
            slot_used_[slot] + flat_.footprint[i] > cap + 1e-9 ? 1 : 0;
        if (now != cap_bad_[g]) {
          cap_bad_[g] = now;
          bump(i, g, now != 0 ? +1 : -1);
        }
      }
    }
  }

  void assign(std::size_t i, std::size_t g) {
    assignment_[i] = g;  // first: excludes i's own row from the updates
    const Candidate& c = dom_[g];
    const std::uint32_t slot = c.slot;

    // Communication: candidates of unassigned flat neighbors that cannot
    // reach the chosen unit become inconsistent.
    const std::uint8_t* comm_row = comm_ok_.data() + slot * slot_count_;
    for (std::size_t j : flat_.adj[i]) {
      if (assignment_[j] != kUnassigned) continue;
      for (std::size_t g2 = dom_offsets_[j]; g2 < dom_offsets_[j + 1]; ++g2)
        if (comm_row[dom_[g2].slot] == 0) bump(j, g2, +1);
    }

    // Exclusive configurations: candidates on a different cluster of the
    // same device become inconsistent, for every unassigned process.
    if (any_excl_ && slot_is_cluster_unit_[slot] != 0) {
      const std::uint8_t* excl_row = excl_bad_.data() + slot * slot_count_;
      for (std::uint32_t s2 = 0; s2 < slot_count_; ++s2) {
        if (excl_row[s2] == 0) continue;
        for (std::size_t k = slot_cand_offsets_[s2];
             k < slot_cand_offsets_[s2 + 1]; ++k) {
          const std::size_t g2 = slot_cand_[k];
          const std::size_t j = owner_of_[g2];
          if (assignment_[j] != kUnassigned) continue;
          bump(j, g2, +1);
        }
      }
    }

    const double dload = flat_.demand[i] * c.latency;
    const double dfoot = flat_.footprint[i];
    slot_load_[slot] += dload;
    slot_used_[slot] += dfoot;
    if (dload != 0.0 || dfoot != 0.0) refresh_unit_flags(slot);
  }

  // Exact inverse of assign().  LIFO undo guarantees the set of unassigned
  // processes here equals the set at assign time, so every bump cancels.
  void unassign(std::size_t i, std::size_t g) {
    const Candidate& c = dom_[g];
    const std::uint32_t slot = c.slot;

    const double dload = flat_.demand[i] * c.latency;
    const double dfoot = flat_.footprint[i];
    slot_load_[slot] -= dload;
    slot_used_[slot] -= dfoot;
    if (dload != 0.0 || dfoot != 0.0) refresh_unit_flags(slot);

    if (any_excl_ && slot_is_cluster_unit_[slot] != 0) {
      const std::uint8_t* excl_row = excl_bad_.data() + slot * slot_count_;
      for (std::uint32_t s2 = 0; s2 < slot_count_; ++s2) {
        if (excl_row[s2] == 0) continue;
        for (std::size_t k = slot_cand_offsets_[s2];
             k < slot_cand_offsets_[s2 + 1]; ++k) {
          const std::size_t g2 = slot_cand_[k];
          const std::size_t j = owner_of_[g2];
          if (assignment_[j] != kUnassigned) continue;
          bump(j, g2, -1);
        }
      }
    }

    const std::uint8_t* comm_row = comm_ok_.data() + slot * slot_count_;
    for (std::size_t j : flat_.adj[i]) {
      if (assignment_[j] != kUnassigned) continue;
      for (std::size_t g2 = dom_offsets_[j]; g2 < dom_offsets_[j + 1]; ++g2)
        if (comm_row[dom_[g2].slot] == 0) bump(j, g2, -1);
    }

    assignment_[i] = kUnassigned;  // last: mirrors assign()
  }

  bool search(std::size_t depth) {
    if (interrupted_) return false;
    if (depth == n_) return true;

    // MRV over the maintained counts: first unassigned process with the
    // strictly fewest live candidates; a count of 1 ends the scan.
    std::size_t best = kUnassigned;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (assignment_[i] != kUnassigned) continue;
      const std::size_t count = live_count_[i];
      if (count == 0) return false;  // forward-checking wipeout
      if (best == kUnassigned || count < best_count) {
        best = i;
        best_count = count;
        if (count == 1) break;
      }
    }

    for (std::size_t g = dom_offsets_[best]; g < dom_offsets_[best + 1];
         ++g) {
      if (bad_[g] != 0) continue;
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

  const CompiledSpec& cs_;
  const AllocSet& alloc_;
  const CompiledFlat& flat_;
  const SolverOptions& options_;
  SolverStats& stats_;

  std::size_t n_ = 0;

  // CSR candidate domains: candidates of process i live at
  // dom_[dom_offsets_[i] .. dom_offsets_[i+1]).
  std::vector<std::size_t> dom_offsets_;
  std::vector<Candidate> dom_;
  std::vector<std::uint32_t> owner_of_;  ///< process of each candidate

  // Dense slot remap of the units referenced by any candidate.
  std::vector<AllocUnitId> slot_units_;
  std::vector<std::uint32_t> slot_of_unit_;  ///< by unit index
  std::size_t slot_count_ = 0;

  // Static conflict tables over slot pairs (row-major slot_count_^2).
  std::vector<std::uint8_t> comm_ok_;
  std::vector<std::uint8_t> excl_bad_;
  std::vector<std::uint8_t> slot_is_cluster_unit_;
  bool any_excl_ = false;

  // Candidates targeting each slot (CSR), for exclusive-configuration and
  // load propagation.
  std::vector<std::size_t> slot_cand_offsets_;
  std::vector<std::uint32_t> slot_cand_;

  std::vector<double> slot_capacity_;
  std::vector<double> slot_load_;
  std::vector<double> slot_used_;

  // Search state.
  std::vector<std::size_t> assignment_;
  std::vector<std::uint32_t> bad_;      ///< per candidate: violation count
  std::vector<std::uint8_t> util_bad_;  ///< per candidate: over the bound
  std::vector<std::uint8_t> cap_bad_;   ///< per candidate: over capacity
  std::vector<std::size_t> live_count_;  ///< per process: bad_ == 0 count
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
                           const CompiledFlat& flat_ref,
                           const Binding& binding,
                           const SolverOptions& options) {
  const CompiledFlat* flat = &flat_ref;
  const std::size_t n = flat->graph.vertices.size();
  const std::vector<BindingAssignment>& assignments = binding.assignments();
  if (assignments.size() != n) return false;

  // Rules 1/2: exactly one assignment per activated process, onto an
  // allocated unit.
  std::vector<const BindingAssignment*> at(n, nullptr);
  for (const BindingAssignment& a : assignments) {
    if (a.process.index() >= flat->index_of.size()) return false;
    const std::size_t i = flat->index_of[a.process.index()];
    if (i == CompiledFlat::npos || at[i] != nullptr) return false;
    if (!a.unit.valid() || !alloc.test(a.unit.index())) return false;
    at[i] = &a;
  }

  // Rule 3: every activated dependence is communication-feasible.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j : flat->adj[i]) {
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

  // Utilization bound and capacities against the summed loads.
  if (options.utilization_bound > 0.0 || options.enforce_capacities) {
    std::vector<double> load(cs.unit_count(), 0.0);
    std::vector<double> used(cs.unit_count(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      load[at[i]->unit.index()] += flat->demand[i] * at[i]->latency;
      used[at[i]->unit.index()] += flat->footprint[i];
    }
    const std::vector<double>& caps = cs.unit_capacities();
    for (std::size_t u = 0; u < cs.unit_count(); ++u) {
      if (options.utilization_bound > 0.0 &&
          load[u] > options.utilization_bound + 1e-9)
        return false;
      if (options.enforce_capacities && caps[u] > 0.0 &&
          used[u] > caps[u] + 1e-9)
        return false;
    }
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
