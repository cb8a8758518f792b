// Enumeration of resource allocations in increasing cost order (§4).
//
// The EXPLORE algorithm inspects "the elements of the set of possible
// resource allocations [...] in order of increasing allocation costs".
// `CostOrderedAllocations` is a lazy stream over all subsets of the
// allocatable-unit universe, ascending by cost (ties broken by
// lexicographic unit order, which makes runs deterministic).  A branch
// bound supplied by the caller prunes whole subtrees whose optimistic
// flexibility can no longer beat the incumbent.  An expanded state's
// children enter the heap one at a time, as a chain in (cost, index)
// order: popping one pushes the next, so each emitted subset adds at most
// one heap entry (more only where rounding makes dearer units sum alike).
//
// `obviously_dominated` implements the §5 filter ("elements that are
// obviously not Pareto-optimal [...] are left out"): allocations with a
// dangling bus (fewer than two allocated endpoints) or a functional unit no
// process can ever map to are dominated by the same allocation without that
// unit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "spec/specification.hpp"

namespace sdf {

class CompiledSpec;

/// Stream states in flat form.  Every state is a stored prefix plus at most
/// one added unit, and all children of an expanded state share its prefix,
/// so adding a state allocates nothing of its own.  `words` holds the
/// prefixes as runs: `words[p]` is a run's length, `words[p + 1]` the
/// number of states using it (the stream's bookkeeping; readers ignore
/// it), and the run's ascending unit indices follow.
///
/// The stream stores a state's unexpanded siblings as one chain head: a
/// state whose `last` carries `kChain` stands for itself and for every
/// sibling after its unit in `order` whose unit lies above the prefix run.
/// Frontiers read from text hold no chains and no `order`; there the flag
/// bit is an ordinary index bit, and `valid` rejects any index that large.
struct EnumFrontier {
  /// `State::last` of the one state that adds no unit: the empty allocation.
  static constexpr std::uint32_t kNoUnit = 0xffffffffu;
  /// Flag in `State::last` of a chain head; stream unit indices lie below it.
  static constexpr std::uint32_t kChain = 0x80000000u;
  struct State {
    std::uint32_t prefix = 0;    ///< offset of the prefix run in `words`
    std::uint32_t last = kNoUnit;  ///< added unit, above every prefix unit
  };
  std::vector<std::uint32_t> words;
  std::vector<State> states;
  /// Sibling order of the chains: the units the stream may add, ascending
  /// by (cost, index).  While it is empty, no state is a chain head.
  std::vector<std::uint32_t> order;

  /// States stood for: each chain counted out without being written out.
  [[nodiscard]] std::size_t size() const;
  /// Appends a plain state with the given ascending member list.
  void push_back(const std::vector<std::uint32_t>& members);
  /// State `i`'s own member list, ascending.
  [[nodiscard]] std::vector<std::uint32_t> members(std::size_t i) const;
  /// True iff every run lies inside `words`, every member list is strictly
  /// ascending below `universe`, only an empty list adds no unit, `order`
  /// holds distinct units below `universe`, and each chain head's unit is
  /// one of them.
  [[nodiscard]] bool valid(std::size_t universe) const;
  /// The same states with every chain written out as plain states.
  [[nodiscard]] EnumFrontier written_out() const;
  /// State indices in canonical order: lexicographic by member list, a
  /// proper prefix first.  Costs are not needed, and distinct states never
  /// tie, so the order does not depend on how the states are stored.
  /// Meant for a frontier without chains (see `written_out`).
  [[nodiscard]] std::vector<std::size_t> canonical_order() const;
  /// Equal when both stand for the same states, in any order and chained
  /// or not: the stream's pop order does not depend on how its frontier is
  /// stored.
  friend bool operator==(const EnumFrontier& a, const EnumFrontier& b);
};

/// Snapshot of a `CostOrderedAllocations` stream: the frontier states still
/// awaiting expansion plus the emit/prune counters.  Restoring a cursor
/// resumes the enumeration bit-identically — the (cost, lex) comparator is
/// a total order over subsets, so the pop sequence does not depend on the
/// heap's internal layout or on which siblings are chained.  Costs are not
/// stored; `restore` re-derives them in the stream's own summation order.
struct EnumCursor {
  EnumFrontier frontier;
  std::uint64_t emitted = 0;
  std::uint64_t pruned = 0;
};

class CostOrderedAllocations {
 public:
  explicit CostOrderedAllocations(const CompiledSpec& cs);
  explicit CostOrderedAllocations(const SpecificationGraph& spec);

  /// Variant with a frozen base: every emitted allocation contains `base`,
  /// only units outside `base` are added, and the enumeration order is by
  /// *incremental* cost (the added units only).  Used by the incremental
  /// explorer to search platform upgrades.
  CostOrderedAllocations(const CompiledSpec& cs, AllocSet base);

  /// Optional subtree bound.  Called with the optimistic completion of a
  /// stream state — the emitted subset plus every unit that could still be
  /// added; returning false prunes all descendants of that state.
  using BranchBound = std::function<bool(const AllocSet& potential)>;
  void set_branch_bound(BranchBound keep) { keep_ = std::move(keep); }

  /// Next subset in (cost, lex) order; nullopt when exhausted.  The first
  /// emitted subset is the empty allocation.
  [[nodiscard]] std::optional<AllocSet> next();

  /// Subsets emitted so far.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Subtrees pruned by the branch bound so far.
  [[nodiscard]] std::uint64_t pruned() const { return pruned_; }

  /// Frontier states awaiting expansion, chained siblings counted one by
  /// one.  Every not-yet-emitted subset is a descendant of exactly one
  /// frontier state, so `frontier_size() == 0` means the stream is
  /// exhausted.
  [[nodiscard]] std::size_t frontier_size() const { return frontier_size_; }

  /// Checkpoint support: snapshots / restores the enumeration state.  A
  /// stream restored from `cursor()` continues exactly where the source
  /// stream stood (same emit order, same counters).  `cursor()` copies the
  /// flat frontier as it lies, chains and sibling order included, without
  /// sorting it.  `restore` continues chains made on its own sibling order
  /// and writes out any others.  It expects a cursor for which
  /// `frontier.valid(universe)` holds and that names no base unit.  The
  /// branch bound is NOT part of the cursor; re-set it after restoring.
  [[nodiscard]] EnumCursor cursor() const;
  void restore(const EnumCursor& cursor);

 private:
  struct Entry {
    double cost;
    EnumFrontier::State state;
  };
  /// Heap order: a pops after b (higher cost, then lexicographically later).
  struct Later {
    const std::vector<std::uint32_t>* words;
    bool operator()(const Entry& a, const Entry& b) const;
  };

  /// Makes room in `words_` for one more run, first dropping the runs no
  /// state uses once they fill half of it, so the array stays
  /// proportional to the frontier rather than to everything emitted.
  void reserve_run();
  void push(const Entry& e);
  /// Pushes the siblings that add a unit at or above `floor`, from place `p`
  /// of `order_` on, to the run at `prefix` whose cost is `run_cost`: one
  /// chain head, or plain states first where rounding gives dearer units
  /// the same sum.  Returns the number of heap entries pushed.
  std::uint32_t push_siblings(std::uint32_t prefix, double run_cost,
                              std::uint32_t p, std::uint32_t floor);

  AllocSet base_;
  std::vector<double> unit_cost_;
  /// Sibling order: the units the stream adds, ascending by (cost, index).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> position_;  ///< unit → its place in `order_`
  /// Per place in `order_`: the first place of a higher unit cost.
  std::vector<std::uint32_t> next_cost_;
  /// Per unit index k (and k = units): the first place in `order_` of a
  /// unit at or above k, and the number of such units.
  std::vector<std::uint32_t> first_from_;
  std::vector<std::uint32_t> count_from_;
  std::vector<std::uint32_t> words_;  ///< prefix runs, as in `EnumFrontier`
  std::size_t dead_words_ = 0;  ///< words of runs no state uses any more
  std::vector<Entry> heap_;  ///< min-heap via std::*_heap with `Later`
  std::size_t frontier_size_ = 0;
  BranchBound keep_;
  std::uint64_t emitted_ = 0;
  std::uint64_t pruned_ = 0;
};

/// Allocation-independent inputs of the §5 dominance filter, precomputed
/// once per specification: which units any process can map to (one scan of
/// the mapping edges instead of one per candidate), and each unit's
/// adjacent top-level architecture nodes (the potential bus endpoints).
/// All exploration engines build one of these up front and reuse it for
/// every candidate.
struct DominanceContext {
  /// Copies the index's precomputed bitset and adjacency lists.
  explicit DominanceContext(const CompiledSpec& cs);

  /// Units at least one problem-graph process can map to.
  DynBitset mappable_unit;
  /// Per unit: distinct top-level architecture nodes adjacent to the unit's
  /// top node by architecture edges (either direction).  Only populated for
  /// communication units — the only ones the filter inspects adjacency for.
  std::vector<std::vector<NodeId>> neighbor_tops;
};

/// §5 dominance filter; see file comment.  When `scope` is non-null only
/// the units in `scope` are examined (adjacency is always judged in the
/// full allocation) — the incremental explorer uses this to exempt the
/// already-deployed platform, which is a sunk cost.
[[nodiscard]] bool obviously_dominated(const CompiledSpec& cs,
                                       const DominanceContext& ctx,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);

/// Convenience overload that rebuilds the context per call; prefer the
/// context form anywhere more than one candidate is filtered.
[[nodiscard]] bool obviously_dominated(const SpecificationGraph& spec,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);

/// Eagerly enumerates every *possible resource allocation* (allocations
/// admitting at least one complete problem activation by reachability,
/// §4), ascending by cost.  Exponential in the universe — intended for the
/// paper-sized examples; aborts via SDF_CHECK above `max_universe` units.
[[nodiscard]] std::vector<AllocSet> enumerate_possible_allocations(
    const CompiledSpec& cs, bool apply_dominance_filter = false,
    std::size_t max_universe = 24);
[[nodiscard]] std::vector<AllocSet> enumerate_possible_allocations(
    const SpecificationGraph& spec, bool apply_dominance_filter = false,
    std::size_t max_universe = 24);

}  // namespace sdf
