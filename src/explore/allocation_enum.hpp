// Enumeration of resource allocations in increasing cost order (§4).
//
// The EXPLORE algorithm inspects "the elements of the set of possible
// resource allocations [...] in order of increasing allocation costs".
// `CostOrderedAllocations` is a lazy stream over all subsets of the
// allocatable-unit universe, ascending by cost (ties broken by
// lexicographic unit order, which makes runs deterministic).  A subset's
// cost is `CompiledSpec::allocation_cost`, summed in its order: a priced
// configurable device is charged with its lowest-index configuration.  A
// branch bound supplied by the caller prunes whole subtrees whose optimistic
// flexibility can no longer beat the incumbent.  An expanded state's
// children enter the heap one at a time, as a chain in (cost, index)
// order: popping one pushes the next, so each emitted subset adds at most
// one heap entry (more only where rounding makes dearer units sum alike).
// Each heap entry carries a tie key, its state's first members packed into
// its 16 bytes, so most cost ties are settled without reading a prefix run.
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
  [[nodiscard]] std::size_t size() const { return extent().states; }
  /// The states stood for and their member lists' summed lengths, counted
  /// the same way: what `written_out` would hold, known without building it.
  /// With a nonzero `cap`, counting stops once states plus members exceed
  /// it, so a frontier far past a cap costs only the heads counted so far.
  struct Extent {
    std::size_t states = 0;
    std::uint64_t members = 0;
  };
  [[nodiscard]] Extent extent(std::uint64_t cap = 0) const;
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

  /// Writes the next subset in (cost, lex) order into `out`, reusing its
  /// storage; false when exhausted.  The first emitted subset is the empty
  /// allocation.  `out` may be default-constructed or moved from.
  bool next(AllocSet& out);
  /// The same, returning the subset; nullopt when exhausted.
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
  /// The same cursor, its prefix array moved out rather than copied.  The
  /// stream is left without a frontier: `next` emits nothing until a
  /// `restore`.
  [[nodiscard]] EnumCursor take_cursor();
  void restore(const EnumCursor& cursor);

 private:
  /// A stream state with its cost.  `tag` packs, from the low bits up, the
  /// added unit plus one (0 for none) in b = bit_width(universe) bits, the
  /// chain flag, and the tie key: the state's first members as MSB-first
  /// digits of b bits each, as many as fit, a member plus one per digit
  /// and 0 past the list's end.  Equal keys leave the order to the member
  /// lists.
  struct Entry {
    double cost;
    std::uint32_t prefix;  ///< offset of the prefix run in `words_`
    std::uint32_t tag;
  };
  static_assert(sizeof(Entry) == 16, "a heap entry is 16 bytes");
  /// Heap order: a pops after b (higher cost, then lexicographically later).
  struct Later {
    const std::vector<std::uint32_t>* words;
    std::uint32_t key_mask;   ///< the tag's tie-key bits
    std::uint32_t unit_mask;  ///< the tag's unit-plus-one bits
    bool operator()(const Entry& a, const Entry& b) const;
  };
  [[nodiscard]] Later later() const {
    return Later{&words_, key_mask_, unit_mask_};
  }
  /// The tag bits of member `i`'s digit, for a member plus one; 0 past the
  /// key's digits.
  [[nodiscard]] std::uint32_t digit_place(std::uint32_t i) const {
    return i < digit_place_.size() ? digit_place_[i] : 0;
  }
  [[nodiscard]] EnumFrontier::State state_of(const Entry& e) const;
  /// `cursor()` without the prefix runs.
  [[nodiscard]] EnumCursor cursor_without_runs() const;

  /// Makes room in `words_` for one more run, first dropping the runs no
  /// state uses once they fill half of it, so the array stays
  /// proportional to the frontier rather than to everything emitted.
  void reserve_run();
  void push(const Entry& e);
  /// Pushes the siblings that add a unit at or above `floor`, from place `p`
  /// of `order_` on, to the run at `prefix` whose cost is `run_cost`: one
  /// chain head, or plain states first where rounding gives dearer units
  /// the same sum.  `run_key` holds the run's digits and `place` that of
  /// the added unit.  Returns the number of heap entries pushed.
  std::uint32_t push_siblings(std::uint32_t prefix, double run_cost,
                              std::uint32_t run_key, std::uint32_t place,
                              std::uint32_t p, std::uint32_t floor);
  /// Adds unit `u` to a member list whose cost so far is `cost`: its own
  /// price, then its device's the first time a configuration of a priced
  /// device appears (marked in `charged_`, which the caller clears).
  [[nodiscard]] double add_unit(double cost, std::uint32_t u);

  AllocSet base_;
  std::vector<double> unit_cost_;
  /// Configurations of devices with a positive price outside the base,
  /// ascending.  What one adds depends on whether its device is charged
  /// already, so they stay out of the sibling chains: every expansion
  /// pushes them as plain states.
  std::vector<std::uint32_t> priced_;
  /// By unit: its device slot if the unit is in `priced_`, else kNoUnit;
  /// by slot: the device's price and, while a member list is summed,
  /// whether it is charged.
  std::vector<std::uint32_t> device_of_;
  std::vector<double> device_cost_;
  std::vector<std::uint8_t> charged_;
  /// Sibling order: the other units the stream adds, ascending by (cost,
  /// index).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> position_;  ///< unit → its place in `order_`
  /// Per place in `order_`: the first place of a higher unit cost.
  std::vector<std::uint32_t> next_cost_;
  /// Per unit index k (and k = units): the first place in `order_` of a
  /// unit at or above k, and the number of such units.
  std::vector<std::uint32_t> first_from_;
  std::vector<std::uint32_t> count_from_;
  /// Tag layout (see `Entry`): the unit-plus-one bits, the chain flag, the
  /// key's bits, and per member position within the key its digit's place.
  std::uint32_t unit_mask_ = 0;
  std::uint32_t chain_bit_ = 0;
  std::uint32_t key_mask_ = 0;
  std::vector<std::uint32_t> digit_place_;
  std::vector<std::uint32_t> words_;  ///< prefix runs, as in `EnumFrontier`
  std::size_t dead_words_ = 0;  ///< words of runs no state uses any more
  std::vector<Entry> heap_;  ///< min-heap via std::*_heap with `Later`
  std::size_t frontier_size_ = 0;
  BranchBound keep_;
  AllocSet potential_;  ///< the branch bound's argument, reused
  std::uint64_t emitted_ = 0;
  std::uint64_t pruned_ = 0;
};

/// Allocation-independent inputs of the §5 dominance filter, precomputed
/// once per specification as flat arrays of bitset words, so judging a
/// candidate takes word-wise intersections and allocates nothing.  All
/// exploration engines build one of these up front and reuse it for every
/// candidate.
struct DominanceContext {
  explicit DominanceContext(const CompiledSpec& cs);

  std::size_t units = 0;  ///< universe size
  std::size_t words = 0;  ///< words per unit mask
  /// Communication units, the only ones judged by adjacency.
  std::vector<std::uint64_t> bus_mask;
  /// Functional units that no problem-graph process can map to.
  std::vector<std::uint64_t> unmappable_mask;
  /// Bus `u`'s potential endpoints are the top-level architecture nodes
  /// adjacent to its top node (either direction), each given by the mask
  /// of its functional units: entries `endpoint_begin[u]` up to
  /// `endpoint_begin[u + 1]` of `endpoint_top` name masks in `top_mask`,
  /// which holds `words` words per node.  Buses share a node's mask.
  std::vector<std::uint32_t> endpoint_begin;
  std::vector<std::uint32_t> endpoint_top;
  std::vector<std::uint64_t> top_mask;
};

/// §5 dominance filter; see file comment.  When `scope` is non-null only
/// the units in `scope` are examined (adjacency is always judged in the
/// full allocation) — the incremental explorer uses this to exempt the
/// already-deployed platform, which is a sunk cost.
[[nodiscard]] bool obviously_dominated(const CompiledSpec& cs,
                                       const DominanceContext& ctx,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);

/// Eagerly enumerates every *possible resource allocation* (allocations
/// admitting at least one complete problem activation by reachability,
/// §4), ascending by cost.  Exponential in the universe — intended for the
/// paper-sized examples; aborts via SDF_CHECK above `max_universe` units.
[[nodiscard]] std::vector<AllocSet> enumerate_possible_allocations(
    const CompiledSpec& cs, bool apply_dominance_filter = false,
    std::size_t max_universe = 24);

}  // namespace sdf
