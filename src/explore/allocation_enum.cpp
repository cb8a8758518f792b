#include "explore/allocation_enum.hpp"

#include <algorithm>
#include <limits>

#include "flex/activatability.hpp"
#include "spec/compiled.hpp"

namespace sdf {
namespace {

using State = EnumFrontier::State;
constexpr std::uint32_t kNoUnit = EnumFrontier::kNoUnit;
constexpr std::uint32_t kChain = EnumFrontier::kChain;

/// Words ahead of a run's members: its length and its state count.
constexpr std::size_t kHead = 2;

/// Lexicographic order of two states' member lists, each a prefix run
/// (at offsets `pa`, `pb`) followed by an added unit given as a key: the
/// unit plus one, or 0 for none, so "no more members" sorts before every
/// unit.  A proper prefix comes first.  Siblings share their run, so the
/// commonest cost tie is one integer comparison.
bool members_less(const std::uint32_t* words, std::uint32_t pa,
                  std::uint32_t ka, std::uint32_t pb, std::uint32_t kb) {
  if (pa == pb) return ka < kb;
  const std::uint32_t* ra = words + pa + kHead;
  const std::uint32_t* rb = words + pb + kHead;
  const std::uint32_t na = words[pa];
  const std::uint32_t nb = words[pb];
  const std::uint32_t n = std::min(na, nb);
  for (std::uint32_t i = 0; i < n; ++i)
    if (ra[i] != rb[i]) return ra[i] < rb[i];
  // Past the shorter run, each list continues with its next run member or
  // its added unit.  Equal there means the shorter run's list just ended.
  const std::uint32_t xa = na > n ? ra[n] + 1u : ka;
  const std::uint32_t xb = nb > n ? rb[n] + 1u : kb;
  if (xa != xb) return xa < xb;
  return na < nb;
}

/// True iff `s` is a chain head of `f` (see `EnumFrontier`).
bool is_head(const EnumFrontier& f, State s) {
  return !f.order.empty() && s.last != kNoUnit && (s.last & kChain) != 0;
}

/// Unit → its place in `order`, kNoUnit for units not in it, up to the
/// largest unit in `order`.
std::vector<std::uint32_t> positions(const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> pos(
      order.empty() ? 0 : *std::max_element(order.begin(), order.end()) + 1,
      kNoUnit);
  for (std::size_t p = 0; p < order.size(); ++p)
    pos[order[p]] = static_cast<std::uint32_t>(p);
  return pos;
}

/// Lowest unit a state over the run at `prefix` may add: one above the
/// run's last member, 0 for the empty run.
std::uint32_t floor_above(const std::uint32_t* words, std::uint32_t prefix) {
  const std::uint32_t run = words[prefix];
  return run == 0 ? 0 : words[prefix + kHead + run - 1] + 1;
}

}  // namespace

std::size_t EnumFrontier::size() const {
  std::size_t n = 0;
  const std::vector<std::uint32_t> pos = positions(order);
  // Units of `order` at or above each index.  A chain stands for those
  // above its run, less the ones placed before its head: a cost-ordered
  // stream has moved its chains only past the cheap start of `order`.
  std::vector<std::size_t> at_or_above(pos.size() + 1, 0);
  for (std::size_t k = pos.size(); k-- > 0;)
    at_or_above[k] = at_or_above[k + 1] + (pos[k] != kNoUnit ? 1 : 0);
  for (const State& s : states) {
    if (!is_head(*this, s)) {
      ++n;
      continue;
    }
    const std::uint32_t floor = floor_above(words.data(), s.prefix);
    n += at_or_above[floor];
    for (std::uint32_t q = 0; q < pos[s.last & ~kChain]; ++q)
      n -= order[q] >= floor ? 1 : 0;
  }
  return n;
}

void EnumFrontier::push_back(const std::vector<std::uint32_t>& members) {
  const std::size_t prefix = words.size();
  SDF_CHECK(prefix + kHead + members.size() <=
                std::numeric_limits<std::uint32_t>::max(),
            "stream frontier exceeds its 32-bit run offsets");
  const std::size_t run = members.empty() ? 0 : members.size() - 1;
  words.push_back(static_cast<std::uint32_t>(run));
  words.push_back(1);  // this state is the run's only user
  words.insert(words.end(), members.begin(),
               members.begin() + static_cast<std::ptrdiff_t>(run));
  states.push_back(State{static_cast<std::uint32_t>(prefix),
                         members.empty() ? kNoUnit : members.back()});
}

std::vector<std::uint32_t> EnumFrontier::members(std::size_t i) const {
  const State s = states[i];
  const auto run = words.begin() + static_cast<std::ptrdiff_t>(s.prefix + kHead);
  std::vector<std::uint32_t> out(run, run + words[s.prefix]);
  if (s.last != kNoUnit)
    out.push_back(is_head(*this, s) ? s.last & ~kChain : s.last);
  return out;
}

bool EnumFrontier::valid(std::size_t universe) const {
  std::vector<std::uint32_t> pos(order.empty() ? 0 : universe, kNoUnit);
  for (std::size_t p = 0; p < order.size(); ++p) {
    if (order[p] >= universe || pos[order[p]] != kNoUnit) return false;
    pos[order[p]] = static_cast<std::uint32_t>(p);
  }
  for (const State& s : states) {
    if (s.prefix >= words.size() || words.size() - s.prefix < kHead ||
        words[s.prefix] > words.size() - s.prefix - kHead)
      return false;
    const std::uint32_t n = words[s.prefix];
    const bool head = is_head(*this, s);
    const std::uint32_t last = head ? s.last & ~kChain : s.last;
    if (last == kNoUnit ? n != 0 : last >= universe) return false;
    if (head && pos[last] == kNoUnit) return false;
    const std::uint32_t* run = words.data() + s.prefix + kHead;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t next = i + 1 < n ? run[i + 1] : last;
      if (run[i] >= next) return false;
    }
  }
  return true;
}

EnumFrontier EnumFrontier::written_out() const {
  EnumFrontier out;
  out.words = words;
  if (order.empty()) {
    out.states = states;
    return out;
  }
  const std::vector<std::uint32_t> pos = positions(order);
  for (const State& s : states) {
    if (!is_head(*this, s)) {
      out.states.push_back(s);
      continue;
    }
    const std::uint32_t unit = s.last & ~kChain;
    const std::uint32_t floor = floor_above(words.data(), s.prefix);
    out.states.push_back(State{s.prefix, unit});
    for (std::size_t q = pos[unit] + 1; q < order.size(); ++q)
      if (order[q] >= floor) out.states.push_back(State{s.prefix, order[q]});
  }
  return out;
}

std::vector<std::size_t> EnumFrontier::canonical_order() const {
  std::vector<std::size_t> order(states.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return members_less(words.data(), states[a].prefix, states[a].last + 1u,
                        states[b].prefix, states[b].last + 1u);
  });
  return order;
}

bool operator==(const EnumFrontier& a, const EnumFrontier& b) {
  const EnumFrontier wa = a.written_out();
  const EnumFrontier wb = b.written_out();
  if (wa.states.size() != wb.states.size()) return false;
  const std::vector<std::size_t> oa = wa.canonical_order();
  const std::vector<std::size_t> ob = wb.canonical_order();
  for (std::size_t i = 0; i < oa.size(); ++i)
    if (wa.members(oa[i]) != wb.members(ob[i])) return false;
  return true;
}

bool CostOrderedAllocations::Later::operator()(const Entry& a,
                                               const Entry& b) const {
  if (a.cost != b.cost) return a.cost > b.cost;
  // The key drops a chain head's flag; kNoUnit + 1 wraps to 0.
  return members_less(words->data(), b.state.prefix,
                      (b.state.last + 1u) & ~kChain, a.state.prefix,
                      (a.state.last + 1u) & ~kChain);
}

CostOrderedAllocations::CostOrderedAllocations(const CompiledSpec& cs)
    : CostOrderedAllocations(cs, cs.make_alloc_set()) {}

CostOrderedAllocations::CostOrderedAllocations(const CompiledSpec& cs,
                                               AllocSet base)
    : base_(std::move(base)) {
  const auto& units = cs.units();
  SDF_CHECK(units.size() < kChain,
            "unit universe exceeds the stream's 31-bit unit indices");
  const auto n = static_cast<std::uint32_t>(units.size());
  unit_cost_.reserve(n);
  // Units already in the base are never re-added: they get a negative price
  // and stay out of the sibling order, as does any unit whose own price is
  // not a non-negative number.
  for (const AllocUnit& u : units)
    unit_cost_.push_back(base_.test(u.id.index()) ? -1.0 : u.cost);
  for (std::uint32_t j = 0; j < n; ++j)
    if (unit_cost_[j] >= 0.0) order_.push_back(j);
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return unit_cost_[a] != unit_cost_[b]
                         ? unit_cost_[a] < unit_cost_[b]
                         : a < b;
            });
  const auto places = static_cast<std::uint32_t>(order_.size());
  position_ = positions(order_);
  position_.resize(n, kNoUnit);
  next_cost_.resize(places);
  for (std::uint32_t p = places; p-- > 0;)
    next_cost_[p] = p + 1 < places &&
                            unit_cost_[order_[p + 1]] == unit_cost_[order_[p]]
                        ? next_cost_[p + 1]
                        : p + 1;
  first_from_.assign(n + 1, places);
  count_from_.assign(n + 1, 0);
  for (std::uint32_t k = n; k-- > 0;) {
    const bool in_order = position_[k] != kNoUnit;
    first_from_[k] = in_order ? std::min(first_from_[k + 1], position_[k])
                              : first_from_[k + 1];
    count_from_[k] = count_from_[k + 1] + (in_order ? 1 : 0);
  }
  words_ = {0, 1};  // the empty run, used by the root state
  heap_.push_back(Entry{0.0, State{}});
  frontier_size_ = 1;
}

CostOrderedAllocations::CostOrderedAllocations(const SpecificationGraph& spec)
    : CostOrderedAllocations(spec.compiled()) {}

void CostOrderedAllocations::reserve_run() {
  const std::size_t need = kHead + unit_cost_.size();
  if (words_.capacity() - words_.size() >= need) return;
  // Compact only once unused runs fill half the array: the work is then
  // constant per word appended, and a growing frontier never pays for it.
  if (dead_words_ * 2 >= words_.size()) {
    constexpr std::uint32_t kLive = 0x80000000u;  // flag in a run's length
    // A live run's state count makes room for its new offset, which every
    // state follows; the counts are rebuilt after the move.
    std::size_t to = 0;
    for (std::size_t from = 0; from < words_.size();) {
      const std::uint32_t n = words_[from];
      if (words_[from + 1] != 0) {
        words_[from] = n | kLive;
        words_[from + 1] = static_cast<std::uint32_t>(to);
        to += kHead + n;
      }
      from += kHead + n;
    }
    for (Entry& e : heap_) e.state.prefix = words_[e.state.prefix + 1];
    // Live runs slide down in offset order; one never lands past its old
    // start, so nothing is overwritten before it is read.
    to = 0;
    for (std::size_t from = 0; from < words_.size();) {
      const std::uint32_t head = words_[from];
      const std::size_t span = kHead + (head & ~kLive);
      if ((head & kLive) != 0) {
        const auto src = words_.begin() + static_cast<std::ptrdiff_t>(from);
        if (to != from)
          std::copy(src + kHead, src + static_cast<std::ptrdiff_t>(span),
                    words_.begin() + static_cast<std::ptrdiff_t>(to + kHead));
        words_[to] = head & ~kLive;
        words_[to + 1] = 0;
        to += span;
      }
      from += span;
    }
    words_.resize(to);
    for (const Entry& e : heap_) ++words_[e.state.prefix + 1];
    dead_words_ = 0;
  }
  if (words_.capacity() - words_.size() < need)
    words_.reserve(std::max({2 * words_.capacity(), words_.size() + need,
                             std::size_t{4096}}));
}

void CostOrderedAllocations::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{&words_});
}

std::uint32_t CostOrderedAllocations::push_siblings(std::uint32_t prefix,
                                                    double run_cost,
                                                    std::uint32_t p,
                                                    std::uint32_t floor) {
  const auto places = static_cast<std::uint32_t>(order_.size());
  std::uint32_t pushed = 0;
  while (true) {
    while (p < places && order_[p] < floor) ++p;
    if (p == places) return pushed;
    // A chain pops its siblings in (cost, index) order, which is the
    // stream's (cost, lex) order as long as a dearer unit also makes a
    // dearer sum.  Sums round, so check the next dearer unit.
    const double cost = run_cost + unit_cost_[order_[p]];
    const std::uint32_t dearer = next_cost_[p];
    if (dearer == places || run_cost + unit_cost_[order_[dearer]] != cost) {
      push(Entry{cost, State{prefix, order_[p] | kChain}});
      return pushed + 1;
    }
    // Rounding gives dearer units this sum too, and among equal sums the
    // stream goes by index: push those siblings as plain states.
    for (; p < places && run_cost + unit_cost_[order_[p]] == cost; ++p) {
      if (order_[p] < floor) continue;
      push(Entry{cost, State{prefix, order_[p]}});
      ++pushed;
    }
  }
}

std::optional<AllocSet> CostOrderedAllocations::next() {
  if (heap_.empty()) return std::nullopt;
  reserve_run();  // before the pop: compaction keeps only runs in use
  std::pop_heap(heap_.begin(), heap_.end(), Later{&words_});
  const Entry top = heap_.back();
  heap_.pop_back();
  --frontier_size_;

  const std::uint32_t prefix = top.state.prefix;
  const std::size_t from = prefix + kHead;
  const std::uint32_t run = words_[prefix];
  const bool added = top.state.last != kNoUnit;
  const bool head = added && (top.state.last & kChain) != 0;
  const std::uint32_t unit = added ? top.state.last & ~kChain : kNoUnit;
  AllocSet set = base_;
  // Left to right from zero, as every stored cost was summed: bit-exact.
  double run_cost = 0.0;
  for (std::size_t i = from; i < from + run; ++i) {
    set.set(words_[i]);
    run_cost += unit_cost_[words_[i]];
  }
  if (added) set.set(unit);

  // A chain head hands its run on to its next sibling, if it has one; else
  // the popped state stops using the run, whose words stay readable until
  // the next compaction.
  std::uint32_t users = words_[prefix + 1] - 1;
  if (head)
    users += push_siblings(prefix, run_cost, position_[unit] + 1,
                           floor_above(words_.data(), prefix));
  words_[prefix + 1] = users;
  if (users == 0) dead_words_ += kHead + run;

  // Expand: children add one unit with an index above the last added one.
  // Each subset is generated exactly once (by ascending-index insertion) and
  // children never cost less than their parent, so the priority queue yields
  // global (cost, lex) order.  Only the first child enters the heap, as the
  // head of its siblings' chain.
  const auto units = static_cast<std::uint32_t>(unit_cost_.size());
  const std::uint32_t begin = added ? unit + 1 : 0;
  bool expand = begin < units;
  if (expand && keep_) {
    AllocSet potential = set;
    for (std::uint32_t j = begin; j < units; ++j) potential.set(j);
    if (!keep_(potential)) {
      expand = false;
      ++pruned_;
    }
  }
  if (expand && count_from_[begin] != 0) {
    // The popped state's member list becomes the run its children share.
    const std::size_t at = words_.size();
    const std::uint32_t length = run + (added ? 1 : 0);
    SDF_CHECK(at + kHead + length <= std::numeric_limits<std::uint32_t>::max(),
              "stream frontier exceeds its 32-bit run offsets");
    words_.resize(at + kHead + length);  // within reserve_run()'s room
    words_[at] = length;
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(from), run,
                words_.begin() + static_cast<std::ptrdiff_t>(at + kHead));
    if (added) words_.back() = unit;
    words_[at + 1] = push_siblings(static_cast<std::uint32_t>(at), top.cost,
                                   first_from_[begin], begin);
    frontier_size_ += count_from_[begin];
  }

  ++emitted_;
  return set;
}

EnumCursor CostOrderedAllocations::cursor() const {
  EnumCursor c;
  c.frontier.words = words_;
  c.frontier.states.reserve(heap_.size());
  for (const Entry& e : heap_) c.frontier.states.push_back(e.state);
  c.frontier.order = order_;
  c.emitted = emitted_;
  c.pruned = pruned_;
  return c;
}

void CostOrderedAllocations::restore(const EnumCursor& cursor) {
  // Chains continue only on this stream's own sibling order.
  std::optional<EnumFrontier> plain;
  if (!cursor.frontier.order.empty() && cursor.frontier.order != order_)
    plain = cursor.frontier.written_out();
  const EnumFrontier& f = plain.has_value() ? *plain : cursor.frontier;
  // Copy only the runs some state refers to, back to back, which is the
  // layout reserve_run() compacts.
  std::vector<std::uint32_t> moved(f.words.size(), kNoUnit);
  words_.clear();
  heap_.clear();
  heap_.reserve(f.states.size());
  dead_words_ = 0;
  for (const State& s : f.states) {
    const std::uint32_t* run = f.words.data() + s.prefix;
    const std::uint32_t n = run[0];
    std::uint32_t& at = moved[s.prefix];
    if (at == kNoUnit) {
      at = static_cast<std::uint32_t>(words_.size());
      words_.insert(words_.end(), {n, 0});
      words_.insert(words_.end(), run + kHead, run + kHead + n);
    }
    ++words_[at + 1];
    // Left to right from zero, as next() sums a child's cost: bit-exact.
    double cost = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) cost += unit_cost_[run[kHead + i]];
    if (s.last != kNoUnit) cost += unit_cost_[s.last & ~kChain];
    heap_.push_back(Entry{cost, State{at, s.last}});
  }
  std::make_heap(heap_.begin(), heap_.end(), Later{&words_});
  frontier_size_ = f.size();
  emitted_ = cursor.emitted;
  pruned_ = cursor.pruned;
}

DominanceContext::DominanceContext(const CompiledSpec& cs)
    : mappable_unit(cs.mappable_units()) {
  neighbor_tops.resize(cs.unit_count());
  for (std::size_t i = 0; i < neighbor_tops.size(); ++i)
    neighbor_tops[i] = cs.comm_neighbor_tops(AllocUnitId{i});
}

bool obviously_dominated(const CompiledSpec& cs, const DominanceContext& ctx,
                         const AllocSet& alloc, const AllocSet* scope) {
  const auto& units = cs.units();

  // Which top-level architecture nodes host an allocated functional unit?
  DynBitset functional_tops(cs.architecture().node_count());
  alloc.for_each([&](std::size_t i) {
    if (!units[i].is_comm) functional_tops.set(units[i].top.index());
  });

  bool dominated = false;
  alloc.for_each([&](std::size_t i) {
    if (dominated) return;
    if (scope != nullptr && !scope->test(i)) return;
    const AllocUnit& u = units[i];
    if (u.is_comm) {
      // Dangling bus: fewer than two distinct allocated functional
      // endpoints adjacent by architecture edges.
      std::size_t endpoints = 0;
      for (NodeId other : ctx.neighbor_tops[i])
        if (functional_tops.test(other.index())) ++endpoints;
      if (endpoints < 2) dominated = true;
    } else if (!ctx.mappable_unit.test(i)) {
      // Functional unit no process can ever execute on.
      dominated = true;
    }
  });
  return dominated;
}

bool obviously_dominated(const SpecificationGraph& spec,
                         const AllocSet& alloc, const AllocSet* scope) {
  const CompiledSpec& cs = spec.compiled();
  return obviously_dominated(cs, DominanceContext(cs), alloc, scope);
}

std::vector<AllocSet> enumerate_possible_allocations(
    const CompiledSpec& cs, bool apply_dominance_filter,
    std::size_t max_universe) {
  const std::size_t n = cs.unit_count();
  SDF_CHECK(n <= max_universe,
            "unit universe too large for eager enumeration");

  std::vector<AllocSet> out;
  const DominanceContext ctx(cs);
  CostOrderedAllocations stream(cs);
  while (std::optional<AllocSet> a = stream.next()) {
    if (a->none()) continue;
    if (apply_dominance_filter && obviously_dominated(cs, ctx, *a)) continue;
    if (!is_possible_allocation(cs, *a)) continue;
    out.push_back(std::move(*a));
  }
  return out;
}

std::vector<AllocSet> enumerate_possible_allocations(
    const SpecificationGraph& spec, bool apply_dominance_filter,
    std::size_t max_universe) {
  return enumerate_possible_allocations(spec.compiled(),
                                        apply_dominance_filter, max_universe);
}

}  // namespace sdf
