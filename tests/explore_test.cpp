// Tests for the EXPLORE algorithm and its baselines.
//
// The anchor is the paper's case study (§5): the Set-Top box specification
// has exactly six Pareto-optimal implementations —
//   ($100,2) ($120,3) ($230,4) ($290,5) ($360,7) ($430,8)
// with the published resource and cluster sets.  EXPLORE must find exactly
// that front, and the exhaustive baseline must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "explore/allocation_enum.hpp"
#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "explore/uncertain.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "moo/indicators.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

std::string cluster_names(const SpecificationGraph& spec,
                          const Implementation& impl) {
  std::vector<std::string> names;
  for (ClusterId c : impl.leaf_clusters(spec.problem()))
    names.push_back(spec.problem().cluster(c).name);
  return join(names, ", ");
}

// ---- allocation enumeration ------------------------------------------------------

TEST(CostOrderedAllocations, EmitsInNonDecreasingCost) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  CostOrderedAllocations stream(cs);
  double last = -1.0;
  for (int i = 0; i < 500; ++i) {
    const auto a = stream.next();
    ASSERT_TRUE(a.has_value());
    const double cost = cs.allocation_cost(*a);
    EXPECT_GE(cost, last - 1e-9);
    last = cost;
  }
}

TEST(CostOrderedAllocations, EnumeratesEverySubsetOnce) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();  // 7 units
  CostOrderedAllocations stream(spec.compiled());
  std::set<std::string> seen;
  while (const auto a = stream.next()) seen.insert(a->to_string());
  EXPECT_EQ(seen.size(), std::size_t{1} << 7);
}

TEST(CostOrderedAllocations, BranchBoundPrunesSubtrees) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  CostOrderedAllocations stream(spec.compiled());
  stream.set_branch_bound([](const AllocSet&) { return false; });
  std::size_t emitted = 0;
  while (stream.next()) ++emitted;
  EXPECT_EQ(emitted, 1u);  // only the empty set escapes
  EXPECT_GT(stream.pruned(), 0u);
}

/// The stream's original algorithm, kept as the reference for its emission
/// order: one heap-allocated member list per state in a (cost, lex)
/// min-heap, every child pushed when its parent is expanded.  Units of
/// `base` are in every emitted set and are never added.
class ReferenceStream {
 public:
  ReferenceStream(const CompiledSpec& cs, AllocSet base)
      : base_(std::move(base)) {
    for (const AllocUnit& u : cs.units())
      unit_cost_.push_back(base_.test(u.id.index()) ? -1.0 : u.cost);
    heap_.push_back(State{0.0, {}});
  }
  void set_branch_bound(CostOrderedAllocations::BranchBound keep) {
    keep_ = std::move(keep);
  }
  std::optional<AllocSet> next() {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const State state = std::move(heap_.back());
    heap_.pop_back();
    AllocSet set = base_;
    for (std::uint32_t i : state.members) set.set(i);
    const auto units = static_cast<std::uint32_t>(unit_cost_.size());
    const std::uint32_t begin =
        state.members.empty() ? 0 : state.members.back() + 1;
    bool expand = begin < units;
    if (expand && keep_) {
      AllocSet potential = set;
      for (std::uint32_t j = begin; j < units; ++j) potential.set(j);
      expand = keep_(potential);
      pruned_ += expand ? 0 : 1;
    }
    for (std::uint32_t j = begin; expand && j < units; ++j) {
      if (unit_cost_[j] < 0.0) continue;
      State child{state.cost + unit_cost_[j], state.members};
      child.members.push_back(j);
      heap_.push_back(std::move(child));
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    return set;
  }
  [[nodiscard]] std::size_t frontier_size() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t pruned() const { return pruned_; }
  /// The heap's states as plain frontier states.
  [[nodiscard]] EnumFrontier frontier() const {
    EnumFrontier f;
    for (const State& s : heap_) f.push_back(s.members);
    return f;
  }

 private:
  struct State {
    double cost;
    std::vector<std::uint32_t> members;
  };
  static bool later(const State& a, const State& b) {
    return a.cost != b.cost ? a.cost > b.cost : a.members > b.members;
  }
  AllocSet base_;
  std::vector<double> unit_cost_;
  std::vector<State> heap_;
  CostOrderedAllocations::BranchBound keep_;
  std::uint64_t pruned_ = 0;
};

/// A deterministic bound that prunes some subtrees and keeps others.
bool keep_some(const AllocSet& potential) {
  std::size_t h = potential.count();
  potential.for_each([&h](std::size_t i) { h = h * 31 + i; });
  return h % 5 != 0;
}

/// Draws `limit` subsets (or all) from both streams and asserts the same
/// sets in the same order, with the same frontier size and prune count.
/// Three times on the way, the stream under test is replaced by one
/// restored from its cursor, which must continue identically: at emissions
/// 500 and 10,000 from the cursor as it lies, chains included, at 15,000
/// from its written-out states, as a checkpoint file gives them.  Each time
/// the written-out cursor must hold the reference's heap states and, where
/// `one_per_emission`, store at most one state per emission beyond the
/// root.
void expect_same_stream(const CompiledSpec& cs, const AllocSet& base,
                        bool bounded, std::size_t limit,
                        bool one_per_emission = true) {
  ReferenceStream ref(cs, base);
  auto stream = std::make_unique<CostOrderedAllocations>(cs, base);
  if (bounded) {
    ref.set_branch_bound(keep_some);
    stream->set_branch_bound(keep_some);
  }
  for (std::size_t n = 0; n < limit; ++n) {
    if (n == 500 || n == 10000 || n == 15000) {
      EnumCursor cursor = stream->cursor();
      ASSERT_TRUE(cursor.frontier.valid(cs.unit_count())) << "emission " << n;
      ASSERT_TRUE(cursor.frontier.written_out() == ref.frontier())
          << "emission " << n;
      EXPECT_EQ(cursor.frontier.size(), ref.frontier_size())
          << "emission " << n;
      if (one_per_emission) {
        EXPECT_LE(cursor.frontier.states.size(), cursor.emitted + 1)
            << "emission " << n;
      }
      if (n == 15000) cursor.frontier = cursor.frontier.written_out();
      auto restored = std::make_unique<CostOrderedAllocations>(cs, base);
      restored->restore(cursor);
      if (bounded) restored->set_branch_bound(keep_some);
      stream = std::move(restored);
    }
    const std::optional<AllocSet> want = ref.next();
    const std::optional<AllocSet> got = stream->next();
    ASSERT_EQ(got.has_value(), want.has_value()) << "emission " << n;
    if (!want.has_value()) return;
    ASSERT_TRUE(*got == *want) << "emission " << n << ": " << got->to_string()
                               << " vs " << want->to_string();
    ASSERT_EQ(stream->frontier_size(), ref.frontier_size()) << "emission " << n;
    ASSERT_EQ(stream->pruned(), ref.pruned()) << "emission " << n;
  }
}

/// A spec of resources at `costs`, one process mapped to the first.
SpecificationGraph priced_units(const std::string& name,
                                const std::vector<double>& costs) {
  SpecBuilder b(name);
  const NodeId p = b.process("p");
  std::vector<NodeId> units;
  for (std::size_t i = 0; i < costs.size(); ++i)
    units.push_back(b.resource("r" + std::to_string(i), costs[i]));
  b.map(p, units.front(), 1.0);
  return b.build();
}

TEST(CostOrderedAllocations, EmissionOrderMatchesReferenceStream) {
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  ASSERT_TRUE(nested.ok()) << nested.error().message;
  const SpecificationGraph nested_s = generate_preset(PlatformPreset::kNestedS, 1);
  // Zero-cost and equal-cost units, out of index order: the chains' sibling
  // order breaks cost ties by index.
  const SpecificationGraph ties = priced_units(
      "ties", {2, 0, 1, 2, 0, 3, 1, 2, 0, 3, 1, 1, 2, 0});
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  const std::pair<const SpecificationGraph*, std::size_t> cases[] = {
      {&settop(), kAll}, {&nested.value(), kAll}, {&nested_s, 20000},
      {&ties, kAll}};
  for (const auto& [spec, limit] : cases) {
    for (const bool bounded : {false, true}) {
      SCOPED_TRACE(spec->name() + (bounded ? " bounded" : ""));
      expect_same_stream(spec->compiled(), spec->make_alloc_set(), bounded,
                         limit);
    }
  }
  // A frozen base: its units are in every set and never added.
  const CompiledSpec& cs = nested.value().compiled();
  AllocSet base = cs.make_alloc_set();
  for (const std::size_t i : {0, 3, 4, 11}) base.set(i);
  for (const bool bounded : {false, true}) {
    SCOPED_TRACE(std::string("nested with a base") +
                 (bounded ? " bounded" : ""));
    expect_same_stream(cs, base, bounded, kAll);
  }
  // Rounding: next to a run of cost 1e17, units of cost 1, 2 and 3 all add
  // up to 1e17, and among equal sums the stream goes by index, against the
  // chains' (cost, index) order.  Those siblings are stored one by one, so
  // a state may add more than one heap entry here.
  const SpecificationGraph rounding =
      priced_units("rounding", {1e17, 3, 2, 1, 0, 2, 1, 1e17, 3, 1, 2, 0});
  for (const bool bounded : {false, true}) {
    SCOPED_TRACE(std::string("rounding") + (bounded ? " bounded" : ""));
    expect_same_stream(rounding.compiled(), rounding.make_alloc_set(),
                       bounded, kAll, /*one_per_emission=*/false);
  }
  // Ties that agree beyond the heap entries' tie key: 15 units make 4-bit
  // digits and a key of six members, and with nearly every unit at one
  // price, sets of one size tie and often share six or more leading
  // members, which only the prefix runs tell apart.
  const SpecificationGraph deep_ties = priced_units(
      "deep ties", {1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1});
  // A key of two digits: nested-m's 337 units make 9-bit digits.
  const SpecificationGraph nested_m =
      generate_preset(PlatformPreset::kNestedM, 1);
  for (const auto& [spec, limit] : {std::pair{&deep_ties, kAll},
                                    std::pair{&nested_m, std::size_t{20000}}}) {
    for (const bool bounded : {false, true}) {
      SCOPED_TRACE(spec->name() + (bounded ? " bounded" : ""));
      expect_same_stream(spec->compiled(), spec->make_alloc_set(), bounded,
                         limit);
    }
  }
}

TEST(CostOrderedAllocations, NextWritesIntoDefaultAndMovedFromSets) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  CostOrderedAllocations stream(cs);
  CostOrderedAllocations twin(cs);
  AllocSet fresh;
  ASSERT_TRUE(stream.next(fresh));
  std::optional<AllocSet> want = twin.next();
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(fresh == *want);
  EXPECT_EQ(fresh.size(), cs.unit_count());

  AllocSet reused = spec.make_alloc_set();
  reused.set(3);
  const AllocSet elsewhere = std::move(reused);
  EXPECT_TRUE(elsewhere.test(3));
  // The first call writes into the moved-from set, every later one over
  // the previous subset.
  while (true) {
    const bool got = stream.next(reused);
    want = twin.next();
    ASSERT_EQ(got, want.has_value());
    if (!got) break;
    ASSERT_TRUE(reused == *want) << reused.to_string() << " vs "
                                 << want->to_string();
  }
  EXPECT_EQ(stream.emitted(), std::uint64_t{1} << cs.unit_count());
}

TEST(CostOrderedAllocations, TakeCursorMovesTheFrontierOut) {
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  ASSERT_TRUE(nested.ok()) << nested.error().message;
  const CompiledSpec& cs = nested.value().compiled();
  CostOrderedAllocations stream(cs);
  CostOrderedAllocations twin(cs);
  stream.set_branch_bound(keep_some);
  twin.set_branch_bound(keep_some);
  AllocSet out;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(stream.next(out));
    ASSERT_TRUE(twin.next(out));
  }
  const EnumCursor copy = stream.cursor();
  const std::size_t frontier = stream.frontier_size();
  const EnumCursor taken = stream.take_cursor();
  EXPECT_TRUE(taken.frontier == copy.frontier);
  EXPECT_EQ(taken.frontier.words, copy.frontier.words);
  EXPECT_EQ(taken.frontier.order, copy.frontier.order);
  ASSERT_EQ(taken.frontier.states.size(), copy.frontier.states.size());
  for (std::size_t i = 0; i < copy.frontier.states.size(); ++i) {
    EXPECT_EQ(taken.frontier.states[i].prefix, copy.frontier.states[i].prefix);
    EXPECT_EQ(taken.frontier.states[i].last, copy.frontier.states[i].last);
  }
  EXPECT_EQ(taken.emitted, copy.emitted);
  EXPECT_EQ(taken.pruned, copy.pruned);
  EXPECT_FALSE(stream.next(out));
  EXPECT_EQ(stream.frontier_size(), 0u);

  // A stream restored from the taken cursor continues as the twin does.
  CostOrderedAllocations restored(cs);
  restored.restore(taken);
  restored.set_branch_bound(keep_some);
  EXPECT_EQ(restored.frontier_size(), frontier);
  AllocSet want;
  for (std::size_t n = 0;; ++n) {
    const bool got = restored.next(out);
    ASSERT_EQ(got, twin.next(want)) << "emission " << n;
    if (!got) break;
    ASSERT_TRUE(out == want) << "emission " << n;
    ASSERT_EQ(restored.frontier_size(), twin.frontier_size());
    ASSERT_EQ(restored.pruned(), twin.pruned());
  }
  EXPECT_EQ(restored.emitted(), twin.emitted());
}

TEST(CostOrderedAllocations, RestoreWritesOutChainsOfAnotherOrder) {
  // A chain head stands for the siblings after it in its frontier's own
  // order, so a stream must not continue it on a different sibling order.
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  ASSERT_TRUE(nested.ok()) << nested.error().message;
  const CompiledSpec& cs = nested.value().compiled();
  CostOrderedAllocations stream(cs);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(stream.next().has_value());
  EnumCursor cursor = stream.cursor();
  std::reverse(cursor.frontier.order.begin(), cursor.frontier.order.end());
  ASSERT_TRUE(cursor.frontier.valid(cs.unit_count()));
  const EnumFrontier want = cursor.frontier.written_out();
  ASSERT_FALSE(want == stream.cursor().frontier);

  CostOrderedAllocations restored(cs);
  restored.restore(cursor);
  EXPECT_EQ(restored.frontier_size(), want.states.size());
  EXPECT_TRUE(restored.cursor().frontier == want);
}

TEST(ObviouslyDominated, DanglingBusAndUselessUnit) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const DominanceContext ctx(cs);
  const auto dominated = [&](std::initializer_list<const char*> names) {
    AllocSet a = cs.make_alloc_set();
    for (const char* n : names) a.set(spec.find_unit(n).index());
    return obviously_dominated(cs, ctx, a);
  };
  // C1 connects uP2 and the FPGA: with only uP2 allocated it dangles.
  EXPECT_TRUE(dominated({"uP2", "C1"}));
  EXPECT_FALSE(dominated({"uP2", "G1", "C1"}));
  // C2 (uP2-A1) dangles without A1.
  EXPECT_TRUE(dominated({"uP2", "G1", "C1", "C2"}));
  EXPECT_FALSE(dominated({"uP2", "A1", "C2"}));
  EXPECT_FALSE(dominated({"uP2"}));
}

/// The §5 filter as written before its word-parallel form, kept as the
/// reference: the top nodes hosting an allocated functional unit, then each
/// judged unit on its own.
bool reference_dominated(const CompiledSpec& cs, const AllocSet& alloc,
                         const AllocSet* scope) {
  const auto& units = cs.units();
  DynBitset functional_tops(cs.architecture().node_count());
  alloc.for_each([&](std::size_t i) {
    if (!units[i].is_comm) functional_tops.set(units[i].top.index());
  });
  bool dominated = false;
  alloc.for_each([&](std::size_t i) {
    if (dominated) return;
    if (scope != nullptr && !scope->test(i)) return;
    if (units[i].is_comm) {
      std::size_t endpoints = 0;
      for (NodeId other : cs.comm_neighbor_tops(AllocUnitId{i}))
        if (functional_tops.test(other.index())) ++endpoints;
      if (endpoints < 2) dominated = true;
    } else if (!cs.mappable_units().test(i)) {
      dominated = true;
    }
  });
  return dominated;
}

TEST(ObviouslyDominated, MatchesReferenceFilterOnRandomAllocations) {
  Result<SpecificationGraph> nested =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/nested.json");
  ASSERT_TRUE(nested.ok()) << nested.error().message;
  const SpecificationGraph decoder = models::make_tv_decoder_spec();
  const SpecificationGraph nested_s =
      generate_preset(PlatformPreset::kNestedS, 1);
  const SpecificationGraph baseband =
      generate_preset(PlatformPreset::kBasebandDsp, 3);
  // Units no process maps to: every resource but the first.
  const SpecificationGraph unmappable =
      priced_units("unmappable", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Rng rng(24);
  for (const SpecificationGraph* spec :
       std::array<const SpecificationGraph*, 6>{&settop(), &decoder,
                                                &nested.value(), &nested_s,
                                                &baseband, &unmappable}) {
    SCOPED_TRACE(spec->name());
    const CompiledSpec& cs = spec->compiled();
    const DominanceContext ctx(cs);
    std::size_t verdicts[2][2] = {};  // [scoped][dominated]
    for (int trial = 0; trial < 4000; ++trial) {
      // Sparse and dense draws: a sparse one rarely holds a bus, a dense
      // one rarely leaves one dangling.
      const double density = std::array{0.03, 0.1, 0.3, 0.7}[trial % 4];
      AllocSet alloc = cs.make_alloc_set();
      AllocSet scope = cs.make_alloc_set();
      for (std::size_t i = 0; i < cs.unit_count(); ++i) {
        if (rng.chance(density)) alloc.set(i);
        if (rng.chance(0.5)) scope.set(i);
      }
      const AllocSet* judged = trial % 3 == 0 ? &scope : nullptr;
      const bool want = reference_dominated(cs, alloc, judged);
      ASSERT_EQ(obviously_dominated(cs, ctx, alloc, judged), want)
          << "trial " << trial << (judged != nullptr ? " scoped " : " ")
          << alloc.to_string();
      ++verdicts[judged != nullptr ? 1 : 0][want ? 1 : 0];
    }
    for (const auto& scoped : verdicts) {
      EXPECT_GT(scoped[0], 0u);
      EXPECT_GT(scoped[1], 0u);
    }
  }
}

TEST(EnumeratePossibleAllocations, DecoderListStartsLikeThePaper) {
  // §4's example list A starts with the bare processor and grows by cheap
  // additions; every element must admit a complete problem activation.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const CompiledSpec& cs = spec.compiled();
  const auto pras = enumerate_possible_allocations(cs);
  ASSERT_FALSE(pras.empty());
  // Cheapest possible allocation: uP alone (every interface coverable).
  EXPECT_EQ(spec.allocation_names(pras.front()), "uP");
  // All contain a unit covering Pa/Pc (the uP).
  for (const AllocSet& a : pras)
    EXPECT_TRUE(a.test(spec.find_unit("uP").index()));
  // Ascending cost.
  double last = 0.0;
  for (const AllocSet& a : pras) {
    const double c = cs.allocation_cost(a);
    EXPECT_GE(c, last - 1e-9);
    last = c;
  }
  // The filter removes dangling-bus variants and shrinks the list.
  const auto filtered = enumerate_possible_allocations(cs, true);
  EXPECT_LT(filtered.size(), pras.size());
}

// ---- EXPLORE on the case study -----------------------------------------------------

TEST(Explore, ReproducesPaperParetoFront) {
  const SpecificationGraph& spec = settop();
  const ExploreResult result = explore(spec);

  EXPECT_EQ(result.max_flexibility, 8.0);
  const auto& expected = models::settop_expected_front();
  ASSERT_EQ(result.front.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(strprintf("row %zu", i + 1));
    EXPECT_EQ(result.front[i].cost, expected[i].cost);
    EXPECT_EQ(result.front[i].flexibility, expected[i].flexibility);
    EXPECT_EQ(spec.allocation_names(result.front[i].units),
              expected[i].resources);
    EXPECT_EQ(cluster_names(spec, result.front[i]), expected[i].clusters);
  }
}

TEST(Explore, StatsShowMassivePruning) {
  const SpecificationGraph& spec = settop();
  const ExploreResult result = explore(spec);
  const ExploreStats& s = result.stats;

  EXPECT_EQ(s.universe, 13u);
  EXPECT_EQ(s.raw_design_points, std::pow(2.0, 13.0));
  // The §5 shape: only a tiny fraction of the raw space reaches the solver.
  EXPECT_GT(s.candidates_generated, 0u);
  EXPECT_GT(s.possible_allocations, 0u);
  EXPECT_LT(static_cast<double>(s.implementation_attempts),
            0.05 * s.raw_design_points);
  EXPECT_LE(s.implementation_attempts, s.possible_allocations);
  EXPECT_GE(s.flexibility_estimations, s.possible_allocations);
  EXPECT_GT(s.solver_calls, 0u);
  // Early termination: the stream was not exhausted.
  EXPECT_FALSE(s.exhausted);
}

TEST(Explore, MatchesExhaustiveBaseline) {
  const SpecificationGraph& spec = settop();
  const ExploreResult fast = explore(spec);
  const ExhaustiveResult brute = explore_exhaustive(spec);

  ASSERT_EQ(fast.front.size(), brute.front.size());
  for (std::size_t i = 0; i < fast.front.size(); ++i) {
    EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
    EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
  }
  // And EXPLORE attempts far fewer implementations.
  EXPECT_LT(fast.stats.implementation_attempts,
            brute.stats.implementation_attempts / 5);
}

TEST(Explore, TradeoffCurveUsesReciprocalFlexibility) {
  const ExploreResult result = explore(settop());
  const auto curve = result.tradeoff_curve();
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve.front().x, 100.0);
  EXPECT_EQ(curve.front().y, 0.5);
  EXPECT_EQ(curve.back().x, 430.0);
  EXPECT_EQ(curve.back().y, 0.125);
  // Strictly decreasing 1/f along ascending cost: a valid Pareto front.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].x, curve[i - 1].x);
    EXPECT_LT(curve[i].y, curve[i - 1].y);
  }
}

TEST(Explore, AblationWithoutFlexibilityBound) {
  // Disabling the estimate bound must not change the front, only the work.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.use_flexibility_bound = false;
  const ExploreResult ablated = explore(spec, options);
  const ExploreResult normal = explore(spec);
  ASSERT_EQ(ablated.front.size(), normal.front.size());
  for (std::size_t i = 0; i < normal.front.size(); ++i)
    EXPECT_EQ(ablated.front[i].cost, normal.front[i].cost);
  EXPECT_GT(ablated.stats.implementation_attempts,
            normal.stats.implementation_attempts);
}

TEST(Explore, AblationWithoutDominanceFilter) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.prune_dominated_allocations = false;
  const ExploreResult ablated = explore(spec, options);
  ASSERT_EQ(ablated.front.size(), 6u);
  EXPECT_EQ(ablated.front.back().flexibility, 8.0);
  EXPECT_EQ(ablated.stats.dominated_skipped, 0u);
}

TEST(Explore, AblationWithoutBranchBound) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.use_branch_bound = false;
  const ExploreResult ablated = explore(spec, options);
  ASSERT_EQ(ablated.front.size(), 6u);
  EXPECT_EQ(ablated.stats.branches_pruned, 0u);
}

TEST(Explore, DecoderSpecFront) {
  // The Fig. 2 decoder has no game/browser alternatives: max flexibility is
  // (3 + 2) - 1 = 4 and the front ends there.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const ExploreResult result = explore(spec);
  EXPECT_EQ(result.max_flexibility, 4.0);
  ASSERT_FALSE(result.front.empty());
  EXPECT_EQ(result.front.back().flexibility, 4.0);
  // Cheapest point: the bare uP implements gD1/gU1 -> f = 1.
  EXPECT_EQ(result.front.front().cost, 50.0);
  EXPECT_EQ(result.front.front().flexibility, 1.0);
  // Strictly improving front.
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_GT(result.front[i].cost, result.front[i - 1].cost);
    EXPECT_GT(result.front[i].flexibility, result.front[i - 1].flexibility);
  }
}

TEST(Explore, CollectEquivalentsFindsAlternativeAllocations) {
  // §5's Pareto table lists one allocation per point, but the $230 / f=4
  // point has equal-cost alternatives ({uP2, U2, D3, C1} also implements
  // f=4 at $230).  collect_equivalents surfaces them.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult result = explore(spec, options);

  // The primary front is unchanged.
  ASSERT_EQ(result.front.size(), 6u);
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    EXPECT_EQ(result.front[i].cost,
              models::settop_expected_front()[i].cost);
    EXPECT_EQ(result.front[i].flexibility,
              models::settop_expected_front()[i].flexibility);
  }

  // The $230/f=4 point has at least one equivalent allocation.
  const Implementation& row3 = result.front[2];
  ASSERT_FALSE(row3.equivalents.empty());
  for (const Implementation& eq : row3.equivalents) {
    EXPECT_EQ(eq.cost, row3.cost);
    EXPECT_EQ(eq.flexibility, row3.flexibility);
    EXPECT_FALSE(eq.units == row3.units);
  }
  bool found_u2d3 = false;
  for (const Implementation& eq : row3.equivalents)
    if (spec.allocation_names(eq.units) == "uP2, C1, U2, D3")
      found_u2d3 = true;
  EXPECT_TRUE(found_u2d3);

  // Without the flag, no equivalents are collected.
  const ExploreResult plain = explore(spec);
  for (const Implementation& impl : plain.front)
    EXPECT_TRUE(impl.equivalents.empty());

  // The branch bound must not eat equivalent points: disabling it finds
  // the same equivalents.
  ExploreOptions no_bb = options;
  no_bb.use_branch_bound = false;
  const ExploreResult reference = explore(spec, no_bb);
  ASSERT_EQ(reference.front.size(), result.front.size());
  for (std::size_t i = 0; i < result.front.size(); ++i)
    EXPECT_EQ(result.front[i].equivalents.size(),
              reference.front[i].equivalents.size())
        << "row " << i;
}

TEST(Explore, MaxCandidatesCapStopsEarly) {
  // The run budget's allocation cap is the candidate cap.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.budget.max_allocations = 10;
  const ExploreResult result = explore(spec, options);
  EXPECT_EQ(result.stats.candidates_generated, 10u);
  // The cap ended the run, not a dry stream.
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocations);
  EXPECT_FALSE(result.stats.exhausted);
  EXPECT_GT(result.stats.frontier_remaining, 0u);
}

// ---- the activation limit ------------------------------------------------------

/// `interfaces` root interfaces, each with two one-process alternatives;
/// every process maps onto a $10 uP and a $20 uP2, and no timing applies.
/// Any allocation activates 2^interfaces elementary cluster activations.
/// With `split`, p0_1 maps on uP2 alone, so {uP} activates half of them.
SpecificationGraph wide_spec(std::size_t interfaces, bool split = false) {
  SpecBuilder b("wide" + std::to_string(interfaces));
  const NodeId up = b.resource("uP", 10.0);
  const NodeId up2 = b.resource("uP2", 20.0);
  for (std::size_t i = 0; i < interfaces; ++i) {
    const NodeId iface = b.interface("I" + std::to_string(i));
    for (int a = 0; a < 2; ++a) {
      const std::string tag = std::to_string(i) + "_" + std::to_string(a);
      const NodeId p = b.process("p" + tag, b.alternative(iface, "g" + tag));
      if (!split || tag != "0_1") b.map(p, up, 1.0);
      b.map(p, up2, 1.0);
    }
  }
  return b.build();
}

/// Thirteen two-alternative interfaces W0–W12 and one six-alternative
/// interface J, one process per alternative, no timing.  The $10 uA maps
/// the first alternative of every W, the second of W0–W7 and all of J:
/// 2^8 · 6 = 1,536 activations, f = 14.  The equally cheap uB maps every W
/// alternative and J's first: 8,192 activations, estimate 14.  Together
/// they admit 49,152, estimate 19.
SpecificationGraph shadowed_spec() {
  SpecBuilder b("shadowed");
  const NodeId ua = b.resource("uA", 10.0);
  const NodeId ub = b.resource("uB", 10.0);
  for (int i = 0; i < 13; ++i) {
    const NodeId iface = b.interface("W" + std::to_string(i));
    for (int a = 0; a < 2; ++a) {
      const std::string tag = std::to_string(i) + "_" + std::to_string(a);
      const NodeId p = b.process("w" + tag, b.alternative(iface, "gw" + tag));
      if (a == 0 || i < 8) b.map(p, ua, 1.0);
      b.map(p, ub, 1.0);
    }
  }
  const NodeId j = b.interface("J");
  for (int a = 0; a < 6; ++a) {
    const NodeId p =
        b.process("j" + std::to_string(a), b.alternative(j, "gj" + std::to_string(a)));
    b.map(p, ua, 1.0);
    if (a == 0) b.map(p, ub, 1.0);
  }
  return b.build();
}

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* name : names) a.set(spec.find_unit(name).index());
  return a;
}

bool names_count_and_limit(const std::string& message) {
  return message.find("8192") != std::string::npos &&
         message.find(std::to_string(kEcaLimit)) != std::string::npos;
}

TEST(ActivationLimit, ConstructionAtTheLimitImplementsEveryCluster) {
  ASSERT_EQ(kEcaLimit, 4096u);
  const SpecificationGraph at = wide_spec(12);
  const std::optional<Implementation> impl =
      build_implementation(at.compiled(), alloc_of(at, {"uP"}));
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->ecas.size(), 4096u);
  EXPECT_EQ(impl->flexibility, 13.0);

  // One interface more: refused before any activation is enumerated,
  // where a prefix of 4096 would have judged f = 13 of 14.
  const SpecificationGraph past = wide_spec(13);
  try {
    static_cast<void>(
        build_implementation(past.compiled(), alloc_of(past, {"uP"})));
    ADD_FAILURE() << "an allocation past the limit was constructed";
  } catch (const std::length_error& e) {
    EXPECT_TRUE(names_count_and_limit(e.what())) << e.what();
  }
  EXPECT_EQ(past.compiled().prepared_entries(), 0u);
}

TEST(ActivationLimit, ExploreIsExactAtTheLimitAndRefusesPastIt) {
  const ExploreResult exact = explore(wide_spec(12));
  ASSERT_TRUE(exact.status.ok()) << exact.status.error().message;
  ASSERT_EQ(exact.front.size(), 1u);
  EXPECT_EQ(exact.front.front().cost, 10.0);
  EXPECT_EQ(exact.front.front().flexibility, 13.0);
  EXPECT_EQ(exact.max_flexibility, 13.0);

  const SpecificationGraph past = wide_spec(13);
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExploreOptions options;
    options.num_threads = threads;
    const ExploreResult refused = explore(past, options);
    ASSERT_FALSE(refused.status.ok());
    EXPECT_TRUE(names_count_and_limit(refused.status.error().message))
        << refused.status.error().message;
    EXPECT_EQ(refused.stats.stop_reason, StopReason::kWorkerError);
    EXPECT_TRUE(refused.front.empty());
    EXPECT_EQ(refused.max_flexibility, 14.0);
    // Nothing below the refused $10 candidate was left unexamined.
    EXPECT_EQ(refused.stats.exact_up_to_cost, 10.0);
    EXPECT_TRUE(refused.checkpoint.has_value());
  }
}

TEST(ActivationLimit, RefusalIsTheSameAtEveryThreadCount) {
  // p0_1 maps on uP2 alone: {uP} admits 4,096 activations and implements
  // f = 13 exactly; {uP2} and {uP, uP2} admit 8,192.  One thread refuses
  // {uP2} at $20.  A band pool evaluates all three candidates at once, and
  // must stop at the same one.
  const SpecificationGraph spec = wide_spec(13, true);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExploreOptions options;
    options.num_threads = threads;
    const ExploreResult r = explore(spec, options);
    ASSERT_FALSE(r.status.ok());
    const std::string& message = r.status.error().message;
    EXPECT_NE(message.find("{uP2}"), std::string::npos) << message;
    EXPECT_TRUE(names_count_and_limit(message)) << message;
    EXPECT_EQ(r.stats.stop_reason, StopReason::kWorkerError);
    ASSERT_EQ(r.front.size(), 1u);
    EXPECT_EQ(r.front.front().cost, 10.0);
    EXPECT_EQ(r.front.front().flexibility, 13.0);
    EXPECT_EQ(r.stats.exact_up_to_cost, 20.0);
  }
}

TEST(ActivationLimit, ACandidateTheBoundSkipsIsNotRefused) {
  const SpecificationGraph spec = shadowed_spec();
  for (const bool equivalents : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("equivalents " + std::to_string(equivalents) +
                   " threads " + std::to_string(threads));
      ExploreOptions options;
      options.collect_equivalents = equivalents;
      options.num_threads = threads;
      const ExploreResult r = explore(spec, options);
      ASSERT_FALSE(r.status.ok());
      const std::string& message = r.status.error().message;
      EXPECT_EQ(r.stats.stop_reason, StopReason::kWorkerError);
      ASSERT_EQ(r.front.size(), 1u);
      EXPECT_EQ(r.front.front().cost, 10.0);
      EXPECT_EQ(r.front.front().flexibility, 14.0);
      if (!equivalents) {
        // {uA}'s f = 14 bounds {uB} (estimate 14) away unconstructed; the
        // run stops at {uA, uB}.  A pool attempts {uB} beside {uA}, since a
        // level's own bound never skips a tie, and the merge skips it.
        EXPECT_NE(message.find("{uA, uB}"), std::string::npos) << message;
        EXPECT_NE(message.find("49152"), std::string::npos) << message;
        EXPECT_EQ(r.stats.exact_up_to_cost, 20.0);
      } else {
        // A tie may be an equivalent, so {uB} is attempted, and refused.
        EXPECT_NE(message.find("{uB}"), std::string::npos) << message;
        EXPECT_EQ(r.stats.exact_up_to_cost, 10.0);
      }
    }
  }
}

TEST(ActivationLimit, UpgradeBaselinePastTheLimitFailsThroughStatus) {
  const SpecificationGraph past = wide_spec(13);
  const UpgradeResult r = explore_upgrades(past, alloc_of(past, {"uP"}));
  ASSERT_FALSE(r.status.ok());
  EXPECT_TRUE(names_count_and_limit(r.status.error().message))
      << r.status.error().message;
  EXPECT_TRUE(r.front.empty());
}

TEST(ActivationLimit, ResumeRefusesAForgedFrontPointPastTheLimit) {
  const SpecificationGraph past = wide_spec(13);
  const ExploreResult refused = explore(past);
  ASSERT_TRUE(refused.checkpoint.has_value());
  ExploreCheckpoint forged = *refused.checkpoint;
  forged.front.push_back(ExploreCheckpoint::FrontEntry{
      {static_cast<std::uint32_t>(past.find_unit("uP").index())}, {}});
  ExploreOptions options;
  options.resume = &forged;
  const ExploreResult resumed = explore(past, options);
  ASSERT_FALSE(resumed.status.ok());
  EXPECT_NE(resumed.status.error().message.find("front point"),
            std::string::npos);
  EXPECT_TRUE(names_count_and_limit(resumed.status.error().message))
      << resumed.status.error().message;
}

TEST(Explore, IndexBuildTimeCoversTheColdCompile) {
  // A cold spec compiles inside the timer that `index_build_seconds`
  // reads; a warm one only revalidates its index (about 3 ms against 1 us
  // on this spec).
  const SpecificationGraph spec = generate_preset(PlatformPreset::kNestedM, 1);
  ExploreOptions options;
  options.budget.max_allocations = 1;
  const double cold = explore(spec, options).stats.index_build_seconds;
  double warm = cold;
  for (int i = 0; i < 3; ++i)
    warm = std::min(warm, explore(spec, options).stats.index_build_seconds);
  EXPECT_GT(cold, 10 * warm);
}

TEST(Explore, ExhaustedFlagSemantics) {
  const SpecificationGraph& spec = settop();
  // Early stop at maximal flexibility: not exhausted.
  const ExploreResult early = explore(spec);
  EXPECT_FALSE(early.stats.exhausted);
  // Forcing a full walk: exhausted.
  ExploreOptions full;
  full.stop_at_max_flexibility = false;
  const ExploreResult walked = explore(spec, full);
  EXPECT_TRUE(walked.stats.exhausted);
  EXPECT_GE(walked.stats.candidates_generated,
            early.stats.candidates_generated);
  // The front is the same either way.
  ASSERT_EQ(walked.front.size(), early.front.size());
  for (std::size_t i = 0; i < walked.front.size(); ++i)
    EXPECT_EQ(walked.front[i].cost, early.front[i].cost);
}

TEST(Explore, BudgetAbandonedIsCountedNotReportedInfeasible) {
  // An allocation whose evaluation the run budget aborts mid-solve has an
  // *unknown* outcome: it must show up in `budget_abandoned`, and its
  // attempt/solver charges must be rolled back — as if it had never been
  // touched — rather than being silently filed as infeasible.
  const SpecificationGraph& spec = settop();
  ExploreOptions full;
  full.stop_at_max_flexibility = false;
  const ExploreResult reference = explore(spec, full);
  ASSERT_GT(reference.stats.solver_nodes, 4u);

  ExploreOptions budgeted = full;
  budgeted.budget.max_solver_nodes = reference.stats.solver_nodes / 2;
  const ExploreResult partial = explore(spec, budgeted);
  ASSERT_TRUE(partial.status.ok());
  EXPECT_EQ(partial.stats.stop_reason, StopReason::kSolverNodes);
  EXPECT_EQ(partial.stats.budget_abandoned, 1u);
  // Rolled back: no dangling attempt for the abandoned candidate, so
  // attempts seen so far are a strict subset of the uninterrupted run's.
  EXPECT_LT(partial.stats.implementation_attempts,
            reference.stats.implementation_attempts);
  // The abandoned allocation is carried in the checkpoint for resumption —
  // the opposite of being discarded as infeasible.
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_FALSE(partial.checkpoint->pending.empty());
}

TEST(UncertainVsCrisp, StatsComparable) {
  // The uncertain explorer at zero uncertainty does the same amount of
  // PRA work as the crisp one (its stopping rule is interval-based but
  // collapses to the crisp rule).
  const SpecificationGraph& spec = settop();
  const UncertainExploreResult u = explore_uncertain(spec);
  EXPECT_GT(u.stats.possible_allocations, 0u);
  EXPECT_EQ(u.max_flexibility, 8.0);
}

// ---- evolutionary baseline ---------------------------------------------------------

TEST(Evolutionary, FindsFeasiblePointsOnCaseStudy) {
  const SpecificationGraph& spec = settop();
  EaOptions options;
  options.seed = 42;
  options.population = 24;
  options.generations = 20;
  const EaResult result = explore_evolutionary(spec, options);
  ASSERT_FALSE(result.front.empty());
  EXPECT_GT(result.stats.evaluations, 0u);
  EXPECT_GT(result.stats.feasible_evaluations, 0u);
  // Archive is mutually non-dominated and sorted by cost.
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_GE(result.front[i].cost, result.front[i - 1].cost);
    EXPECT_GT(result.front[i].flexibility, result.front[i - 1].flexibility);
  }
  // Every EA point is weakly dominated by the exact front (no EA point can
  // beat a complete exact front).
  const ExploreResult exact = explore(spec);
  for (const Implementation& impl : result.front) {
    bool covered = false;
    for (const Implementation& e : exact.front)
      if (e.cost <= impl.cost && e.flexibility >= impl.flexibility)
        covered = true;
    EXPECT_TRUE(covered) << impl.cost << " f=" << impl.flexibility;
  }
}

TEST(Evolutionary, DeterministicForSeed) {
  const SpecificationGraph& spec = settop();
  EaOptions options;
  options.seed = 7;
  options.population = 16;
  options.generations = 10;
  const EaResult a = explore_evolutionary(spec, options);
  const EaResult b = explore_evolutionary(spec, options);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
  }
}

// ---- synthetic specifications -------------------------------------------------------

TEST(Explore, SyntheticSpecAgreesWithExhaustive) {
  GeneratorParams params;
  params.seed = 5;
  params.applications = 2;
  params.processors = 2;
  params.accelerators = 1;
  params.fpga_configs = 1;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());
  ASSERT_LE(spec.alloc_units().size(), 16u);

  const ExploreResult fast = explore(spec);
  const ExhaustiveResult brute = explore_exhaustive(spec);
  ASSERT_EQ(fast.front.size(), brute.front.size());
  for (std::size_t i = 0; i < fast.front.size(); ++i) {
    EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
    EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
  }
}

class ExploreSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExploreSeedSweep, FrontIsValidAndMatchesExhaustive) {
  GeneratorParams params;
  params.seed = GetParam();
  params.applications = 2;
  params.processors = 2;
  params.accelerators = 1;
  params.fpga_configs = 1;
  params.interfaces_per_app_max = 1;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());

  const ExploreResult fast = explore(spec);
  // Property 1: strictly improving (cost, flexibility) along the front.
  for (std::size_t i = 1; i < fast.front.size(); ++i) {
    EXPECT_GT(fast.front[i].cost, fast.front[i - 1].cost);
    EXPECT_GT(fast.front[i].flexibility, fast.front[i - 1].flexibility);
  }
  // Property 2: flexibility never exceeds the specification maximum.
  for (const Implementation& impl : fast.front)
    EXPECT_LE(impl.flexibility, fast.max_flexibility);
  // Property 3: exact agreement with brute force when tractable.
  if (spec.alloc_units().size() <= 14) {
    const ExhaustiveResult brute = explore_exhaustive(spec);
    ASSERT_EQ(fast.front.size(), brute.front.size());
    for (std::size_t i = 0; i < fast.front.size(); ++i) {
      EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
      EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExploreSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---- priced configurable devices ------------------------------------------

/// `spec` with its FPGA device priced `price`: `allocation_cost` charges it
/// once, with the first configuration an allocation holds.
SpecificationGraph with_fpga_price(SpecificationGraph spec, double price) {
  HierarchicalGraph& arch = spec.architecture();
  arch.set_attr(arch.find_node("FPGA"), attr::kCost, price);
  return spec;
}

std::vector<std::pair<double, double>> cost_flex(
    const std::vector<Implementation>& front) {
  std::vector<std::pair<double, double>> out;
  for (const Implementation& impl : front)
    out.emplace_back(impl.cost, impl.flexibility);
  return out;
}

class PricedDevice : public ::testing::TestWithParam<double> {};

// The stream emits every subset once, in allocation-cost order, whatever
// the device costs; EXPLORE's front then equals the brute-force one.
TEST_P(PricedDevice, StreamIsCostOrderedAndFrontMatchesExhaustive) {
  for (const SpecificationGraph& paper :
       {models::make_settop_spec(), models::make_tv_decoder_spec()}) {
    const SpecificationGraph spec = with_fpga_price(paper, GetParam());
    const CompiledSpec& cs = spec.compiled();
    CostOrderedAllocations stream(cs);
    AllocSet alloc;
    double last = 0.0;
    std::uint64_t emitted = 0;
    while (stream.next(alloc)) {
      const double cost = cs.allocation_cost(alloc);
      EXPECT_LE(last, cost) << spec.allocation_names(alloc);
      last = cost;
      ++emitted;
    }
    EXPECT_EQ(emitted, std::uint64_t{1} << cs.unit_count()) << spec.name();
    EXPECT_EQ(cost_flex(explore(spec).front),
              cost_flex(explore_exhaustive(spec).front))
        << spec.name() << " with the FPGA priced " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Prices, PricedDevice,
                         ::testing::Values(0.0, 100.0, 300.0, 1000.0));

// A stream cut anywhere restores to the same continuation: the restored
// costs, device charges included, are the ones the live stream summed.
TEST(PricedDevice, RestoredStreamContinuesIdentically) {
  const SpecificationGraph spec =
      with_fpga_price(models::make_settop_spec(), 300.0);
  const CompiledSpec& cs = spec.compiled();
  for (const std::uint64_t cut : {1, 7, 50, 400}) {
    CostOrderedAllocations live(cs);
    AllocSet a;
    for (std::uint64_t i = 0; i < cut; ++i) ASSERT_TRUE(live.next(a));
    CostOrderedAllocations restored(cs);
    restored.restore(live.cursor());
    AllocSet b;
    while (live.next(a)) {
      ASSERT_TRUE(restored.next(b));
      ASSERT_EQ(a, b) << "cut " << cut;
    }
    EXPECT_FALSE(restored.next(b));
  }
}

}  // namespace
}  // namespace sdf
