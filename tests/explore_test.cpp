// Tests for the EXPLORE algorithm and its baselines.
//
// The anchor is the paper's case study (§5): the Set-Top box specification
// has exactly six Pareto-optimal implementations —
//   ($100,2) ($120,3) ($230,4) ($290,5) ($360,7) ($430,8)
// with the published resource and cluster sets.  EXPLORE must find exactly
// that front, and the exhaustive baseline must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "explore/allocation_enum.hpp"
#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "explore/explorer.hpp"
#include "explore/uncertain.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "moo/indicators.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
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
  CostOrderedAllocations stream(spec);
  double last = -1.0;
  for (int i = 0; i < 500; ++i) {
    const auto a = stream.next();
    ASSERT_TRUE(a.has_value());
    const double cost = spec.allocation_cost(*a);
    EXPECT_GE(cost, last - 1e-9);
    last = cost;
  }
}

TEST(CostOrderedAllocations, EnumeratesEverySubsetOnce) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();  // 7 units
  CostOrderedAllocations stream(spec);
  std::set<std::string> seen;
  while (const auto a = stream.next()) seen.insert(a->to_string());
  EXPECT_EQ(seen.size(), std::size_t{1} << 7);
}

TEST(CostOrderedAllocations, BranchBoundPrunesSubtrees) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  CostOrderedAllocations stream(spec);
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
  auto alloc = [&](std::initializer_list<const char*> names) {
    AllocSet a = spec.make_alloc_set();
    for (const char* n : names) a.set(spec.find_unit(n).index());
    return a;
  };
  // C1 connects uP2 and the FPGA: with only uP2 allocated it dangles.
  EXPECT_TRUE(obviously_dominated(spec, alloc({"uP2", "C1"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2", "G1", "C1"})));
  // C2 (uP2-A1) dangles without A1.
  EXPECT_TRUE(obviously_dominated(spec, alloc({"uP2", "G1", "C1", "C2"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2", "A1", "C2"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2"})));
}

TEST(EnumeratePossibleAllocations, DecoderListStartsLikeThePaper) {
  // §4's example list A starts with the bare processor and grows by cheap
  // additions; every element must admit a complete problem activation.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const auto pras = enumerate_possible_allocations(spec);
  ASSERT_FALSE(pras.empty());
  // Cheapest possible allocation: uP alone (every interface coverable).
  EXPECT_EQ(spec.allocation_names(pras.front()), "uP");
  // All contain a unit covering Pa/Pc (the uP).
  for (const AllocSet& a : pras)
    EXPECT_TRUE(a.test(spec.find_unit("uP").index()));
  // Ascending cost.
  double last = 0.0;
  for (const AllocSet& a : pras) {
    const double c = spec.allocation_cost(a);
    EXPECT_GE(c, last - 1e-9);
    last = c;
  }
  // The filter removes dangling-bus variants and shrinks the list.
  const auto filtered = enumerate_possible_allocations(spec, true);
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
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.max_candidates = 10;
  const ExploreResult result = explore(spec, options);
  EXPECT_LE(result.stats.candidates_generated, 11u);
  // The cap ended the run, not a dry stream.
  EXPECT_FALSE(result.stats.exhausted);
  EXPECT_GT(result.stats.frontier_remaining, 0u);
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

}  // namespace
}  // namespace sdf
