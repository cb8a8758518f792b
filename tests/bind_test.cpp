// Tests for bindings (Def. 3), elementary cluster activations and the
// binding solver, anchored on the paper's worked feasibility examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bind/binding.hpp"
#include "bind/enumerate.hpp"
#include "bind/implementation.hpp"
#include "bind/solver.hpp"
#include "flex/activatability.hpp"
#include "graph/eca.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

const SpecificationGraph& decoder() {
  static const SpecificationGraph spec = models::make_tv_decoder_spec();
  return spec;
}

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* n : names) {
    const AllocUnitId u = spec.find_unit(n);
    EXPECT_TRUE(u.valid()) << n;
    a.set(u.index());
  }
  return a;
}

Eca eca_of(const HierarchicalGraph& p,
           std::initializer_list<const char*> clusters) {
  Eca e;
  for (const char* name : clusters) {
    const ClusterId c = p.find_cluster(name);
    EXPECT_TRUE(c.valid()) << name;
    e.selection.select(p, c);
    e.clusters.push_back(c);
  }
  std::sort(e.clusters.begin(), e.clusters.end());
  return e;
}

// ---- binding feasibility rules ---------------------------------------------------

TEST(Binding, PaperInfeasibleExampleViolatesRule3) {
  // "an infeasible binding would be caused by binding decryption process
  // P_D^2 onto the ASIC A and the uncompression process P_U^1 onto the
  // FPGA.  Since no bus connects the ASIC and the FPGA, there is no way to
  // establish the communication."  (§2, Fig. 2)
  const SpecificationGraph& spec = decoder();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();
  const AllocSet alloc = alloc_of(spec, {"uP", "A", "U1", "C1", "C2"});
  const Eca eca = eca_of(p, {"gD2", "gU1"});
  const FlatGraph flat = flatten(p, eca.selection).value();

  Binding bad;
  bad.assign({p.find_node("Pa"), spec.architecture().find_node("uP"),
              spec.find_unit("uP"), 20.0});
  bad.assign({p.find_node("Pc"), spec.architecture().find_node("uP"),
              spec.find_unit("uP"), 5.0});
  bad.assign({p.find_node("Pd2"), spec.architecture().find_node("A"),
              spec.find_unit("A"), 25.0});
  bad.assign({p.find_node("Pu1"), spec.architecture().find_node("U1.res"),
              spec.find_unit("U1"), 20.0});

  const Status status = check_binding(cs, alloc, flat, bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("rule 3"), std::string::npos);

  // The same pair on the ASIC alone is feasible (same resource).
  Binding good;
  good.assign({p.find_node("Pa"), spec.architecture().find_node("uP"),
               spec.find_unit("uP"), 20.0});
  good.assign({p.find_node("Pc"), spec.architecture().find_node("uP"),
               spec.find_unit("uP"), 5.0});
  good.assign({p.find_node("Pd2"), spec.architecture().find_node("A"),
               spec.find_unit("A"), 25.0});
  good.assign({p.find_node("Pu1"), spec.architecture().find_node("A"),
               spec.find_unit("A"), 15.0});
  EXPECT_TRUE(check_binding(cs, alloc, flat, good).ok());
}

TEST(Binding, Rule2MissingAssignmentDetected) {
  const SpecificationGraph& spec = decoder();
  const HierarchicalGraph& p = spec.problem();
  const AllocSet alloc = alloc_of(spec, {"uP"});
  const Eca eca = eca_of(p, {"gD1", "gU1"});
  const FlatGraph flat = flatten(p, eca.selection).value();

  Binding incomplete;
  incomplete.assign({p.find_node("Pa"), spec.architecture().find_node("uP"),
                     spec.find_unit("uP"), 20.0});
  const Status status = check_binding(spec.compiled(), alloc, flat, incomplete);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("rule 2"), std::string::npos);
}

TEST(Binding, Rule1UnallocatedResourceDetected) {
  const SpecificationGraph& spec = decoder();
  const HierarchicalGraph& p = spec.problem();
  const AllocSet alloc = alloc_of(spec, {"uP"});  // ASIC NOT allocated
  const Eca eca = eca_of(p, {"gD1", "gU1"});
  const FlatGraph flat = flatten(p, eca.selection).value();

  Binding b;
  b.assign({p.find_node("Pa"), spec.architecture().find_node("uP"),
            spec.find_unit("uP"), 20.0});
  b.assign({p.find_node("Pc"), spec.architecture().find_node("uP"),
            spec.find_unit("uP"), 5.0});
  b.assign({p.find_node("Pd1"), spec.architecture().find_node("A"),
            spec.find_unit("A"), 20.0});
  b.assign({p.find_node("Pu1"), spec.architecture().find_node("uP"),
            spec.find_unit("uP"), 40.0});
  const Status status = check_binding(spec.compiled(), alloc, flat, b);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("rule 1"), std::string::npos);
}

TEST(Binding, CommModelsDiffer) {
  // uP and FPGA are joined by bus C1 (a vertex), not by a direct edge, so
  // kDirectOnly rejects what kOneHopBus accepts.
  const SpecificationGraph& spec = decoder();
  const CompiledSpec& cs = spec.compiled();
  const AllocSet alloc = alloc_of(spec, {"uP", "D3", "C1"});
  const AllocUnitId up = spec.find_unit("uP");
  const AllocUnitId d3 = spec.find_unit("D3");
  EXPECT_FALSE(
      units_can_communicate(cs, alloc, up, d3, CommModel::kDirectOnly));
  EXPECT_TRUE(
      units_can_communicate(cs, alloc, up, d3, CommModel::kOneHopBus));
  EXPECT_TRUE(
      units_can_communicate(cs, alloc, up, d3, CommModel::kAnyPath));
}

TEST(Binding, AnyPathFollowsMultiHop) {
  // cpu -- busA -- mid -- busB -- acc: only kAnyPath sees cpu <-> acc.
  SpecBuilder b("hops");
  const NodeId p1 = b.process("p1");
  const NodeId p2 = b.process("p2");
  b.depends(p1, p2);
  const NodeId cpu = b.resource("cpu", 1.0);
  const NodeId mid = b.resource("mid", 1.0);
  const NodeId acc = b.resource("acc", 1.0);
  b.bus("busA", 1.0, {cpu, mid});
  b.bus("busB", 1.0, {mid, acc});
  b.map(p1, cpu, 1.0);
  b.map(p2, acc, 1.0);
  const SpecificationGraph spec = b.build();
  const CompiledSpec& cs = spec.compiled();

  AllocSet alloc = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) alloc.set(i);
  const AllocUnitId uc = spec.find_unit("cpu");
  const AllocUnitId ua = spec.find_unit("acc");
  EXPECT_FALSE(
      units_can_communicate(cs, alloc, uc, ua, CommModel::kOneHopBus));
  EXPECT_TRUE(
      units_can_communicate(cs, alloc, uc, ua, CommModel::kAnyPath));
}

// ---- elementary cluster activations ---------------------------------------------

TEST(Eca, DecoderEnumeratesSixCombinations) {
  const SpecificationGraph& spec = decoder();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  const auto ecas = enumerate_ecas(spec.problem(), all);
  EXPECT_EQ(ecas.size(), 6u);  // 3 decryptors x 2 uncompressors
  EXPECT_EQ(count_ecas(spec.problem(), all), 6.0);
  for (const Eca& e : ecas) EXPECT_EQ(e.clusters.size(), 2u);
}

TEST(Eca, SettopEnumeratesTenAcrossApplications) {
  // Applications are alternatives of one interface: 1 (internet) + 3 (game
  // classes) + 6 (TV decoder combinations) = 10 elementary activations.
  const SpecificationGraph& spec = settop();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  const auto ecas = enumerate_ecas(spec.problem(), all);
  EXPECT_EQ(ecas.size(), 10u);
  EXPECT_EQ(count_ecas(spec.problem(), all), 10.0);
}

TEST(Eca, RestrictedActivatabilityShrinksSet) {
  const SpecificationGraph& spec = settop();
  const Activatability act(spec.compiled(), alloc_of(spec, {"uP2"}));
  const auto ecas = enumerate_ecas(spec.problem(), act.clusters());
  // gI; gG+gG1; gD+(gD1 x gU1) = 3 activations.
  EXPECT_EQ(ecas.size(), 3u);
  EXPECT_EQ(count_ecas(spec.problem(), act.clusters()), 3.0);
}

TEST(Eca, MissingAlternativeYieldsEmpty) {
  const SpecificationGraph& spec = decoder();
  DynBitset none(spec.problem().cluster_count());
  EXPECT_TRUE(enumerate_ecas(spec.problem(), none).empty());
  EXPECT_EQ(count_ecas(spec.problem(), none), 0.0);

  // One reached interface without an alternative empties the whole
  // enumeration, the other applications' activations too; so does the
  // count.
  const HierarchicalGraph& p = settop().problem();
  DynBitset no_decryptor(p.cluster_count());
  for (std::size_t i = 0; i < no_decryptor.size(); ++i) no_decryptor.set(i);
  for (const char* name : {"gD1", "gD2", "gD3"})
    no_decryptor.reset(p.find_cluster(name).index());
  EXPECT_TRUE(enumerate_ecas(p, no_decryptor).empty());
  EXPECT_EQ(count_ecas(p, no_decryptor), 0.0);
}

TEST(Eca, LimitCapsEnumeration) {
  const SpecificationGraph& spec = settop();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  const auto ecas = enumerate_ecas(spec.problem(), all, 4);
  EXPECT_LE(ecas.size(), 4u);
  EXPECT_GE(ecas.size(), 1u);
}

TEST(Eca, CoverageUsesFewActivations) {
  // The paper's example: for allocation uP C2 A the coverage
  // {gD2 gU1}, {gD1 gU2} covers all four activatable decoder clusters.
  const SpecificationGraph& spec = decoder();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  const auto ecas = enumerate_ecas(spec.problem(), all);
  const auto cover = cover_ecas(spec.problem(), ecas);
  // 3 decryptors x 2 uncompressors need max(3,2) = 3 activations.
  EXPECT_EQ(cover.size(), 3u);
  DynBitset covered(spec.problem().cluster_count());
  for (const Eca& e : cover)
    for (ClusterId c : e.clusters) covered.set(c.index());
  EXPECT_EQ(covered.count(), 5u);
}

// ---- solver ---------------------------------------------------------------------

TEST(Solver, FindsBindingOnSingleProcessor) {
  const SpecificationGraph& spec = settop();
  const Eca eca = eca_of(spec.problem(), {"gD", "gD1", "gU1"});
  SolverStats stats;
  const auto binding =
      solve_binding(spec.compiled(), alloc_of(spec, {"uP2"}), eca, {}, &stats);
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->size(), 4u);  // Pa, PcD, Pd1, Pu1
  EXPECT_GT(stats.nodes, 0u);
  // Everything lands on uP2.
  for (const BindingAssignment& a : binding->assignments())
    EXPECT_EQ(spec.alloc_units()[a.unit.index()].name, "uP2");
}

TEST(Solver, GameOnUp2FailsUtilization) {
  // §5: 95ns + 90ns > 0.69 * 240ns -> the game console is rejected on uP2.
  const SpecificationGraph& spec = settop();
  const Eca eca = eca_of(spec.problem(), {"gG", "gG1"});
  EXPECT_FALSE(
      solve_binding(spec.compiled(), alloc_of(spec, {"uP2"}), eca).has_value());
}

TEST(Solver, GameOnUp1MeetsUtilization) {
  // 75ns + 70ns <= 0.69 * 240ns on uP1.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gG", "gG1"});
  const auto binding = solve_binding(cs, alloc_of(spec, {"uP1"}), eca);
  ASSERT_TRUE(binding.has_value());
}

TEST(Solver, GameUsesCoprocessorWhenAvailable) {
  // With the G1 configuration and bus C1, Pg1 offloads to the FPGA and the
  // game becomes feasible even next to uP2.
  const SpecificationGraph& spec = settop();
  const Eca eca = eca_of(spec.problem(), {"gG", "gG1"});
  const auto binding =
      solve_binding(spec.compiled(), alloc_of(spec, {"uP2", "G1", "C1"}), eca);
  ASSERT_TRUE(binding.has_value());
  const BindingAssignment* pg1 =
      binding->find(spec.problem().find_node("Pg1"));
  ASSERT_NE(pg1, nullptr);
  EXPECT_EQ(spec.alloc_units()[pg1->unit.index()].name, "G1");
}

TEST(Solver, TimingCheckCanBeDisabled) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gG", "gG1"});
  SolverOptions options;
  options.utilization_bound = 0.0;  // disable
  EXPECT_TRUE(
      solve_binding(cs, alloc_of(spec, {"uP2"}), eca, options).has_value());
}

TEST(Solver, ExclusiveConfigurationsBlockDoubleUse) {
  // TV activation (gD3, gU2) needs configurations D3 and U2 at the same
  // time — one FPGA cannot hold both (non-ambiguous architecture, §4).
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gD", "gD3", "gU2"});
  const AllocSet both = alloc_of(spec, {"uP2", "D3", "U2", "C1"});
  SolverOptions multihop;
  multihop.comm_model = CommModel::kAnyPath;
  EXPECT_FALSE(solve_binding(cs, both, eca).has_value());
  EXPECT_FALSE(solve_binding(cs, both, eca, multihop).has_value());
  // Each configuration serves its process on the same allocation while the
  // other alternative runs on uP2: only their simultaneous use fails.
  EXPECT_TRUE(
      solve_binding(cs, both, eca_of(spec.problem(), {"gD", "gD3", "gU1"}))
          .has_value());
  EXPECT_TRUE(
      solve_binding(cs, both, eca_of(spec.problem(), {"gD", "gD1", "gU2"}))
          .has_value());

  // With an ASIC for Pu2 the conflict disappears, but one-hop communication
  // still finds no single bus joining FPGA and A1 — only multi-hop routing
  // (FPGA - C1 - uP2 - C2 - A1) makes this activation bindable.
  EXPECT_FALSE(solve_binding(cs,
                             alloc_of(spec, {"uP2", "D3", "A1", "C1", "C2"}),
                             eca)
                   .has_value());
  EXPECT_TRUE(solve_binding(cs,
                            alloc_of(spec, {"uP2", "D3", "A1", "C1", "C2"}),
                            eca, multihop)
                  .has_value());
}

TEST(Solver, CommunicationConstraintForcesFailure) {
  // Without bus C1 the D3 configuration cannot reach uP2: activation
  // (gD3, gU1) is unbindable.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gD", "gD3", "gU1"});
  EXPECT_FALSE(
      solve_binding(cs, alloc_of(spec, {"uP2", "D3"}), eca).has_value());
  EXPECT_TRUE(solve_binding(cs, alloc_of(spec, {"uP2", "D3", "C1"}), eca)
                  .has_value());
}

TEST(Solver, UnitUtilizationsMatchHandComputation) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gD", "gD1", "gU1"});
  const auto binding = solve_binding(cs, alloc_of(spec, {"uP2"}), eca);
  ASSERT_TRUE(binding.has_value());
  const auto util = unit_utilizations(cs, *binding);
  // (95 + 45) / 300 = 0.4667; Pa and PcD are negligible.
  EXPECT_NEAR(util[spec.find_unit("uP2").index()], 140.0 / 300.0, 1e-9);
}

TEST(Solver, OutcomeSeparatesProofFromGivingUp) {
  // The three ways to return without a binding must stay distinguishable:
  // a *proof* of infeasibility, a budget abort, and a cancellation.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const Eca eca = eca_of(spec.problem(), {"gD", "gD1", "gU1"});

  SolverStats feasible;
  EXPECT_TRUE(solve_binding(cs, alloc_of(spec, {"uP2"}), eca, {}, &feasible)
                  .has_value());
  EXPECT_EQ(feasible.outcome, SolveOutcome::kFeasible);

  // Proven infeasible (§5: the game's utilization is rejected on uP2).
  SolverStats infeasible;
  const Eca game = eca_of(spec.problem(), {"gG", "gG1"});
  EXPECT_FALSE(solve_binding(cs, alloc_of(spec, {"uP2"}), game, {},
                             &infeasible)
                   .has_value());
  EXPECT_EQ(infeasible.outcome, SolveOutcome::kInfeasible);
  EXPECT_FALSE(infeasible.aborted);

  // Budget-aborted: identical nullopt, different meaning.
  RunBudget budget;
  budget.max_solver_nodes = 1;
  BudgetTracker tracker(budget);
  SolverOptions budgeted;
  budgeted.budget = &tracker;
  SolverStats aborted;
  EXPECT_FALSE(solve_binding(cs, alloc_of(spec, {"uP2"}), eca, budgeted,
                             &aborted)
                   .has_value());
  EXPECT_EQ(aborted.outcome, SolveOutcome::kBudgetExceeded);
  EXPECT_TRUE(aborted.aborted);

  // A tripped CancelToken reports cancellation, not infeasibility.  The
  // explore layer always probes `check()` before invoking the solver; that
  // probe is what records the cancellation.
  RunBudget cancellable;
  cancellable.cancel.request_cancel();
  BudgetTracker cancelled_tracker(cancellable);
  ASSERT_FALSE(cancelled_tracker.check());
  SolverOptions cancellable_opts;
  cancellable_opts.budget = &cancelled_tracker;
  SolverStats cancelled;
  EXPECT_FALSE(solve_binding(cs, alloc_of(spec, {"uP2"}), eca,
                             cancellable_opts, &cancelled)
                   .has_value());
  EXPECT_EQ(cancelled.outcome, SolveOutcome::kCancelled);
}

// ---- randomized kernel checks: solver vs exhaustive enumeration ------------------

/// A small random flat instance aimed at the utilization and capacity
/// flags.  Demands (1/8, 1/4), latencies (1, 2) and footprints (1, 2) are
/// dyadic, so loads sum exactly and a unit can sit exactly at the 0.5 bound
/// or at its capacity (2 to 4, less `slack`); equal shares demand × latency
/// are common (1/8 × 2 = 1/4 × 1); some processes have no timing or no
/// footprint; and about half the instances add a device with two exclusive
/// configurations.
SpecificationGraph random_kernel_spec(std::uint64_t seed, double slack) {
  Rng rng(seed);
  SpecBuilder b("kernel" + std::to_string(seed));
  std::vector<NodeId> targets;
  std::vector<NodeId> endpoints;
  const std::size_t resources = 2 + rng.uniform(2);
  for (std::size_t r = 0; r < resources; ++r) {
    const NodeId res = b.resource("r" + std::to_string(r), 10.0);
    if (rng.chance(0.6))
      b.spec().architecture().set_attr(
          res, attr::kCapacity,
          static_cast<double>(2 + rng.uniform(3)) - slack);
    targets.push_back(res);
    endpoints.push_back(res);
  }
  if (rng.chance(0.5)) {
    const NodeId dev = b.device("fpga");
    targets.push_back(b.configuration(dev, "c0", 5.0));
    targets.push_back(b.configuration(dev, "c1", 5.0));
    endpoints.push_back(dev);
  }
  // A bus that misses one endpoint now and then, so rule 3 bites too.
  if (endpoints.size() > 2 && rng.chance(0.3))
    endpoints.erase(endpoints.begin() + rng.pick_index(endpoints));
  b.bus("bus", 1.0, endpoints);

  std::vector<NodeId> procs;
  const std::size_t n = 3 + rng.uniform(4);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId p = b.process("p" + std::to_string(i));
    if (rng.chance(0.75)) b.timing(p, 1.0, rng.chance(0.5) ? 0.125 : 0.25);
    if (rng.chance(0.7))
      b.spec().problem().set_attr(p, attr::kFootprint,
                                  static_cast<double>(1 + rng.uniform(2)));
    bool mapped = false;
    for (const NodeId t : targets) {
      if (!rng.chance(0.5)) continue;
      b.map(p, t, rng.chance(0.5) ? 1.0 : 2.0);
      mapped = true;
    }
    if (!mapped) b.map(p, targets[rng.pick_index(targets)], 1.0);
    for (const NodeId q : procs)
      if (rng.chance(0.3)) b.depends(q, p);
    procs.push_back(p);
  }
  return b.build();
}

/// Random allocations of `spec`: everything, plus subsets keeping each
/// unit with probability 0.7.
std::vector<AllocSet> random_kernel_allocs(const SpecificationGraph& spec,
                                           std::uint64_t seed) {
  Rng rng(seed * 31 + 7);
  std::vector<AllocSet> out;
  AllocSet all = spec.make_alloc_set();
  for (std::size_t u = 0; u < spec.alloc_units().size(); ++u) all.set(u);
  out.push_back(all);
  for (int k = 0; k < 3; ++k) {
    AllocSet a = spec.make_alloc_set();
    for (std::size_t u = 0; u < spec.alloc_units().size(); ++u)
      if (rng.chance(0.7)) a.set(u);
    out.push_back(a);
  }
  return out;
}

/// True when some unit's load under `binding` sits exactly at the 0.5
/// bound or at its capacity rounded to the integer it was drawn as.
bool binding_at_a_limit(const CompiledSpec& cs, const Binding& binding,
                        const SolverOptions& options) {
  const std::vector<double> util = unit_utilizations(cs, binding);
  const std::vector<double> used = unit_footprints(cs, binding);
  for (std::size_t u = 0; u < cs.unit_count(); ++u) {
    if (options.utilization_bound > 0.0 && util[u] == 0.5) return true;
    const double cap = cs.unit_capacity(AllocUnitId{u});
    if (cap > 0.0 && used[u] == std::round(cap))
      return true;
  }
  return false;
}

TEST(SolverDifferential, VerdictMatchesExhaustiveEnumeration) {
  // On even seeds the bound and the capacities sit 1e-9 below the loads
  // the instances can reach, so a unit loaded to them meets the limit the
  // solver compares with (bound + 1e-9) exactly, not just the bound.
  constexpr double kSlack = 1e-9;
  for (const double target : {0.5, 2.0, 3.0, 4.0})
    ASSERT_EQ((target - kSlack) + 1e-9, target);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t at_limit = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const double slack = seed % 2 == 0 ? kSlack : 0.0;
    const SpecificationGraph spec = random_kernel_spec(seed, slack);
    const CompiledSpec& cs = spec.compiled();
    SolverOptions options;
    options.utilization_bound = seed % 5 == 0 ? 0.0 : 0.5 - slack;
    const Eca root;  // no interfaces: the root activation is the only ECA
    for (const AllocSet& alloc : random_kernel_allocs(spec, seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " alloc " +
                   spec.allocation_names(alloc));
      const std::optional<Binding> got =
          solve_binding(cs, alloc, root, options);
      const BindingEnumeration all =
          enumerate_bindings(cs, alloc, root, options, 1);
      ASSERT_EQ(got.has_value(), !all.feasible.empty());
      if (!got.has_value()) {
        ++infeasible;
        continue;
      }
      ++feasible;
      EXPECT_TRUE(binding_feasible(cs, alloc, root, *got, options));
      EXPECT_TRUE(binding_feasible(cs, alloc, root, all.feasible.front(),
                                   options));
      if (binding_at_a_limit(cs, *got, options)) ++at_limit;
    }
  }
  // The sample must exercise both verdicts and bindings that meet a bound
  // or a capacity exactly (allowed: the limits are inclusive).
  EXPECT_GT(feasible, 200u);
  EXPECT_GT(infeasible, 200u);
  EXPECT_GT(at_limit, 100u);
}

TEST(SolverDifferential, ConcurrentSolvesMatchSequentialOnes) {
  // Each thread solves through its own workspace: two threads solving
  // different instances at once must each see exactly the search a lone
  // thread sees — same verdict, same node count.
  struct Query {
    SpecificationGraph spec;
    std::vector<AllocSet> allocs;
    std::vector<bool> verdict;
    std::vector<std::uint64_t> nodes;
  };
  SolverOptions options;
  options.utilization_bound = 0.5;
  std::vector<Query> queries;
  queries.reserve(2);  // the compiled index refers into its spec: no moves
  for (const std::uint64_t seed : {11u, 12u})
    queries.push_back(Query{random_kernel_spec(seed, 0.0), {}, {}, {}});
  for (std::size_t t = 0; t < queries.size(); ++t) {
    Query& q = queries[t];
    q.allocs = random_kernel_allocs(q.spec, 11 + t);
    for (const AllocSet& alloc : q.allocs) {
      SolverStats stats;
      q.verdict.push_back(
          solve_binding(q.spec.compiled(), alloc, Eca{}, options, &stats)
              .has_value());
      q.nodes.push_back(stats.nodes);
    }
  }

  std::vector<int> mismatches(queries.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < queries.size(); ++t) {
    threads.emplace_back([&, t] {
      const Query& q = queries[t];
      const CompiledSpec& cs = q.spec.compiled();
      for (int round = 0; round < 2000; ++round) {
        for (std::size_t k = 0; k < q.allocs.size(); ++k) {
          SolverStats stats;
          const std::optional<Binding> got =
              solve_binding(cs, q.allocs[k], Eca{}, options, &stats);
          if (got.has_value() != q.verdict[k] || stats.nodes != q.nodes[k])
            ++mismatches[t];
          if (got.has_value() &&
              !binding_feasible(cs, q.allocs[k], Eca{}, *got, options))
            ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < queries.size(); ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// ---- implementation builder ------------------------------------------------------

TEST(Implementation, Up2ImplementsFlexibilityTwo) {
  // §5's first candidate: estimated 3, implemented 2 (game rejected).
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  ImplementationStats stats;
  const auto impl =
      build_implementation(cs, alloc_of(spec, {"uP2"}), {}, &stats);
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->flexibility, 2.0);
  EXPECT_EQ(impl->cost, 100.0);
  EXPECT_EQ(stats.solver_calls, 3u);  // one per elementary activation
  const auto leaves = impl->leaf_clusters(spec.problem());
  std::vector<std::string> names;
  for (ClusterId c : leaves) names.push_back(spec.problem().cluster(c).name);
  EXPECT_EQ(names, (std::vector<std::string>{"gI", "gD1", "gU1"}));
}

TEST(Implementation, Up1ImplementsFlexibilityThree) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  const auto impl = build_implementation(cs, alloc_of(spec, {"uP1"}));
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->flexibility, 3.0);
  EXPECT_EQ(impl->cost, 120.0);
}

TEST(Implementation, Row4AllocationImplementsFive) {
  const SpecificationGraph& spec = settop();
  const auto impl = build_implementation(
      spec.compiled(), alloc_of(spec, {"uP2", "C1", "G1", "U2", "D3"}));
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->flexibility, 5.0);
  EXPECT_EQ(impl->cost, 290.0);
}

TEST(Implementation, InfeasibleAllocationReturnsNullopt) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  EXPECT_FALSE(build_implementation(cs, alloc_of(spec, {"A1"})).has_value());
  EXPECT_FALSE(
      build_implementation(cs, spec.make_alloc_set()).has_value());
}

TEST(Implementation, MinimalCoverCoversImplementedClusters) {
  const SpecificationGraph& spec = settop();
  const auto impl = build_implementation(
      spec.compiled(), alloc_of(spec, {"uP2", "A1", "C1", "C2", "D3"}));
  ASSERT_TRUE(impl.has_value());
  EXPECT_EQ(impl->flexibility, 8.0);
  const auto cover = impl->minimal_cover(spec.problem());
  DynBitset covered(spec.problem().cluster_count());
  for (const Eca& e : cover)
    for (ClusterId c : e.clusters) covered.set(c.index());
  // Every implemented non-root cluster appears in the cover.
  impl->implemented_clusters.for_each([&](std::size_t i) {
    if (spec.problem().cluster(ClusterId{i}).is_root()) return;
    EXPECT_TRUE(covered.test(i)) << spec.problem().cluster(ClusterId{i}).name;
  });
  // And the cover is smaller than the full feasible-ECA list.
  EXPECT_LT(cover.size(), impl->ecas.size());
}

}  // namespace
}  // namespace sdf
