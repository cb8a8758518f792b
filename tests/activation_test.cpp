// Tests for hierarchical activation rules and timed activation timelines.
#include <gtest/gtest.h>

#include "activation/activation_state.hpp"
#include "activation/cover_timeline.hpp"
#include "activation/timeline.hpp"
#include "bind/implementation.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const HierarchicalGraph& decoder_problem() {
  static const SpecificationGraph spec = models::make_tv_decoder_spec();
  return spec.problem();
}

ClusterSelection select(const HierarchicalGraph& g,
                        std::initializer_list<const char*> clusters) {
  ClusterSelection sel;
  for (const char* name : clusters) sel.select(g, g.find_cluster(name));
  return sel;
}

TEST(ActivationState, FromSelectionIsRuleConsistent) {
  const HierarchicalGraph& g = decoder_problem();
  const ActivationState s =
      ActivationState::from_selection(g, select(g, {"gD2", "gU1"}));
  EXPECT_TRUE(check_activation_rules(g, s).empty());
  EXPECT_TRUE(s.node_active(g.find_node("Pd2")));
  EXPECT_FALSE(s.node_active(g.find_node("Pd1")));
  EXPECT_TRUE(s.cluster_active(g.find_cluster("gD2")));
  EXPECT_FALSE(s.cluster_active(g.find_cluster("gD3")));
}

TEST(ActivationState, Rule1TwoClustersOfOneInterface) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationState s =
      ActivationState::from_selection(g, select(g, {"gD1", "gU1"}));
  // Activate a second decryption cluster (and its content for rule 2).
  s.clusters.set(g.find_cluster("gD2").index());
  s.nodes.set(g.find_node("Pd2").index());
  const auto violations = check_activation_rules(g, s);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().rule, 1);
}

TEST(ActivationState, Rule1ClusterWithoutItsInterface) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationState s = ActivationState::empty_for(g);
  // Activate a cluster although its interface is inactive.
  s.clusters.set(g.find_cluster("gD1").index());
  s.nodes.set(g.find_node("Pd1").index());
  bool found_rule1 = false;
  for (const auto& v : check_activation_rules(g, s))
    if (v.rule == 1) found_rule1 = true;
  EXPECT_TRUE(found_rule1);
}

TEST(ActivationState, Rule2ClusterContentMissing) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationState s =
      ActivationState::from_selection(g, select(g, {"gD1", "gU1"}));
  s.nodes.reset(g.find_node("Pd1").index());  // violate rule 2
  bool found_rule2 = false;
  for (const auto& v : check_activation_rules(g, s))
    if (v.rule == 2) found_rule2 = true;
  EXPECT_TRUE(found_rule2);
}

TEST(ActivationState, Rule3EdgeWithInactiveEndpoint) {
  HierarchicalGraph g("r3");
  const NodeId a = g.add_vertex(g.root(), "a");
  const NodeId b = g.add_vertex(g.root(), "b");
  const EdgeId e = g.add_edge(a, b);
  ActivationState s = ActivationState::empty_for(g);
  s.nodes.set(a.index());
  s.edges.set(e.index());
  // b inactive: rules 2 (root cluster incomplete), 3 and 4 fire; look for 3.
  bool found_rule3 = false;
  for (const auto& v : check_activation_rules(g, s))
    if (v.rule == 3) found_rule3 = true;
  EXPECT_TRUE(found_rule3);
}

TEST(ActivationState, Rule4TopLevelMustBeActive) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationState s =
      ActivationState::from_selection(g, select(g, {"gD1", "gU1"}));
  s.nodes.reset(g.find_node("Pa").index());
  bool found_rule4 = false;
  for (const auto& v : check_activation_rules(g, s))
    if (v.rule == 4) found_rule4 = true;
  EXPECT_TRUE(found_rule4);
}

TEST(ActivationState, SelectionRoundTrip) {
  const HierarchicalGraph& g = decoder_problem();
  const ClusterSelection sel = select(g, {"gD3", "gU2"});
  const ActivationState s = ActivationState::from_selection(g, sel);
  const ClusterSelection back = selection_from_state(g, s);
  EXPECT_EQ(back.selected(g.find_node("ID")), g.find_cluster("gD3"));
  EXPECT_EQ(back.selected(g.find_node("IU")), g.find_cluster("gU2"));
}

// ---- timeline -----------------------------------------------------------------

TEST(Timeline, RightContinuousLookup) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationTimeline tl;
  tl.switch_at(0.0, select(g, {"gD1", "gU1"}));
  tl.switch_at(10.0, select(g, {"gD2", "gU1"}));
  tl.switch_at(20.0, select(g, {"gD3", "gU2"}));

  EXPECT_FALSE(tl.selection_at(-1.0).has_value());
  EXPECT_EQ(tl.selection_at(0.0)->selected(g.find_node("ID")),
            g.find_cluster("gD1"));
  EXPECT_EQ(tl.selection_at(9.999)->selected(g.find_node("ID")),
            g.find_cluster("gD1"));
  EXPECT_EQ(tl.selection_at(10.0)->selected(g.find_node("ID")),
            g.find_cluster("gD2"));
  EXPECT_EQ(tl.selection_at(1e9)->selected(g.find_node("ID")),
            g.find_cluster("gD3"));
  EXPECT_EQ(tl.switch_times(), (std::vector<double>{0.0, 10.0, 20.0}));
}

TEST(Timeline, StateAtReflectsSwitch) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationTimeline tl;
  tl.switch_at(0.0, select(g, {"gD1", "gU1"}));
  tl.switch_at(5.0, select(g, {"gD3", "gU2"}));

  const auto s0 = tl.state_at(g, 1.0);
  ASSERT_TRUE(s0.has_value());
  EXPECT_TRUE(s0->node_active(g.find_node("Pd1")));
  EXPECT_FALSE(s0->node_active(g.find_node("Pd3")));

  const auto s1 = tl.state_at(g, 7.0);
  ASSERT_TRUE(s1.has_value());
  EXPECT_TRUE(s1->node_active(g.find_node("Pd3")));
  EXPECT_FALSE(s1->node_active(g.find_node("Pd1")));
}

TEST(Timeline, CheckAcceptsCompleteSelections) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationTimeline tl;
  tl.switch_at(0.0, select(g, {"gD1", "gU1"}));
  tl.switch_at(3.0, select(g, {"gD2", "gU2"}));
  EXPECT_TRUE(tl.check(g).ok());
}

TEST(Timeline, CheckRejectsIncompleteSelection) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationTimeline tl;
  tl.switch_at(0.0, select(g, {"gD1"}));  // IU unselected -> rule 1
  EXPECT_FALSE(tl.check(g).ok());
}

TEST(CoverTimeline, VisitsEveryImplementedCluster) {
  const SpecificationGraph spec = models::make_settop_spec();
  AllocSet alloc = spec.make_alloc_set();
  for (const char* n : {"uP2", "A1", "C1", "C2", "D3"})
    alloc.set(spec.find_unit(n).index());
  const auto impl = build_implementation(spec.compiled(), alloc);
  ASSERT_TRUE(impl.has_value());
  ASSERT_EQ(impl->flexibility, 8.0);

  const ActivationTimeline tl =
      make_cover_timeline(spec.problem(), *impl, 50.0, 10.0);
  ASSERT_FALSE(tl.empty());
  EXPECT_TRUE(tl.check(spec.problem()).ok());
  EXPECT_EQ(tl.segments().front().time, 10.0);
  // Segments are 50 apart.
  const auto times = tl.switch_times();
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_EQ(times[i] - times[i - 1], 50.0);

  // Union of active clusters over all segments covers the implementation.
  DynBitset covered(spec.problem().cluster_count());
  for (double t : times) {
    const auto state = tl.state_at(spec.problem(), t);
    ASSERT_TRUE(state.has_value());
    covered |= state->clusters;
  }
  impl->implemented_clusters.for_each([&](std::size_t i) {
    if (spec.problem().cluster(ClusterId{i}).is_root()) return;
    EXPECT_TRUE(covered.test(i))
        << spec.problem().cluster(ClusterId{i}).name;
  });
}

TEST(CoverTimeline, EmptyImplementationYieldsEmptyTimeline) {
  const SpecificationGraph spec = models::make_settop_spec();
  Implementation impl;
  impl.implemented_clusters = spec.problem().make_cluster_set();
  EXPECT_TRUE(make_cover_timeline(spec.problem(), impl).empty());
}

TEST(Timeline, EmptyTimeline) {
  const HierarchicalGraph& g = decoder_problem();
  ActivationTimeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_FALSE(tl.selection_at(0.0).has_value());
  EXPECT_TRUE(tl.check(g).ok());
}

}  // namespace
}  // namespace sdf
