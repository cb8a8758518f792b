// Tests for the rule-based diagnostics engine (lint/lint.hpp).
//
// One broken specification per rule, each firing exactly once when the rule
// runs in isolation (`LintOptions::only_rules`); rules whose defects imply
// further findings (e.g. an unmapped process also deadens its cluster) stay
// testable that way.  Clean specs — including both paper models — must
// produce zero diagnostics across the whole registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "flex/flexibility.hpp"
#include "lint/lint.hpp"
#include "spec/attributes.hpp"
#include "spec/builder.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/json.hpp"

namespace sdf {
namespace {

/// Runs exactly one rule over `spec`.
LintReport run_rule(const SpecificationGraph& spec, const char* rule) {
  LintOptions options;
  options.only_rules = {rule};
  return lint(spec, options);
}

/// Expects `rule` to fire exactly once and returns the diagnostic.
Diagnostic expect_fires_once(const SpecificationGraph& spec,
                             const char* rule) {
  const LintReport report = run_rule(spec, rule);
  EXPECT_EQ(report.diagnostics.size(), 1u) << report.to_text();
  if (report.diagnostics.size() != 1) return Diagnostic{};
  EXPECT_EQ(report.diagnostics[0].rule, rule);
  return report.diagnostics[0];
}

/// Minimal clean specification: one mapped process, one priced resource.
SpecBuilder clean_builder() {
  SpecBuilder b("clean");
  const NodeId p = b.process("P");
  const NodeId r = b.resource("R", 10);
  b.map(p, r, 5);
  return b;
}

// ---- catalogue ---------------------------------------------------------------

TEST(LintCatalog, TwentyTwoRulesWithStableIds) {
  const std::vector<RuleInfo>& catalog = lint_rule_catalog();
  ASSERT_EQ(catalog.size(), 22u);
  EXPECT_EQ(catalog.front().id, "SDF001");
  EXPECT_EQ(catalog.back().id, "SDF022");
  // Ids are unique and ascending.
  for (std::size_t i = 1; i < catalog.size(); ++i)
    EXPECT_LT(catalog[i - 1].id, catalog[i].id);
}

TEST(LintCatalog, LookupByIdAndName) {
  const RuleInfo* by_id = find_lint_rule("SDF009");
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(by_id->name, "unmappable-process");
  const RuleInfo* by_name = find_lint_rule("unmappable-process");
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name->id, "SDF009");
  EXPECT_EQ(find_lint_rule("SDF999"), nullptr);
}

TEST(LintCatalog, ParseSeverity) {
  EXPECT_EQ(parse_severity("note"), Severity::kNote);
  EXPECT_EQ(parse_severity("warning"), Severity::kWarning);
  EXPECT_EQ(parse_severity("error"), Severity::kError);
  EXPECT_EQ(parse_severity("fatal"), std::nullopt);
}

// ---- clean specs -------------------------------------------------------------

TEST(Lint, CleanSpecHasZeroDiagnostics) {
  const LintReport report = lint(clean_builder().build());
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(Lint, PaperModelsHaveZeroDiagnostics) {
  const LintReport settop = lint(models::make_settop_spec());
  EXPECT_TRUE(settop.clean()) << settop.to_text();
  const LintReport decoder = lint(models::make_tv_decoder_spec());
  EXPECT_TRUE(decoder.clean()) << decoder.to_text();
}

// ---- structural rules (SDF001-SDF008), one broken spec each ------------------

TEST(LintRule, SDF001VertexWithClusters) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId v = p.add_vertex(p.root(), "V");
  p.add_cluster(v, "bogus");
  const Diagnostic d = expect_fires_once(b.spec(), "SDF001");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.location.find("problem:"), std::string::npos);
}

TEST(LintRule, SDF002VertexWithPorts) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId v = p.add_vertex(p.root(), "V");
  p.add_port(v, "out", PortDirection::kOut);
  expect_fires_once(b.spec(), "SDF002");
}

TEST(LintRule, SDF003EmptyInterface) {
  SpecBuilder b = clean_builder();
  b.interface("I");  // no alternative() call: empty Gamma
  const Diagnostic d = expect_fires_once(b.spec(), "SDF003");
  EXPECT_NE(d.message.find("no refinement"), std::string::npos);
}

TEST(LintRule, SDF004DanglingPortMapping) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "c1");
  const NodeId inner = b.process("X", c1);
  b.map(inner, b.spec().architecture().find_node("R"), 1);
  const NodeId j = b.interface("J");
  const ClusterId c2 = b.alternative(j, "c2");
  const NodeId other = b.process("Y", c2);
  b.map(other, b.spec().architecture().find_node("R"), 1);
  const PortId port = p.add_port(i, "out", PortDirection::kOut);
  // c2 does not refine I: the mapping dangles.
  p.map_port(port, c2, other);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF004");
  EXPECT_EQ(d.severity, Severity::kError);
}

TEST(LintRule, SDF005IncompletePortMapping) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "c1");
  const NodeId inner = b.process("X", c1);
  b.map(inner, b.spec().architecture().find_node("R"), 1);
  p.add_port(i, "out", PortDirection::kOut);  // never mapped for c1
  const Diagnostic d = expect_fires_once(b.spec(), "SDF005");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("unmapped for"), std::string::npos);
}

TEST(LintRule, SDF006CrossHierarchyEdge) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "c1");
  const NodeId inner = b.process("X", c1);
  b.map(inner, b.spec().architecture().find_node("R"), 1);
  p.add_edge(p.find_node("P"), inner);  // root -> c1 crosses the boundary
  const Diagnostic d = expect_fires_once(b.spec(), "SDF006");
  EXPECT_NE(d.message.find("crosses cluster boundaries"), std::string::npos);
}

TEST(LintRule, SDF007PortOwnerMismatch) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& p = b.spec().problem();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "c1");
  const NodeId inner = b.process("X", c1);
  b.map(inner, b.spec().architecture().find_node("R"), 1);
  const PortId port = p.add_port(i, "out", PortDirection::kOut);
  p.map_port(port, c1, inner);
  const NodeId a = p.add_vertex(p.root(), "A2");
  b.map(a, b.spec().architecture().find_node("R"), 1);
  // Edge claims a port that belongs to I, not to A2.
  p.add_edge(a, p.find_node("P"), port, PortId{});
  const Diagnostic d = expect_fires_once(b.spec(), "SDF007");
  EXPECT_NE(d.message.find("port owner mismatch"), std::string::npos);
}

TEST(LintRule, SDF008ClusterCycle) {
  SpecBuilder b = clean_builder();
  const NodeId q = b.process("Q");
  b.map(q, b.spec().architecture().find_node("R"), 1);
  b.depends(b.spec().problem().find_node("P"), q);
  b.depends(q, b.spec().problem().find_node("P"));
  const Diagnostic d = expect_fires_once(b.spec(), "SDF008");
  EXPECT_NE(d.message.find("cycle"), std::string::npos);
}

// ---- semantic rules (SDF009-SDF016), one broken spec each --------------------

TEST(LintRule, SDF009UnmappableProcess) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");  // never mapped
  const Diagnostic d = expect_fires_once(b.spec(), "SDF009");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.location.find("Orphan"), std::string::npos);
  EXPECT_FALSE(d.hint.empty());
}

TEST(LintRule, SDF010BadMappingEndpoint) {
  SpecBuilder b = clean_builder();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "c1");
  const NodeId inner = b.process("X", c1);
  const NodeId r = b.spec().architecture().find_node("R");
  b.map(inner, r, 1);
  b.spec().add_mapping(i, r, 2);  // interface endpoint
  const Diagnostic d = expect_fires_once(b.spec(), "SDF010");
  EXPECT_NE(d.location.find("mapping:"), std::string::npos);
  EXPECT_NE(d.message.find("interface"), std::string::npos);
}

TEST(LintRule, SDF011DuplicateMapping) {
  SpecBuilder b = clean_builder();
  b.map(b.spec().problem().find_node("P"),
        b.spec().architecture().find_node("R"), 7);  // second P -> R edge
  const Diagnostic d = expect_fires_once(b.spec(), "SDF011");
  EXPECT_EQ(d.severity, Severity::kWarning);
}

TEST(LintRule, SDF012NegativeAttribute) {
  SpecBuilder b = clean_builder();
  b.resource("Cheap", -5);  // negative cost
  const Diagnostic d = expect_fires_once(b.spec(), "SDF012");
  EXPECT_NE(d.message.find("negative"), std::string::npos);
  // Negative mapping latency is caught too.
  SpecBuilder b2 = clean_builder();
  b2.map(b2.spec().problem().find_node("P"),
         b2.spec().architecture().find_node("R"), -1);
  const LintReport r2 = run_rule(b2.spec(), "SDF012");
  ASSERT_EQ(r2.diagnostics.size(), 1u) << r2.to_text();
  EXPECT_NE(r2.diagnostics[0].message.find("latency"), std::string::npos);
}

TEST(LintRule, SDF013MissingCost) {
  SpecBuilder b = clean_builder();
  HierarchicalGraph& a = b.spec().architecture();
  const NodeId free_unit = a.add_vertex(a.root(), "Free");
  b.map(b.spec().problem().find_node("P"), free_unit, 1);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF013");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.location.find("architecture:"), std::string::npos);
}

TEST(LintRule, SDF014SingleAlternativeInterface) {
  SpecBuilder b = clean_builder();
  const NodeId i = b.interface("I");
  const ClusterId c1 = b.alternative(i, "only");  // exactly one refinement
  const NodeId inner = b.process("X", c1);
  b.map(inner, b.spec().architecture().find_node("R"), 1);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF014");
  EXPECT_EQ(d.severity, Severity::kNote);
}

TEST(LintRule, SDF015DeadCluster) {
  SpecBuilder b = clean_builder();
  const NodeId i = b.interface("I");
  const ClusterId live = b.alternative(i, "live");
  const NodeId x = b.process("X", live);
  b.map(x, b.spec().architecture().find_node("R"), 1);
  const ClusterId dead = b.alternative(i, "dead");
  b.process("Y", dead);  // unmapped: 'dead' can never activate
  const Diagnostic d = expect_fires_once(b.spec(), "SDF015");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.location.find("dead"), std::string::npos);
  (void)live;
}

TEST(LintRule, SDF016UtilizationImpossible) {
  SpecBuilder b = clean_builder();
  const NodeId hot = b.process("Hot");
  b.timing(hot, 10.0);
  const NodeId r = b.spec().architecture().find_node("R");
  b.map(hot, r, 40);  // 40/10 = 4.0 utilization on its only resource
  const Diagnostic d = expect_fires_once(b.spec(), "SDF016");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("Liu/Layland"), std::string::npos);
  // A second, fast-enough mapping clears the finding.
  SpecBuilder ok = clean_builder();
  const NodeId h2 = ok.process("Hot");
  ok.timing(h2, 10.0);
  const NodeId fast = ok.resource("Fast", 50);
  ok.map(h2, ok.spec().architecture().find_node("R"), 40);
  ok.map(h2, fast, 2);  // 2/10 = 0.2 <= 0.69
  EXPECT_TRUE(run_rule(ok.spec(), "SDF016").clean());
  // timing_weight 0 silences the check entirely.
  SpecBuilder w0 = clean_builder();
  const NodeId h3 = w0.process("Hot");
  w0.timing(h3, 10.0, 0.0);
  w0.map(h3, w0.spec().architecture().find_node("R"), 40);
  EXPECT_TRUE(run_rule(w0.spec(), "SDF016").clean());
}

TEST(LintRule, SDF017CostUnreachableAlternative) {
  SpecBuilder b = clean_builder();
  const NodeId i = b.interface("I");
  const ClusterId cheap = b.alternative(i, "cheap");
  const NodeId c = b.process("C", cheap);
  b.map(c, b.spec().architecture().find_node("R"), 1);
  const ClusterId pricey = b.alternative(i, "pricey");
  const NodeId e = b.process("E", pricey);
  // Covering everything else costs 10 (R alone); activating 'pricey' can
  // never cost less than 1000.
  const NodeId exp = b.resource("Exp", 1000);
  b.map(e, exp, 1);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF017");
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_NE(d.location.find("pricey"), std::string::npos);
  (void)cheap;
}

TEST(LintRule, SDF018CapacityImpossibleSelection) {
  SpecBuilder b = clean_builder();
  const NodeId m = b.resource("M", 20);
  b.spec().architecture().set_attr(m, attr::kCapacity, 100.0);
  const NodeId i = b.interface("I");
  const ClusterId small = b.alternative(i, "small");
  const NodeId s = b.process("S", small);
  b.map(s, b.spec().architecture().find_node("R"), 1);
  const ClusterId big = b.alternative(i, "big");
  // Each process fits M alone (60 <= 100) so SDF012/candidate filters stay
  // silent, but both are *forced* onto M and 120 > 100.
  for (const char* name : {"B1", "B2"}) {
    const NodeId p = b.process(name, big);
    b.spec().problem().set_attr(p, attr::kFootprint, 60.0);
    b.map(p, m, 1);
  }
  const Diagnostic d = expect_fires_once(b.spec(), "SDF018");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.location.find("big"), std::string::npos);
  (void)small;
}

TEST(LintRule, SDF019BoundEmptyFront) {
  SpecBuilder b = clean_builder();
  const NodeId r = b.spec().architecture().find_node("R");
  // Each process respects the Liu/Layland bound alone (0.4 <= 0.69, so
  // SDF016 stays silent) but both are forced onto R: 0.8 > 0.69 under
  // *every* allocation — the whole front is provably empty.
  for (const char* name : {"Q1", "Q2"}) {
    const NodeId q = b.process(name);
    b.timing(q, 10.0);
    b.map(q, r, 4);
  }
  EXPECT_TRUE(run_rule(b.spec(), "SDF016").clean());
  const Diagnostic d = expect_fires_once(b.spec(), "SDF019");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("empty"), std::string::npos);
}

TEST(LintRule, SDF020DominatedAlternative) {
  SpecBuilder b = clean_builder();
  const NodeId i = b.interface("I");
  const ClusterId good = b.alternative(i, "good");
  const NodeId g = b.process("G", good);
  b.map(g, b.spec().architecture().find_node("R"), 1);
  const ClusterId waste = b.alternative(i, "waste");
  const NodeId w = b.process("W", waste);
  const NodeId exp = b.resource("Exp", 50);
  b.map(w, exp, 1);
  // 'waste' is explicitly valued at zero flexibility yet needs at least 50
  // of resources; 'good' covers its whole subtree for 10.
  b.spec().problem().set_attr(waste, kFlexWeightAttr, 0.0);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF020");
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_NE(d.location.find("waste"), std::string::npos);
  // With the default weight the same spec is just a legitimate cost /
  // flexibility tradeoff — no finding.
  b.spec().problem().set_attr(waste, kFlexWeightAttr, 1.0);
  EXPECT_TRUE(run_rule(b.spec(), "SDF020").clean());
  (void)good;
}

TEST(LintRule, SDF021CommUnsatisfiableMapping) {
  SpecBuilder b = clean_builder();
  const NodeId q = b.process("Q");
  const NodeId r2 = b.resource("R2", 10);
  b.map(q, r2, 1);
  // P runs on R, Q on R2; the two devices share no edge and no bus, so the
  // dependence can never be communicated under any allocation.
  b.depends(b.spec().problem().find_node("P"), q);
  const Diagnostic d = expect_fires_once(b.spec(), "SDF021");
  EXPECT_EQ(d.severity, Severity::kError);
  // A bus connecting both devices clears the finding.
  SpecBuilder ok = clean_builder();
  const NodeId q2 = ok.process("Q");
  const NodeId s2 = ok.resource("R2", 10);
  ok.map(q2, s2, 1);
  ok.depends(ok.spec().problem().find_node("P"), q2);
  ok.bus("B", 5, {ok.spec().architecture().find_node("R"), s2});
  EXPECT_TRUE(run_rule(ok.spec(), "SDF021").clean());
}

TEST(LintRule, SDF022DuplicateName) {
  // The decoder model with cluster gU2 renamed to gU1: it loads, but the
  // file format can no longer tell the two clusters apart.
  std::string text = spec_to_string(models::make_tv_decoder_spec()).value();
  for (std::size_t at; (at = text.find("\"gU2\"")) != std::string::npos;)
    text.replace(at, 5, "\"gU1\"");
  Result<SpecificationGraph> dup =
      spec_from_string(text, SpecParseOptions{.validate = false});
  ASSERT_TRUE(dup.ok()) << dup.error().message;
  const Diagnostic d = expect_fires_once(dup.value(), "SDF022");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("duplicate cluster name 'gU1'"), std::string::npos)
      << d.message;
  EXPECT_EQ(d.location.rfind("problem:", 0), 0u) << d.location;
  EXPECT_NE(d.location.find("/gU1"), std::string::npos) << d.location;

  // Two architecture nodes of one name.
  SpecBuilder nodes = clean_builder();
  nodes.resource("R", 20);
  const Diagnostic n = expect_fires_once(nodes.spec(), "SDF022");
  EXPECT_NE(n.message.find("duplicate node name 'R'"), std::string::npos)
      << n.message;
  EXPECT_EQ(n.location.rfind("architecture:", 0), 0u) << n.location;

  // The rule fires exactly where the writer refuses.
  SpecBuilder clean = clean_builder();
  for (const SpecificationGraph* spec :
       {&dup.value(), &nodes.spec(), &clean.spec()}) {
    EXPECT_EQ(run_rule(*spec, "SDF022").clean(), spec_to_string(*spec).ok());
  }
  EXPECT_TRUE(run_rule(models::make_settop_spec(), "SDF022").clean());
  EXPECT_TRUE(run_rule(models::make_tv_decoder_spec(), "SDF022").clean());
}

// ---- engine behavior ---------------------------------------------------------

TEST(Lint, ExitCodeFollowsMaxSeverity) {
  // Errors dominate warnings dominate notes.
  SpecBuilder errors = clean_builder();
  errors.process("Orphan");
  EXPECT_EQ(lint(errors.spec()).exit_code(), 2);

  SpecBuilder warns = clean_builder();
  warns.map(warns.spec().problem().find_node("P"),
            warns.spec().architecture().find_node("R"), 7);
  const LintReport warn_report = lint(warns.spec());
  EXPECT_EQ(warn_report.exit_code(), 1);
  EXPECT_FALSE(warn_report.has_errors());

  SpecBuilder notes = clean_builder();
  const NodeId i = notes.interface("I");
  const ClusterId c1 = notes.alternative(i, "only");
  const NodeId inner = notes.process("X", c1);
  notes.map(inner, notes.spec().architecture().find_node("R"), 1);
  const LintReport note_report = lint(notes.spec());
  EXPECT_EQ(note_report.exit_code(), 0) << note_report.to_text();
  EXPECT_EQ(note_report.notes(), 1u);
}

TEST(Lint, MinSeverityFilters) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");                                   // error (SDF009)
  b.map(b.spec().problem().find_node("P"),
        b.spec().architecture().find_node("R"), 7);      // warning (SDF011)
  LintOptions errors_only;
  errors_only.min_severity = Severity::kError;
  const LintReport report = lint(b.spec(), errors_only);
  EXPECT_GE(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 0u);
  EXPECT_EQ(report.notes(), 0u);
}

TEST(Lint, LintErrorsIsTheErrorFastPath) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");
  const LintReport report = lint_errors(b.spec());
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(std::all_of(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

TEST(Lint, DiagnosticsSortedByRuleId) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");                                   // SDF009
  HierarchicalGraph& a = b.spec().architecture();
  a.add_vertex(a.root(), "Free");                        // SDF013
  b.interface("Empty");                                  // SDF003
  const LintReport report = lint(b.spec());
  ASSERT_GE(report.diagnostics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& x, const Diagnostic& y) { return x.rule < y.rule; }))
      << report.to_text();
}

TEST(Lint, TextAndJsonRenderings) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");
  const LintReport report = lint_errors(b.spec());
  const std::string text = report.to_text();
  EXPECT_NE(text.find("error [SDF009]"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);

  const Json j = report.to_json();
  ASSERT_NE(j.find("diagnostics"), nullptr);
  const JsonArray& items = j.find("diagnostics")->as_array();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].string_or("rule", ""), "SDF009");
  EXPECT_EQ(items[0].string_or("severity", ""), "error");
  EXPECT_EQ(j.number_or("errors", 0), 1.0);
}

TEST(Lint, RuleSelectionBySlug) {
  SpecBuilder b = clean_builder();
  b.process("Orphan");
  LintOptions options;
  options.only_rules = {"unmappable-process"};
  const LintReport report = lint(b.spec(), options);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "SDF009");
}

}  // namespace
}  // namespace sdf
