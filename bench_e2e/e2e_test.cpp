// The benchmark's own tests: the replayed candidate loop agrees with
// explore(), the tail rule, the correctness checks, and the names the
// benchmark prints against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "check.hpp"
#include "corpus.hpp"
#include "pipeline.hpp"
#include "report.hpp"
#include "spec/spec_io.hpp"
#include "trace.hpp"

namespace sdf::e2e {
namespace {

const std::string kRoot = E2E_SOURCE_ROOT;

SpecificationGraph load_example(const std::string& name) {
  Result<SpecificationGraph> spec =
      spec_from_file(kRoot + "/examples/specs/" + name + ".json");
  EXPECT_TRUE(spec.ok());
  return std::move(spec).value();
}

void expect_replay_agrees(const std::string& name,
                          const ExploreOptions& options) {
  const SpecificationGraph spec = load_example(name);
  const ExploreResult explored = explore(spec, options);
  LoopLayers layers;
  Tracer tracer;
  const ExploreResult replayed = replay_explore(spec, options, layers, &tracer);
  EXPECT_EQ(compare_replay(explored, replayed), "") << name;
  EXPECT_FALSE(explored.front.empty());
  // The stream also emits the empty base allocation, which is no candidate.
  EXPECT_EQ(layers.emitted, replayed.stats.candidates_generated + 1);
}

TEST(Replay, AgreesWithExploreOnSettop) {
  expect_replay_agrees("settop", bench_options(0.0, 0));
}

TEST(Replay, AgreesWithExploreOnNested) {
  expect_replay_agrees("nested", bench_options(0.0, 0));
}

TEST(Replay, AgreesWithExploreWhenABudgetStopsTheRun) {
  const SpecificationGraph spec = load_example("nested");
  const ExploreOptions options = bench_options(0.0, 500);
  const ExploreResult explored = explore(spec, options);
  LoopLayers layers;
  const ExploreResult replayed = replay_explore(spec, options, layers);
  ASSERT_EQ(explored.stats.stop_reason, StopReason::kAllocations);
  EXPECT_EQ(compare_replay(explored, replayed), "");
  ASSERT_TRUE(explored.checkpoint.has_value());
  ASSERT_TRUE(replayed.checkpoint.has_value());
  EXPECT_EQ(explored.checkpoint->to_string(), replayed.checkpoint->to_string());
  EXPECT_EQ(layers.checkpoint_frontier_states,
            replayed.checkpoint->frontier.size());
}

TEST(Replay, RefusesOptionsItDoesNotReproduce) {
  const SpecificationGraph spec = load_example("settop");
  ExploreOptions options = bench_options(0.0, 0);
  options.collect_equivalents = true;
  LoopLayers layers;
  EXPECT_FALSE(replay_explore(spec, options, layers).status.ok());
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const Tail t = tail_of(values);
  EXPECT_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  const Tail eleven = tail_of({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(eleven.value, 1.0);
  EXPECT_NEAR(eleven.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, FewSamplesReportTheMaximum) {
  const Tail t = tail_of({3, 1, 2});
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Self, ChildSpansAreSubtractedFromTheirParent) {
  Tracer tracer;
  const auto t0 = Tracer::Clock::now();
  const auto ms = [](int n) { return std::chrono::milliseconds(n); };
  tracer.span("outer", t0, t0 + ms(10));
  tracer.span("inner", t0 + ms(2), t0 + ms(5));
  tracer.aggregate("agg", t0 + ms(5), 0.004);
  const auto self = tracer.self_seconds();
  EXPECT_NEAR(self.at("outer"), 0.003, 1e-9);
  EXPECT_NEAR(self.at("inner"), 0.003, 1e-9);
  EXPECT_NEAR(self.at("agg"), 0.004, 1e-9);
  EXPECT_NE(tracer.to_chrome_json().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Check, PaperFrontsAreEnforced) {
  const SpecCase settop = plan_workload("solve_presets", 1).value().cases[0];
  ASSERT_EQ(settop.key, "example:settop");
  const ExploreOptions options = bench_options(0.0, 0);
  SpecRun run = run_spec(kRoot + "/examples/specs/settop.json", options);
  EXPECT_EQ(verify_run(settop, run, options, {}), "");
  run.result.front.pop_back();  // ($430, 8) missing
  EXPECT_NE(verify_run(settop, run, options, {}), "");
}

TEST(Check, CommittedFrontsAreEnforcedAndBindingsRechecked) {
  const SpecCase nested = plan_workload("enum_nested", 7).value().cases[0];
  ASSERT_EQ(nested.key, "example:nested");
  const ExploreOptions options = bench_options(0.0, 0);
  SpecRun run = run_spec(kRoot + "/examples/specs/nested.json", options);
  Result<ExpectedFronts> expected =
      load_expected(kRoot + "/bench_e2e/expected_fronts.json");
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().count(nested.key), 1u);
  EXPECT_EQ(verify_run(nested, run, options, expected.value()), "");

  ExpectedFronts wrong = expected.value();
  wrong[nested.key].front.back().cost += 1.0;
  EXPECT_NE(verify_run(nested, run, options, wrong), "");

  ASSERT_FALSE(run.result.front.empty());
  ASSERT_FALSE(run.result.front[0].ecas.empty());
  Binding& b = run.result.front[0].ecas[0].binding;
  b = Binding{};  // an empty binding binds nothing
  EXPECT_NE(verify_run(nested, run, options, {}), "");
}

TEST(Corpus, SameSeedSameInputsOtherSeedOthers) {
  for (const std::string& name : workload_names()) {
    const WorkloadPlan a = plan_workload(name, 5).value();
    const WorkloadPlan b = plan_workload(name, 5).value();
    const WorkloadPlan c = plan_workload(name, 6).value();
    ASSERT_EQ(a.cases.size(), b.cases.size());
    std::set<std::string> keys;
    bool differs = false;
    for (std::size_t i = 0; i < a.cases.size(); ++i) {
      EXPECT_EQ(a.cases[i].key, b.cases[i].key);
      EXPECT_TRUE(keys.insert(a.cases[i].key).second) << a.cases[i].key;
      differs = differs || a.cases[i].key != c.cases[i].key;
    }
    EXPECT_TRUE(differs) << name;
  }
  EXPECT_FALSE(plan_workload("nope", 1).ok());
}

std::vector<std::string> names_in(const Json& doc, const char* section) {
  std::vector<std::string> out;
  for (const Json& m : doc.find(section)->as_array())
    out.push_back(m.find("name")->as_string());
  return out;
}

void expect_matches(const Json& doc, const char* section,
                    const std::vector<MetricDef>& defs) {
  const JsonArray& declared = doc.find(section)->as_array();
  ASSERT_EQ(declared.size(), defs.size()) << section;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(declared[i].find("name")->as_string(), defs[i].name);
    EXPECT_EQ(declared[i].find("unit")->as_string(), defs[i].unit);
    EXPECT_EQ(declared[i].find("better")->as_string(), defs[i].better);
  }
}

TEST(Names, PrintedMetricsAndWorkloadsMatchBenchmarkJson) {
  std::ifstream in(kRoot + "/BENCHMARK.json");
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<Json> doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.ok());
  expect_matches(doc.value(), "end_to_end", end_to_end_metrics());
  expect_matches(doc.value(), "per_layer", per_layer_metrics());
  EXPECT_EQ(names_in(doc.value(), "workloads"), workload_names());

  // The result line carries exactly the declared metrics.
  std::map<std::string, double> values;
  for (const MetricDef& d : end_to_end_metrics()) values[d.name] = 1.5;
  Result<Json> line =
      Json::parse(result_line(true, 3, 0, end_to_end_metrics(), values));
  ASSERT_TRUE(line.ok());
  std::vector<std::string> printed;
  for (const auto& [name, v] : line.value().find("metrics")->as_object())
    printed.push_back(name);
  EXPECT_EQ(printed, names_in(doc.value(), "end_to_end"));
  values.erase("wall_s");
  EXPECT_EQ(result_line(true, 3, 0, end_to_end_metrics(), values), "");
}

}  // namespace
}  // namespace sdf::e2e
