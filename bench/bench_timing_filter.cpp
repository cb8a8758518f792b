// §5 timing validation — the 69% utilization filter.
//
// Regenerates the paper's two worked timing checks:
//   * digital TV on uP2:   95ns + 45ns <= 0.69 * 300ns   -> accepted
//   * game console on uP2: 95ns + 90ns  > 0.69 * 240ns   -> rejected
// and then quantifies the filter's conservatism against the exact
// rate-monotonic response-time test and a non-preemptive list schedule,
// across every (elementary activation, processor) combination of the case
// study.  The game-on-uP2 rejection turns out to be conservative: exact RM
// schedules it (utilization 0.77 < 1, same-period tasks run back-to-back).
#include "bench_common.hpp"

namespace sdf {
namespace {

struct Case {
  const char* label;
  std::vector<const char*> clusters;
  const char* cpu;
};

void print_timing() {
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();

  const std::vector<Case> cases = {
      {"TV (gD1,gU1) on uP2", {"gD", "gD1", "gU1"}, "uP2"},
      {"TV (gD1,gU1) on uP1", {"gD", "gD1", "gU1"}, "uP1"},
      {"game (gG1) on uP2", {"gG", "gG1"}, "uP2"},
      {"game (gG1) on uP1", {"gG", "gG1"}, "uP1"},
      {"browser (gI) on uP2", {"gI"}, "uP2"},
  };

  bench::section("§5: the 69% utilization filter vs exact analyses");
  Table table({"case", "utilization", "69% filter", "exact RM",
               "list-schedule fits period"});
  for (const Case& c : cases) {
    Eca eca;
    for (const char* name : c.clusters) {
      eca.selection.select(p, p.find_cluster(name));
      eca.clusters.push_back(p.find_cluster(name));
    }
    AllocSet alloc = spec.make_alloc_set();
    alloc.set(spec.find_unit(c.cpu).index());
    SolverOptions no_timing;
    no_timing.utilization_bound = 0.0;
    const auto binding = solve_binding(cs, alloc, eca, no_timing);
    if (!binding.has_value()) {
      table.add_row({c.label, "-", "-", "-", "unbindable"});
      continue;
    }
    const UtilizationReport util = analyze_utilization(cs, *binding);
    const bool bound_ok = util.feasible();
    const bool rm_ok = rm_schedulable(spec, *binding);

    // Non-preemptive witness: does a list schedule of the timing-relevant
    // part fit within the tightest period?
    const FlatGraph flat = flatten(p, eca.selection).value();
    const auto schedule = list_schedule(spec, flat, *binding);
    double tightest = 0.0;
    for (const BindingAssignment& a : binding->assignments()) {
      const double period = p.attr_or(a.process, attr::kPeriod, 0.0);
      if (period > 0.0 && (tightest == 0.0 || period < tightest))
        tightest = period;
    }
    std::string fits = "n/a (untimed)";
    if (tightest > 0.0 && schedule.has_value()) {
      // Charge only the timing-relevant work (negligible processes run
      // outside the steady state, §5).
      double busy = 0.0;
      for (const BindingAssignment& a : binding->assignments()) {
        if (p.attr_or(a.process, attr::kPeriod, 0.0) > 0.0 &&
            p.attr_or(a.process, attr::kTimingWeight, 1.0) > 0.0)
          busy += a.latency;
      }
      fits = busy <= tightest ? "yes" : "no";
      fits += " (" + format_double(busy) + " / " + format_double(tightest) +
              ")";
    }
    table.add_row({c.label, format_double(util.max_utilization, 4),
                   bound_ok ? "accept" : "reject",
                   rm_ok ? "schedulable" : "unschedulable", fits});
  }
  std::printf("%spaper decisions reproduced: TV on uP2 accepted "
              "(0.4667 <= 0.69), game on uP2 rejected (0.7708 > 0.69).\n"
              "conservatism: exact RM schedules the rejected game — the 69%% "
              "bound is sufficient, not necessary.\n",
              table.to_ascii().c_str());

  bench::section("quasi-static schedules of the front platforms (ref. [1])");
  {
    const ExploreResult result = explore(spec);
    Table qt({"platform", "behaviors", "worst makespan", "common prelude",
              "all fit period"});
    for (const Implementation& impl : result.front) {
      const auto qs = quasi_static_schedule(spec, impl);
      if (!qs.has_value()) {
        qt.add_row({spec.allocation_names(impl.units), "-", "-", "-", "-"});
        continue;
      }
      std::string prelude;
      for (NodeId n : qs->common_prelude) {
        if (!prelude.empty()) prelude += ",";
        prelude += p.node(n).name;
      }
      qt.add_row({spec.allocation_names(impl.units),
                  std::to_string(qs->behaviors.size()),
                  format_double(qs->worst_makespan),
                  prelude.empty() ? "(none)" : prelude,
                  qs->all_fit() ? "yes" : "NO"});
    }
    std::printf("%sthe non-preemptive witness schedules confirm every "
                "accepted platform: recurring work fits each behavior's "
                "period.\n",
                qt.to_ascii().c_str());
  }

  bench::section("effect of the timing filter on the Pareto front");
  Table fronts({"utilization bound", "front (cost, f)"});
  for (double bound : {0.5, 0.69, 0.9, 0.0}) {
    ExploreOptions options;
    options.implementation.solver.utilization_bound = bound;
    const ExploreResult r = explore(spec, options);
    std::string points;
    for (const Implementation& impl : r.front) {
      if (!points.empty()) points += ", ";
      points += "($" + format_double(impl.cost) + "," +
                format_double(impl.flexibility) + ")";
    }
    fronts.add_row({bound == 0.0 ? "disabled" : format_double(bound),
                    points});
  }
  std::printf("%sa laxer bound lets cheap single-CPU platforms implement "
              "more behaviors (the game joins uP2), shifting the front.\n",
              fronts.to_ascii().c_str());
}

void BM_UtilizationAnalysis(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& p = spec.problem();
  Eca eca;
  for (const char* name : {"gD", "gD1", "gU1"}) {
    eca.selection.select(p, p.find_cluster(name));
    eca.clusters.push_back(p.find_cluster(name));
  }
  AllocSet alloc = spec.make_alloc_set();
  alloc.set(spec.find_unit("uP2").index());
  const auto binding = solve_binding(cs, alloc, eca);
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze_utilization(cs, *binding));
}
BENCHMARK(BM_UtilizationAnalysis);

void BM_RmExactTest(benchmark::State& state) {
  std::vector<RmTask> tasks;
  for (int i = 1; i <= 10; ++i)
    tasks.push_back(RmTask{5.0 * i, 100.0 * i});
  for (auto _ : state) benchmark::DoNotOptimize(rm_schedulable(tasks));
}
BENCHMARK(BM_RmExactTest);

void BM_ListSchedule(benchmark::State& state) {
  const SpecificationGraph spec = models::make_settop_spec();
  const HierarchicalGraph& p = spec.problem();
  Eca eca;
  for (const char* name : {"gD", "gD1", "gU1"}) {
    eca.selection.select(p, p.find_cluster(name));
    eca.clusters.push_back(p.find_cluster(name));
  }
  AllocSet alloc = spec.make_alloc_set();
  alloc.set(spec.find_unit("uP2").index());
  const auto binding = solve_binding(spec.compiled(), alloc, eca);
  const FlatGraph flat = flatten(p, eca.selection).value();
  for (auto _ : state)
    benchmark::DoNotOptimize(list_schedule(spec, flat, *binding));
}
BENCHMARK(BM_ListSchedule);

}  // namespace
}  // namespace sdf

int main(int argc, char** argv) {
  sdf::print_timing();
  return sdf::bench::run_benchmarks(argc, argv);
}
