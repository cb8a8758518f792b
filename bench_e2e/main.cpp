// sdf_e2e: the end-to-end benchmark (see bench_e2e/README.md).
//
//   sdf_e2e generate --workload W --seed N --corpus DIR --root SRC
//   sdf_e2e run      --workload W --seed N --seconds S --trace 0|1
//                    --corpus DIR --expected FILE [--trace-out FILE]
//   sdf_e2e expect   --corpus DIR --root SRC --out FILE
//
// `run` explores the corpus `generate` wrote in as many passes as the
// workload plans for --seconds (corpus.hpp).  It prints a detail line, then
// the result line (report.hpp) last.  bench_e2e/run.py
// builds this binary and chains the modes.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "check.hpp"
#include "corpus.hpp"
#include "pipeline.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace sdf::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Stop starting passes after this long whatever the plan says, so a run
// ends well inside its time limit even on a slow host.
constexpr double kMaxMeasureSeconds = 120.0;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args.flags[key] = argv[i + 1];
  }
  return args;
}

Json host_json() {
  Json host = bench::host_metadata();
  host.set("nproc", Json(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  host.set("build_type", Json(SDF_BUILD_TYPE));
  return host;
}

/// Starts a new peak-RSS window (Linux: writing 5 to clear_refs resets
/// VmHWM).  Free heap memory is returned first, so the window starts from
/// the same baseline whichever spec ran before.  False where the kernel
/// refuses.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  return static_cast<bool>(f.flush());
}

/// Peak resident memory since the last reset (MiB); the process's
/// lifetime peak when the reset is unavailable.
double peak_rss_mib(bool reset_works) {
  if (reset_works) {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The cost below which the returned front is proven exact: the budget's
/// certificate for a stopped run; for a completed run, the cost of its
/// last front point, past which nothing can join the front.
double certified_cost(const ExploreResult& result) {
  if (result.stats.stop_reason != StopReason::kCompleted)
    return result.stats.exact_up_to_cost;
  return result.front.empty() ? 0.0 : result.front.back().cost;
}

/// Per-layer totals of one traced pass, keyed by per-layer metric name.
std::map<std::string, double> layer_totals(const std::vector<SpecRun>& runs,
                                           const std::vector<SpecCase>& cases,
                                           double untraced_wall) {
  std::map<std::string, double> m;
  m["explore.overrun_s"] = 0.0;  // reported even without a deadline case
  double candidates = 0, possible = 0, implementations = 0, cache_hits = 0;
  double traced_wall = 0, peak_frontier = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SpecRun& r = runs[i];
    const ExploreStats& st = r.result.stats;
    const LoopLayers& l = r.layers;
    traced_wall += r.times.total_s();
    m["spec.ingest_s"] += r.times.ingest_s;
    m["spec.ingest_bytes"] += static_cast<double>(r.ingest_bytes);
    m["spec.compile_s"] += r.times.compile_s;
    m["spec.units"] += static_cast<double>(st.universe);
    m["spec.flat_cache_entries"] += static_cast<double>(st.flat_cache_entries);
    m["spec.flat_cache_evictions"] +=
        static_cast<double>(st.flat_cache_evictions);
    m["lint.preflight_s"] += r.times.lint_s;
    m["lint.errors"] += static_cast<double>(r.lint_errors);
    m["analysis.build_s"] += r.times.analysis_s + l.analysis_s;
    m["analysis.pruned"] += static_cast<double>(st.analysis_pruned);
    m["explore.enumerate_s"] += l.enumerate_s;
    m["explore.emitted"] += static_cast<double>(l.emitted);
    m["explore.branches_pruned"] += static_cast<double>(st.branches_pruned);
    peak_frontier = std::max(peak_frontier,
                             static_cast<double>(l.peak_frontier_states));
    m["explore.dominance_s"] += l.dominance_s;
    m["explore.dominated"] += static_cast<double>(st.dominated_skipped);
    candidates += static_cast<double>(st.candidates_generated);
    possible += static_cast<double>(st.possible_allocations);
    m["flex.activatability_s"] += l.flex_s;
    m["flex.estimations"] += static_cast<double>(st.flexibility_estimations);
    m["flex.bound_skipped"] += static_cast<double>(st.bound_skipped);
    m["bind.solve_s"] += l.bind_s;
    m["bind.attempts"] += static_cast<double>(st.implementation_attempts);
    implementations += static_cast<double>(l.implementations);
    m["bind.solver_calls"] += static_cast<double>(st.solver_calls);
    m["bind.solver_nodes"] += static_cast<double>(st.solver_nodes);
    cache_hits += static_cast<double>(st.cache_hits_feasible +
                                      st.cache_hits_infeasible);
    m["bind.revalidations"] += static_cast<double>(st.cache_revalidations);
    m["bind.hier_subsolves"] += static_cast<double>(st.hier_subsolves);
    m["bind.hier_hits"] += static_cast<double>(st.hier_hits);
    m["explore.checkpoint_s"] += l.checkpoint_s;
    m["explore.checkpoint_frontier_states"] +=
        static_cast<double>(l.checkpoint_frontier_states);
    m["explore.report_s"] += r.times.emit_s;
    m["explore.report_bytes"] += static_cast<double>(r.report_bytes);
    if (st.stop_reason == StopReason::kDeadline)
      m["explore.overrun_s"] += st.wall_seconds - cases[i].deadline_seconds;
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  m["spec.ingest_mb_per_s"] =
      ratio(m["spec.ingest_bytes"] / 1e6, m["spec.ingest_s"]);
  m["explore.peak_frontier_states"] = peak_frontier;
  m["explore.useful_ratio"] = ratio(possible, candidates);
  m["bind.feasible_ratio"] = ratio(implementations, m["bind.attempts"]);
  m["bind.cache_hit_ratio"] = ratio(cache_hits, m["bind.solver_calls"]);
  m["trace.untraced_wall_s"] = untraced_wall;
  m["trace.traced_wall_s"] = traced_wall;
  m["trace.overhead_s"] = traced_wall - untraced_wall;
  return m;
}

int cmd_generate(const Args& args) {
  Result<WorkloadPlan> plan =
      plan_workload(args.get("workload"), std::stoull(args.get("seed", "1")));
  if (!plan.ok()) {
    std::cerr << plan.error().message << '\n';
    return 2;
  }
  const Status written =
      write_corpus(plan.value(), args.get("corpus"), args.get("root", "."));
  if (!written.ok()) {
    std::cerr << written.error().message << '\n';
    return 1;
  }
  return 0;
}

int cmd_expect(const Args& args) {
  const std::string corpus = args.get("corpus");
  ExpectedFronts fronts;
  for (const std::string& name : workload_names()) {
    const WorkloadPlan plan = plan_workload(name, kDefaultSeed).value();
    if (const Status s = write_corpus(plan, corpus, args.get("root", "."));
        !s.ok()) {
      std::cerr << s.error().message << '\n';
      return 1;
    }
    for (const SpecCase& c : plan.cases) {
      if (!c.deterministic()) continue;
      const ExploreOptions options =
          bench_options(c.deadline_seconds, c.max_allocations);
      const SpecRun run = run_spec(corpus + "/" + c.file, options);
      if (const std::string bad = verify_run(c, run, options, {});
          !bad.empty()) {
        std::cerr << c.key << ": " << bad << '\n';
        return 1;
      }
      fronts[c.key] = expected_of(run.result);
      std::cerr << c.key << ": " << run.times.total_s() << " s\n";
    }
  }
  std::ofstream out(args.get("out"));
  out << expected_to_text(fronts);
  return out.flush() ? 0 : 1;
}

int cmd_run(const Args& args) {
  const std::string workload = args.get("workload");
  const std::uint64_t seed = std::stoull(args.get("seed", "1"));
  const double budget_seconds = std::stod(args.get("seconds", "10"));
  const bool traced = args.get("trace", "0") == "1";
  const std::string corpus = args.get("corpus");

  Result<WorkloadPlan> planned = plan_workload(workload, seed);
  if (!planned.ok()) {
    std::cerr << planned.error().message << '\n';
    return 2;
  }
  const WorkloadPlan& plan = planned.value();
  Result<ExpectedFronts> expected = load_expected(args.get("expected"));
  if (!expected.ok()) {
    std::cerr << expected.error().message << '\n';
    return 2;
  }

  Tracer tracer;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto record = [&](const std::string& key, const std::string& bad) {
    ++attempted;
    if (bad.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(key + ": " + bad);
  };

  std::vector<double> pass_wall, pass_setup, spec_ms, certified;
  std::map<std::string, std::vector<double>> ms_by_spec, rss_by_spec;
  std::vector<std::map<std::string, double>> pass_layers;
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const int planned_passes = plan.passes_for(budget_seconds);
  int passes = 0;
  while (passes < planned_passes && elapsed() < kMaxMeasureSeconds) {
    double wall = 0.0, setup = 0.0;
    std::vector<SpecRun> traced_runs;
    for (const SpecCase& c : plan.cases) {
      const std::string path = corpus + "/" + c.file;
      const ExploreOptions options =
          bench_options(c.deadline_seconds, c.max_allocations);
      const bool rss_reset = reset_peak_rss();
      SpecRun run = run_spec(path, options);
      rss_by_spec[c.key].push_back(peak_rss_mib(rss_reset));
      record(c.key, verify_run(c, run, options, expected.value()));
      wall += run.times.total_s();
      setup += run.times.setup_s();
      spec_ms.push_back(run.times.total_s() * 1e3);
      ms_by_spec[c.key].push_back(run.times.total_s() * 1e3);
      certified.push_back(certified_cost(run.result));
      if (!traced) continue;

      SpecRun replayed = run_spec(path, options, &tracer);
      std::string bad = verify_run(c, replayed, options, expected.value());
      if (bad.empty() && c.deterministic())
        bad = compare_replay(run.result, replayed.result);
      record(c.key + " (replay)", bad);
      // Keep what the layer totals read; drop the spec and the front.
      replayed.spec.reset();
      replayed.result.front.clear();
      replayed.result.checkpoint.reset();
      traced_runs.push_back(std::move(replayed));
    }
    pass_wall.push_back(wall);
    pass_setup.push_back(setup);
    if (traced) pass_layers.push_back(layer_totals(traced_runs, plan.cases, wall));
    ++passes;
  }

  const Tail tail = tail_of(spec_ms);
  std::map<std::string, double> values;
  const std::vector<MetricDef>* defs = &end_to_end_metrics();
  if (traced) {
    defs = &per_layer_metrics();
    for (const MetricDef& d : *defs) {
      std::vector<double> per_pass;
      for (const auto& layers : pass_layers) per_pass.push_back(layers.at(d.name));
      values[d.name] = median(per_pass);
    }
  } else {
    values["wall_s"] = median(pass_wall);
    values["time_to_front_p50_ms"] = median(spec_ms);
    values["time_to_front_tail_ms"] = tail.value;
    values["setup_s"] = median(pass_setup);
    std::vector<double> peaks;
    for (const auto& [key, spec_peaks] : rss_by_spec)
      peaks.insert(peaks.end(), spec_peaks.begin(), spec_peaks.end());
    values["peak_rss_mb"] = median(peaks);
    values["certified_cost_p50"] = median(certified);
  }

  JsonObject detail;
  detail.emplace_back("workload", Json(workload));
  detail.emplace_back("seed", Json(static_cast<double>(seed)));
  detail.emplace_back("traced", Json(traced));
  detail.emplace_back("passes", Json(passes));
  detail.emplace_back("specs", Json(plan.cases.size()));
  JsonArray walls;
  for (double w : pass_wall) walls.emplace_back(w);
  detail.emplace_back("pass_wall_s", Json(std::move(walls)));
  detail.emplace_back("time_to_front_samples", Json(tail.samples));
  detail.emplace_back("time_to_front_tail_percentile", Json(tail.percentile));
  JsonObject spec_median_ms, spec_median_rss;
  for (const SpecCase& c : plan.cases) {
    spec_median_ms.emplace_back(c.key, Json(median(ms_by_spec[c.key])));
    spec_median_rss.emplace_back(c.key, Json(median(rss_by_spec[c.key])));
  }
  detail.emplace_back("spec_median_ms", Json(std::move(spec_median_ms)));
  detail.emplace_back("spec_median_peak_rss_mib",
                      Json(std::move(spec_median_rss)));
  JsonArray failure_list;
  for (const std::string& f : failures) failure_list.emplace_back(f);
  detail.emplace_back("failures", Json(std::move(failure_list)));
  if (traced) {
    const std::map<std::string, double> self = tracer.self_seconds();
    double total = 0.0;
    for (const auto& [name, s] : self) total += s;
    JsonObject share;
    for (const auto& [name, s] : self)
      share.emplace_back(name, Json(total > 0 ? s / total : 0.0));
    detail.emplace_back("self_time_share", Json(std::move(share)));
    if (const std::string out = args.get("trace-out"); !out.empty()) {
      std::ofstream f(out);
      f << tracer.to_chrome_json() << '\n';
      detail.emplace_back("trace_file", Json(out));
    }
  }
  detail.emplace_back("host", host_json());
  JsonObject wrapper;
  wrapper.emplace_back("detail", Json(std::move(detail)));
  std::cout << Json(std::move(wrapper)).dump() << '\n';

  const std::string line =
      result_line(failed == 0, attempted, failed, *defs, values);
  if (line.empty()) {
    std::cerr << "internal error: a declared metric was not measured\n";
    return 1;
  }
  std::cout << line << '\n';
  return 0;
}

}  // namespace
}  // namespace sdf::e2e

int main(int argc, char** argv) {
  const sdf::e2e::Args args = sdf::e2e::parse_args(argc, argv);
  if (args.mode == "generate") return sdf::e2e::cmd_generate(args);
  if (args.mode == "run") return sdf::e2e::cmd_run(args);
  if (args.mode == "expect") return sdf::e2e::cmd_expect(args);
  std::cerr << "usage: sdf_e2e generate|run|expect --flag value ...\n";
  return 2;
}
