#include "report.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace sdf::e2e {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s", "lower"},
      {"time_to_front_p50_ms", "ms", "lower"},
      {"time_to_front_tail_ms", "ms", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"certified_cost_p50", "cost", "higher"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"spec.ingest_s", "s", "lower"},
      {"spec.ingest_bytes", "bytes", "lower"},
      {"spec.ingest_mb_per_s", "MB/s", "higher"},
      {"spec.compile_s", "s", "lower"},
      {"spec.units", "count", "lower"},
      {"spec.flat_cache_entries", "count", "lower"},
      {"spec.flat_cache_evictions", "count", "lower"},
      {"lint.preflight_s", "s", "lower"},
      {"lint.errors", "count", "lower"},
      {"analysis.build_s", "s", "lower"},
      {"analysis.pruned", "count", "higher"},
      {"explore.enumerate_s", "s", "lower"},
      {"explore.emitted", "count", "lower"},
      {"explore.branches_pruned", "count", "higher"},
      {"explore.peak_frontier_states", "count", "lower"},
      {"explore.dominance_s", "s", "lower"},
      {"explore.dominated", "count", "lower"},
      {"explore.useful_ratio", "ratio", "higher"},
      {"flex.activatability_s", "s", "lower"},
      {"flex.estimations", "count", "lower"},
      {"flex.bound_skipped", "count", "higher"},
      {"bind.solve_s", "s", "lower"},
      {"bind.attempts", "count", "lower"},
      {"bind.feasible_ratio", "ratio", "higher"},
      {"bind.solver_calls", "count", "lower"},
      {"bind.solver_nodes", "count", "lower"},
      {"bind.cache_hit_ratio", "ratio", "higher"},
      {"bind.revalidations", "count", "lower"},
      {"bind.hier_subsolves", "count", "lower"},
      {"bind.hier_hits", "count", "higher"},
      {"explore.checkpoint_s", "s", "lower"},
      {"explore.checkpoint_frontier_states", "count", "lower"},
      {"explore.report_s", "s", "lower"},
      {"explore.report_bytes", "bytes", "lower"},
      {"explore.overrun_s", "s", "lower"},
      {"trace.untraced_wall_s", "s", "lower"},
      {"trace.traced_wall_s", "s", "lower"},
      {"trace.overhead_s", "s", "lower"},
  };
  return defs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(std::vector<double> values, std::size_t beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const std::size_t rank = n - 1 - beyond;  // `beyond` samples above it
  tail.value = values[rank];
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(n);
  return tail;
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  JsonObject metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) return "";
    JsonObject m;
    m.emplace_back("value", Json(it->second));
    m.emplace_back("unit", Json(d.unit));
    metrics.emplace_back(d.name, Json(std::move(m)));
  }
  JsonObject line;
  line.emplace_back("correct", Json(correct));
  line.emplace_back("attempted", Json(attempted));
  line.emplace_back("failed", Json(failed));
  line.emplace_back("metrics", Json(std::move(metrics)));
  return Json(std::move(line)).dump();
}

}  // namespace sdf::e2e
