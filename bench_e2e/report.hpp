// Metric names, summary statistics and the result line.
//
// The metric tables here are the single list sdf_e2e prints from; the
// test suite checks them against BENCHMARK.json, so a name printed is a
// name declared.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace sdf::e2e {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Printed by an untraced run (`--trace 0`), measured with tracing off.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by a traced run (`--trace 1`).
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Median (mean of the middle pair for even sizes); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it, i.e. the (n - beyond)-th smallest
/// value, reported with that percentile and the sample count.  With no
/// more than `beyond` samples no such percentile exists; the maximum is
/// reported as percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values,
                           std::size_t beyond = 10);

/// The last line of sdf_e2e's output: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over exactly the metrics of
/// `defs`, in table order.  Fails (returns "") if `values` lacks one.
[[nodiscard]] std::string result_line(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<MetricDef>& defs,
                                      const std::map<std::string, double>& values);

}  // namespace sdf::e2e
