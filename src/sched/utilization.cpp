#include "sched/utilization.hpp"

#include <cmath>

#include "bind/solver.hpp"
#include "spec/compiled.hpp"
#include "util/strings.hpp"

namespace sdf {

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nd = static_cast<double>(n);
  return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool UtilizationReport::feasible(double bound) const {
  return max_utilization <= bound + 1e-9;
}

UtilizationReport analyze_utilization(const CompiledSpec& cs,
                                      const Binding& binding) {
  UtilizationReport report;
  report.per_unit = unit_utilizations(cs, binding);
  report.tasks_per_unit.assign(cs.unit_count(), 0);
  // The tasks `unit_utilizations` charges: a positive period and weight.
  for (const BindingAssignment& a : binding.assignments())
    if (cs.period(a.process) > 0.0 && cs.timing_weight(a.process) > 0.0)
      ++report.tasks_per_unit[a.unit.index()];
  for (std::size_t i = 0; i < report.per_unit.size(); ++i) {
    if (report.per_unit[i] > report.max_utilization) {
      report.max_utilization = report.per_unit[i];
      report.bottleneck = AllocUnitId{i};
    }
  }
  return report;
}

bool utilization_feasible(const CompiledSpec& cs, const Binding& binding,
                          double bound) {
  return analyze_utilization(cs, binding).feasible(bound);
}

std::string utilization_summary(const SpecificationGraph& spec,
                                const UtilizationReport& report) {
  const std::vector<AllocUnit>& units = spec.alloc_units();
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < report.per_unit.size(); ++i) {
    if (report.per_unit[i] <= 0.0) continue;
    parts.push_back(units[i].name + ": " +
                    format_double(report.per_unit[i], 3));
  }
  return join(parts, ", ");
}

}  // namespace sdf
