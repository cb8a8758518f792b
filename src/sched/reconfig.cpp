#include "sched/reconfig.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "spec/compiled.hpp"
#include "util/strings.hpp"

namespace sdf {

bool ReconfigReport::all_fit() const {
  return std::all_of(events.begin(), events.end(),
                     [](const ReconfigEvent& e) { return e.fits_segment; });
}

Result<ReconfigReport> analyze_reconfiguration(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const ActivationTimeline& timeline, const SolverOptions& solver) {
  ReconfigReport report;
  const CompiledSpec& cs = spec.compiled();
  const HierarchicalGraph& arch = spec.architecture();

  // Configuration currently loaded per device (architecture interface).
  std::map<NodeId, ClusterId> loaded;

  const auto& segments = timeline.segments();
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const auto& segment = segments[si];

    // Recover the elementary activation of this segment.
    Eca eca;
    eca.selection = segment.selection;
    const ActivationState state =
        ActivationState::from_selection(spec.problem(), segment.selection);
    state.clusters.for_each([&](std::size_t i) {
      if (!spec.problem().cluster(ClusterId{i}).is_root())
        eca.clusters.push_back(ClusterId{i});
    });

    std::optional<Binding> binding = solve_binding(cs, alloc, eca, solver);
    if (!binding.has_value()) {
      return Error{strprintf("segment at t=%s has no feasible binding",
                             format_double(segment.time).c_str())};
    }

    // Which configuration does each device hold in this segment?
    std::map<NodeId, ClusterId> wanted;
    for (const BindingAssignment& a : binding->assignments()) {
      const AllocUnit& u = cs.unit(a.unit);
      if (u.is_cluster_unit()) wanted[u.top] = u.cluster;
    }

    const double segment_end = si + 1 < segments.size()
                                   ? segments[si + 1].time
                                   : std::numeric_limits<double>::infinity();
    for (const auto& [device, config] : wanted) {
      const auto it = loaded.find(device);
      const ClusterId previous =
          it == loaded.end() ? ClusterId{} : it->second;
      if (previous == config) continue;
      ReconfigEvent event;
      event.time = segment.time;
      event.device = device;
      event.from = previous;
      event.to = config;
      event.latency = arch.attr_or(config, attr::kReconfigTime, 0.0);
      event.fits_segment =
          segment.time + event.latency <= segment_end + 1e-9;
      report.total_overhead += event.latency;
      report.events.push_back(event);
      loaded[device] = config;
    }
    report.bindings.push_back(std::move(*binding));
  }
  return report;
}

}  // namespace sdf
