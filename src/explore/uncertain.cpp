#include "explore/uncertain.hpp"

#include <algorithm>

namespace sdf {

IntervalCostModel::IntervalCostModel(const SpecificationGraph& spec,
                                     const UncertainExploreOptions& options) {
  const HierarchicalGraph& arch = spec.architecture();
  const double u = options.relative_uncertainty;
  // Appends the interval of a vertex, interface or cluster priced `crisp`.
  const auto add = [&](std::vector<Interval>& to, auto id, double crisp) {
    to.push_back(u > 0.0 ? Interval{crisp * (1.0 - u), crisp * (1.0 + u)}
                         : Interval{arch.attr_or(id, attr::kCostLo, crisp),
                                    arch.attr_or(id, attr::kCostHi, crisp)});
    if (crisp > 0.0) stop_ratio_ = std::min(stop_ratio_, to.back().lo / crisp);
  };
  std::vector<NodeId> devices;  // parallel to device_
  for (const AllocUnit& unit : spec.alloc_units()) {
    if (!unit.is_cluster_unit()) {
      add(unit_, unit.vertex, unit.cost);
      device_of_.push_back(kNoDevice);
      continue;
    }
    add(unit_, unit.cluster, unit.cost);
    const auto it = std::find(devices.begin(), devices.end(), unit.top);
    device_of_.push_back(static_cast<std::size_t>(it - devices.begin()));
    if (it != devices.end()) continue;
    devices.push_back(unit.top);
    add(device_, unit.top, arch.attr_or(unit.top, attr::kCost, 0.0));
  }
}

Interval IntervalCostModel::cost(const AllocSet& alloc) const {
  Interval total{0.0, 0.0};
  std::vector<bool> charged(device_.size(), false);
  alloc.for_each([&](std::size_t i) {
    total += unit_[i];
    const std::size_t d = device_of_[i];
    if (d != kNoDevice && !charged[d]) {
      charged[d] = true;
      total += device_[d];
    }
  });
  return total;
}

Interval allocation_cost_interval(const SpecificationGraph& spec,
                                  const AllocSet& alloc,
                                  const UncertainExploreOptions& options) {
  return IntervalCostModel(spec, options).cost(alloc);
}

}  // namespace sdf
