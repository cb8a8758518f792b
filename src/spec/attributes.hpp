// Attribute vocabulary of the specification layer.
//
// "Additional parameters, like priorities, power consumption, latencies,
// etc. [...] are annotated to the components of G_S."  (§2)
//
// The graph layer stores free-form numeric annotations; these keys define
// the ones the library interprets.
#pragma once

namespace sdf::attr {

/// Allocation cost of an architecture vertex, interface or cluster
/// (interfaces contribute once when any of their clusters is allocated).
inline constexpr const char* kCost = "cost";

/// Optional lower/upper bounds of kCost on the same vertices, interfaces
/// and clusters, read by uncertain-cost exploration (explore/uncertain.hpp);
/// an absent bound defaults to the crisp kCost value.
inline constexpr const char* kCostLo = "cost_lo";
inline constexpr const char* kCostHi = "cost_hi";

/// Worst-case core execution latency of a mapping edge (ns).
inline constexpr const char* kLatency = "latency";

/// Minimal activation period of a problem-graph process (ns); processes
/// without a period impose no timing constraint.
inline constexpr const char* kPeriod = "period";

/// Relative activation frequency of a process within its application; the
/// utilization estimate weighs `latency/period` by this factor.  The case
/// study sets it to 0 for the authentication and controller processes
/// ("scheduled once at system start up" / "0.01% of all process calls").
inline constexpr const char* kTimingWeight = "timing_weight";

/// Marks an architecture vertex as a pure communication resource (bus).
inline constexpr const char* kComm = "comm";

/// Capacity of an architecture vertex or configuration (memory, area,
/// slices, ...).  Absent/0 = unlimited.  The binding solver rejects
/// bindings whose processes' summed footprints exceed a unit's capacity.
inline constexpr const char* kCapacity = "capacity";

/// Footprint a process occupies on its resource (same dimension as
/// kCapacity).  Absent/0 = negligible.
inline constexpr const char* kFootprint = "footprint";

}  // namespace sdf::attr
