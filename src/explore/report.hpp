// Machine-readable exploration reports.
//
// Serializes an `ExploreResult` to JSON for toolchains that post-process
// the front (plotting, regression tracking, the CLI's --json mode).
// `explore_stats_to_json` is the one list of reported `ExploreStats`
// fields: `--json` embeds it and the CLI's text stats line prints it.
#pragma once

#include "explore/explorer.hpp"
#include "util/json.hpp"

namespace sdf {

/// The exploration statistics as a JSON object, in a fixed key order.
/// `exact_up_to_cost` appears only for an interrupted run, the per-phase
/// times only when a pool ran (`threads > 1`).
[[nodiscard]] Json explore_stats_to_json(const ExploreStats& stats);

/// JSON document with the front (cost, flexibility, resources, leaf
/// clusters, equivalents) and the exploration statistics.
[[nodiscard]] Json explore_result_to_json(const SpecificationGraph& spec,
                                          const ExploreResult& result);

}  // namespace sdf
