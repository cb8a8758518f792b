// One specification, from file bytes to serialized front, the way
// `sdf explore --threads 1 --json` runs it -- timed per layer from outside
// the library, through each layer's public calls.
//
//   ingest    spec_from_file
//   compile   SpecificationGraph::compiled()
//   preflight lint_errors, then SpecAnalysis + allocation_infeasible(all)
//   explore   explore(), or `replay_explore` in a traced run
//   emit      explore_result_to_json(...).dump(2)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "explore/explorer.hpp"
#include "spec/specification.hpp"

namespace sdf::e2e {

class Tracer;

/// Per-layer time and work inside the candidate loop, accumulated across
/// calls rather than recorded as one span per call.
struct LoopLayers {
  // Busy time per layer (seconds).
  double analysis_s = 0.0;    ///< explore's own SpecAnalysis build
  double enumerate_s = 0.0;   ///< CostOrderedAllocations::next + branch bound
  double dominance_s = 0.0;   ///< obviously_dominated
  double flex_s = 0.0;        ///< Activatability + estimated_flexibility
  double bind_s = 0.0;        ///< build_implementation
  double checkpoint_s = 0.0;  ///< build_explore_checkpoint (cursor included)
  double loop_s = 0.0;        ///< the whole loop, checkpoint included
  // Work counts.
  std::uint64_t emitted = 0;
  std::uint64_t peak_frontier_states = 0;
  std::uint64_t implementations = 0;
  std::uint64_t checkpoint_frontier_states = 0;
};

/// Re-runs `explore()`'s sequential candidate loop from outside the
/// library, through the same public calls, timing each layer into
/// `layers`.  Returns the same front, stats counters and checkpoint as
/// `explore(spec, options)` for the options the benchmark uses (the CLI
/// defaults plus a budget); fails on options it does not replay.  With a
/// `tracer`, records the loop's layers as spans.  `layers` accumulates, so
/// one instance can sum a whole pass.
[[nodiscard]] ExploreResult replay_explore(const SpecificationGraph& spec,
                                           const ExploreOptions& options,
                                           LoopLayers& layers,
                                           Tracer* tracer = nullptr);

/// Times of one end-to-end run (seconds).
struct LayerTimes {
  double ingest_s = 0.0;
  double compile_s = 0.0;
  double lint_s = 0.0;
  double analysis_s = 0.0;
  double explore_s = 0.0;
  double emit_s = 0.0;

  /// Everything before the first candidate.
  [[nodiscard]] double setup_s() const {
    return ingest_s + compile_s + lint_s + analysis_s;
  }
  [[nodiscard]] double total_s() const {
    return setup_s() + explore_s + emit_s;
  }
};

/// One specification run end to end.
struct SpecRun {
  /// Empty on success; else why the run failed before or inside explore.
  std::string error;
  /// Present once the spec loaded; kept for verifying the front.
  std::optional<SpecificationGraph> spec;
  ExploreResult result;
  LayerTimes times;
  std::uint64_t ingest_bytes = 0;
  std::uint64_t lint_errors = 0;
  std::uint64_t report_bytes = 0;
  /// Filled by a traced run only.
  LoopLayers layers;
};

/// The explore options of a case: the CLI defaults, one thread, and the
/// given budget.
[[nodiscard]] ExploreOptions bench_options(double deadline_seconds,
                                           std::uint64_t max_allocations);

/// Runs the file at `path` end to end.  With a `tracer`, each layer is
/// recorded as a span and explore is `replay_explore`.
[[nodiscard]] SpecRun run_spec(const std::string& path,
                               const ExploreOptions& options,
                               Tracer* tracer = nullptr);

}  // namespace sdf::e2e
