// Incremental platform design (extension).
//
// The paper contrasts its flexibility metric with Pop et al.'s incremental
// design flow [10], where an existing system is extended "such that there
// is a high probability that new functionality can easily be mapped".
// This module provides the flexibility-centric version of that scenario:
// given a platform that is already deployed (a frozen allocation), find
// the Pareto-optimal *upgrades* — supersets of the existing allocation,
// ordered by the cost of the newly added resources only — that raise the
// implemented flexibility.  Unlike [10]'s probabilistic argument, the
// result is exact: existing behaviors keep a feasible binding because
// upgrades never remove resources, and every reported point is certified
// by a constructed implementation.
#pragma once

#include "explore/explorer.hpp"

namespace sdf {

/// One upgrade step: a full implementation on `existing + added units`.
struct Upgrade {
  Implementation implementation;
  /// Cost of the newly added units only (what the upgrade costs).
  double upgrade_cost = 0.0;
};

struct UpgradeResult {
  /// Pareto front over (upgrade_cost, 1/flexibility), ascending cost.
  std::vector<Upgrade> front;
  /// Implemented flexibility of the existing platform alone (0 when the
  /// existing allocation implements nothing).
  double baseline_flexibility = 0.0;
  /// Maximal flexibility of the specification.
  double max_flexibility = 0.0;
  /// The run's work counters.  `universe` counts the units outside
  /// `existing`, and an interrupted run's `exact_up_to_cost` is in
  /// upgrade-cost terms: the front is exact for every cheaper upgrade.
  ExploreStats stats;
  /// Non-ok when the run failed: a `resume` request leaves the result
  /// empty; a failed candidate evaluation stops the run with
  /// `stop_reason == kWorkerError` and keeps the front merged so far.
  Status status;
};

/// Explores upgrades of `existing` on `spec`: EXPLORE over the supersets
/// of `existing`, cost-ordered by the added units, on the same engine as
/// `explore()` with the baseline's flexibility as the first incumbent.  All
/// of `options` applies — threads, equivalents, budgets and the analyzer
/// prefilter — except `resume`: upgrade runs cannot be resumed, because the
/// checkpoint digests do not cover `existing`, so a set `resume` is
/// rejected through `status`.  The baseline itself is not part of the
/// front (its upgrade cost is 0 and it improves nothing); every front
/// entry strictly increases flexibility over the baseline.
[[nodiscard]] UpgradeResult explore_upgrades(
    const SpecificationGraph& spec, const AllocSet& existing,
    const ExploreOptions& options = {});

}  // namespace sdf
