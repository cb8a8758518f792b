// Correctness of a run, judged against references taken from outside the
// code under test: the paper's published fronts, the fronts committed in
// bench_e2e/expected_fronts.json, and an independent re-check of every
// front point's bindings.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "pipeline.hpp"
#include "util/json.hpp"

namespace sdf::e2e {

struct FrontPoint {
  double cost = 0.0;
  double flexibility = 0.0;
};

/// The reference result of one case, keyed by `SpecCase::key`.
struct ExpectedFront {
  std::vector<FrontPoint> front;
  /// Present for cases a budget stops deterministically.
  std::optional<double> exact_up_to_cost;
};
using ExpectedFronts = std::map<std::string, ExpectedFront>;

[[nodiscard]] Result<ExpectedFronts> load_expected(const std::string& path);
/// The file form of `fronts`: one compact entry per line, sorted by key.
[[nodiscard]] std::string expected_to_text(const ExpectedFronts& fronts);

/// The reference a deterministic run of `result` would be recorded as.
[[nodiscard]] ExpectedFront expected_of(const ExploreResult& result);

/// Empty when `run` of `c` is correct, else the first reason it is not: a
/// load or preflight error, a non-ok status, a front that is not a valid
/// Pareto front of the spec, a front point whose bindings fail
/// `binding_feasible`, a partial front with a point at or above its
/// certificate, or a front that differs from the paper's or the committed
/// reference.
[[nodiscard]] std::string verify_run(const SpecCase& c, const SpecRun& run,
                                     const ExploreOptions& options,
                                     const ExpectedFronts& expected);

/// Empty when the replayed loop reproduced `explore()`: same front
/// allocations, costs and flexibilities, same `checkpoint_counters`, same
/// stop reason and certificate.
[[nodiscard]] std::string compare_replay(const ExploreResult& explored,
                                         const ExploreResult& replayed);

}  // namespace sdf::e2e
