// The benchmark's workloads: which specifications each one explores, under
// which budget, all drawn from one workload seed.
//
// A workload is planned from (name, seed) alone, so the generating process
// and the measuring process agree on the corpus without passing it around.
// Every generated specification is written to disk before timing starts:
// the measured pipeline starts from file bytes, as `sdf explore` does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen/spec_generator.hpp"
#include "util/status.hpp"

namespace sdf::e2e {

/// The seed the committed expected fronts were produced with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One specification of a workload and the budget it is explored under.
struct SpecCase {
  /// Stable identity of the input, independent of the workload seed that
  /// drew it: "example:settop", "baseband-dsp@3", "tiles-3x2x2b@77", ...
  /// Expected fronts are keyed by it.
  std::string key;
  /// File name inside the corpus directory.
  std::string file;
  /// Repository-relative example file to copy; empty = generate `params`.
  std::string example;
  GeneratorParams params;
  /// `sdf explore --deadline-ms` (seconds; 0 = none).
  double deadline_seconds = 0.0;
  /// `sdf explore --max-allocations` (0 = none).
  std::uint64_t max_allocations = 0;

  /// True when the run's front and counters do not depend on timing.
  [[nodiscard]] bool deterministic() const { return deadline_seconds == 0.0; }
};

struct WorkloadPlan {
  std::string name;
  std::vector<SpecCase> cases;
  /// Passes over `cases` a run makes: `min_passes`, or more when --seconds
  /// holds more passes of `nominal_pass_seconds` (one pass on a 2-4 GHz
  /// x86-64 release build).  Fixing the count per run length, rather than
  /// timing passes until the seconds are up, fixes which sample each
  /// percentile reads.
  int min_passes = 3;
  double nominal_pass_seconds = 1.0;

  [[nodiscard]] int passes_for(double seconds) const;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The corpus of `name` for `seed`; fails on an unknown name.
[[nodiscard]] Result<WorkloadPlan> plan_workload(std::string_view name,
                                                 std::uint64_t seed);

/// Writes every case of `plan` into `dir` (which must exist).  Examples are
/// copied from `source_root`; generated cases are serialized with
/// `spec_to_string`.
[[nodiscard]] Status write_corpus(const WorkloadPlan& plan,
                                  const std::string& dir,
                                  const std::string& source_root);

}  // namespace sdf::e2e
