// Checkpoint / resume for the anytime EXPLORE engines.
//
// An interrupted exploration (deadline, node budget, cancellation) leaves
// three pieces of state behind: the partial Pareto front, the candidates
// already drained from the cost-ordered stream but not yet evaluated, and
// the stream's own enumeration frontier.  `ExploreCheckpoint` captures all
// three plus the deterministic work counters, and serializes to a small
// JSON document.
//
// The format stores *no floating-point state*: allocations are unit-index
// lists, frontier costs are recomputed from the unit costs on restore, and
// the incumbent flexibility is recovered by deterministically rebuilding
// the front's implementations with `build_implementation`.  That makes a
// resumed run bit-identical to an uninterrupted one — nothing is lost to a
// decimal round trip.  The text is streamed out through a `JsonWriter`,
// never built as a DOM or a whole string, and a file a resume could not
// read back is refused while it is written.
//
// Two digests guard against resuming a checkpoint on the wrong input: the
// spec digest hashes the canonical serialized specification, the options
// digest hashes every option that affects the resulting front (engine
// parallelism is deliberately excluded — thread count changes work
// accounting, never the front).  Both are `WordHash64` values
// (util/word_hash.hpp).  Older files are refused by their version: format
// version 1 carried byte-serial FNV-1a digests, version 2's options digest
// also hashed the since-removed analyzer stream bound, and version 3's the
// since-removed solver switches, activation limit and candidate cap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bind/implementation.hpp"
#include "explore/allocation_enum.hpp"
#include "util/byte_reader.hpp"
#include "util/json.hpp"
#include "util/json_stream.hpp"
#include "util/status.hpp"

namespace sdf {

struct ExploreOptions;

/// Serializable state of an interrupted EXPLORE run; see file comment.
struct ExploreCheckpoint {
  /// Current checkpoint format version (`version` field in the JSON).
  static constexpr int kVersion = 4;

  std::string spec_digest;
  std::string options_digest;

  /// One Pareto-front point: the allocation's unit indices (ascending)
  /// plus any equivalent allocations collected for the same point.
  struct FrontEntry {
    std::vector<std::uint32_t> units;
    std::vector<std::vector<std::uint32_t>> equivalents;
  };
  /// The partial front, ascending cost (same order as `ExploreResult`).
  std::vector<FrontEntry> front;

  /// Candidates drained from the stream but abandoned unevaluated, in
  /// stream order.  Resume evaluates these before touching the stream.
  std::vector<std::vector<std::uint32_t>> pending;

  /// Enumeration frontier in the stream's flat form, chains included, in
  /// whatever order the stream held it; the writer writes the chains out
  /// and each state's member list, sorted lexicographically, so only a
  /// written checkpoint pays for either.  A loaded frontier holds plain states
  /// only.  Costs and expansion bounds are derived on restore, so the
  /// serialized form is integers only.
  EnumFrontier frontier;
  std::uint64_t emitted = 0;  ///< stream subsets emitted so far
  std::uint64_t pruned = 0;   ///< branch-bound prunes so far

  /// Deterministic work counters accumulated across the whole run chain
  /// (original run plus every resume).  Charges for abandoned candidates
  /// are rolled back before checkpointing, so after the chain completes
  /// these match an uninterrupted run exactly.  `budget_abandoned` is the
  /// one exception: it records the re-evaluation overhead the chain paid
  /// (an uninterrupted run reports zero).
  struct Counters {
    std::uint64_t candidates_generated = 0;
    std::uint64_t dominated_skipped = 0;
    std::uint64_t possible_allocations = 0;
    std::uint64_t flexibility_estimations = 0;
    std::uint64_t bound_skipped = 0;
    std::uint64_t implementation_attempts = 0;
    std::uint64_t solver_calls = 0;
    std::uint64_t solver_nodes = 0;
    std::uint64_t budget_abandoned = 0;
  } counters;

  [[nodiscard]] static Result<ExploreCheckpoint> from_json(const Json& json);

  /// Streams the checkpoint file to `sink`: the text `to_string()` returns,
  /// then a line break.  Fails, naming the cap, once the file would hold
  /// more values or bytes than a reader with `limits` accepts (`from_stream`
  /// reads with the ingest defaults); what `sink` got by then is no
  /// checkpoint.
  [[nodiscard]] Status write(
      const JsonWriter::Sink& sink,
      const JsonLimits& limits = JsonLimits::ingest_defaults()) const;

  /// Convenience round trips through the JSON text form.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static Result<ExploreCheckpoint> from_string(
      std::string_view text);
  /// Streaming load with ingest resource caps: the `--resume` file is
  /// untrusted input and never needs to be materialized whole.
  [[nodiscard]] static Result<ExploreCheckpoint> from_stream(ByteReader& in);
};

/// Digest of the canonical serialized specification (`WordHash64`, hex):
/// `CompiledSpec::digest`, hashed once per index.
[[nodiscard]] Result<std::string> explore_spec_digest(
    const SpecificationGraph& spec);

/// Digest over every `ExploreOptions` field that affects the final front.
[[nodiscard]] std::string explore_options_digest(const ExploreOptions& options);

/// Rebuilds the enumeration cursor from a checkpoint's flat frontier after
/// validating it: every run inside its array, every member list strictly
/// ascending and inside the spec's universe.  Restoring the cursor
/// re-derives the costs (left-to-right over the ascending member list — the
/// same summation order the live enumeration uses, hence bit-exact) and
/// the expansion bounds from the last member.
[[nodiscard]] Result<EnumCursor> checkpoint_cursor(const ExploreCheckpoint& ck,
                                                   const CompiledSpec& cs);

/// Unit-index list → allocation bitset; fails on out-of-universe indices.
[[nodiscard]] Result<AllocSet> checkpoint_alloc(
    const std::vector<std::uint32_t>& units, const CompiledSpec& cs);

/// Allocation bitset → ascending unit-index list (checkpoint form).
[[nodiscard]] std::vector<std::uint32_t> checkpoint_units(
    const AllocSet& alloc);

/// Everything an engine needs to continue from a checkpoint: the rebuilt
/// partial front, the still-unevaluated candidates (stream order), and the
/// work-counter baseline.
struct ExploreResumeState {
  std::vector<Implementation> front;
  std::vector<AllocSet> pending;
  ExploreCheckpoint::Counters counters;
};

/// Validates `ck` against `spec`/`options` (via the stored digests),
/// restores `stream` to the checkpointed cursor, and deterministically
/// rebuilds the front's implementations (unbudgeted — their work was
/// already accounted when the checkpoint was taken).
[[nodiscard]] Result<ExploreResumeState> restore_explore_checkpoint(
    const ExploreCheckpoint& ck, const SpecificationGraph& spec,
    const ExploreOptions& options, CostOrderedAllocations& stream);

/// Captures an interrupted run: digests, front allocations, `pending`
/// (stream order: first entry = the certificate's cost bound), the
/// stream's cursor, and the (already rolled-back) work counters.  The
/// cursor's arrays move into the checkpoint.
[[nodiscard]] Result<ExploreCheckpoint> build_explore_checkpoint(
    const SpecificationGraph& spec, const ExploreOptions& options,
    const std::vector<Implementation>& front,
    const std::vector<AllocSet>& pending, EnumCursor cursor,
    const ExploreCheckpoint::Counters& counters);
/// The same with a copy of `stream.cursor()`.
[[nodiscard]] Result<ExploreCheckpoint> build_explore_checkpoint(
    const SpecificationGraph& spec, const ExploreOptions& options,
    const std::vector<Implementation>& front,
    const std::vector<AllocSet>& pending, const CostOrderedAllocations& stream,
    const ExploreCheckpoint::Counters& counters);

}  // namespace sdf
