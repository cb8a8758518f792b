#include "explore/checkpoint.hpp"

#include <cinttypes>
#include <cmath>

#include "explore/explorer.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "util/json.hpp"
#include "util/json_stream.hpp"
#include "util/strings.hpp"

namespace sdf {
namespace {

constexpr const char* kFormat = "sdf-explore-checkpoint";

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// FNV-1a over `text`, continuing from `h` (so chunked input hashes the
/// same as the concatenation).
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t h = kFnvOffsetBasis) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  return strprintf("%016" PRIx64, value);
}

Json units_to_json(const std::vector<std::uint32_t>& units) {
  JsonArray arr;
  arr.reserve(units.size());
  for (std::uint32_t u : units) arr.emplace_back(std::size_t{u});
  return Json{std::move(arr)};
}

Result<std::vector<std::uint32_t>> units_from_json(const Json& json,
                                                   const char* what) {
  if (!json.is_array())
    return Error{strprintf("checkpoint: %s is not an array", what)};
  std::vector<std::uint32_t> out;
  out.reserve(json.as_array().size());
  for (const Json& e : json.as_array()) {
    // Range-check before the narrowing cast: a hostile checkpoint can hold
    // any double (1e99, -0.5, 4e9), and an out-of-range double-to-integer
    // conversion is undefined behavior, not just a wrong value.
    const double v = e.is_number() ? e.as_number() : -1.0;
    if (!(v >= 0.0 && v <= 4294967295.0) || v != std::floor(v))
      return Error{strprintf("checkpoint: %s holds a non-index entry", what)};
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

/// A stream state's member list as the writer produces it: strictly
/// ascending unit indices.  The largest index is the flat form's "no unit"
/// marker, and no universe is that large.
bool valid_state_list(const std::vector<std::uint32_t>& units) {
  for (std::size_t i = 1; i < units.size(); ++i)
    if (units[i - 1] >= units[i]) return false;
  return units.empty() || units.back() != EnumFrontier::kNoUnit;
}

Result<std::uint64_t> u64_field(const Json& json, const char* key) {
  const Json* f = json.find(key);
  // 2^64 is exactly representable; anything >= it (or negative, fractional,
  // NaN) would make the cast below undefined behavior or silently wrong.
  const double v = (f != nullptr && f->is_number()) ? f->as_number() : -1.0;
  if (!(v >= 0.0 && v < 18446744073709551616.0) || v != std::floor(v))
    return Error{strprintf("checkpoint: missing or invalid '%s'", key)};
  return static_cast<std::uint64_t>(v);
}

/// The deterministic work counters a checkpoint carries, in the order its
/// JSON writes them: key, `ExploreStats` member, `Counters` member.
struct CounterField {
  const char* key;
  std::uint64_t ExploreStats::*stats;
  std::uint64_t ExploreCheckpoint::Counters::*counters;
};
using Counters = ExploreCheckpoint::Counters;
constexpr CounterField kCounterFields[] = {
    {"candidates_generated", &ExploreStats::candidates_generated,
     &Counters::candidates_generated},
    {"dominated_skipped", &ExploreStats::dominated_skipped,
     &Counters::dominated_skipped},
    {"possible_allocations", &ExploreStats::possible_allocations,
     &Counters::possible_allocations},
    {"flexibility_estimations", &ExploreStats::flexibility_estimations,
     &Counters::flexibility_estimations},
    {"bound_skipped", &ExploreStats::bound_skipped, &Counters::bound_skipped},
    {"implementation_attempts", &ExploreStats::implementation_attempts,
     &Counters::implementation_attempts},
    {"solver_calls", &ExploreStats::solver_calls, &Counters::solver_calls},
    {"solver_nodes", &ExploreStats::solver_nodes, &Counters::solver_nodes},
    {"budget_abandoned", &ExploreStats::budget_abandoned,
     &Counters::budget_abandoned},
};

}  // namespace

ExploreCheckpoint::Counters checkpoint_counters(const ExploreStats& stats) {
  ExploreCheckpoint::Counters c;
  for (const CounterField& f : kCounterFields) c.*f.counters = stats.*f.stats;
  return c;
}

void apply_checkpoint_counters(const ExploreCheckpoint::Counters& counters,
                               ExploreStats& stats) {
  for (const CounterField& f : kCounterFields)
    stats.*f.stats = counters.*f.counters;
}

Json ExploreCheckpoint::to_json() const {
  JsonObject root;
  root.emplace_back("format", Json{kFormat});
  root.emplace_back("version", Json{kVersion});
  root.emplace_back("spec_digest", Json{spec_digest});
  root.emplace_back("options_digest", Json{options_digest});

  JsonArray front_arr;
  front_arr.reserve(front.size());
  for (const FrontEntry& fe : front) {
    JsonObject entry;
    entry.emplace_back("units", units_to_json(fe.units));
    if (!fe.equivalents.empty()) {
      JsonArray eq;
      eq.reserve(fe.equivalents.size());
      for (const auto& units : fe.equivalents) eq.push_back(units_to_json(units));
      entry.emplace_back("equivalents", Json{std::move(eq)});
    }
    front_arr.emplace_back(std::move(entry));
  }
  root.emplace_back("front", Json{std::move(front_arr)});

  JsonArray pending_arr;
  pending_arr.reserve(pending.size());
  for (const auto& units : pending) pending_arr.push_back(units_to_json(units));
  root.emplace_back("pending", Json{std::move(pending_arr)});

  JsonObject cursor;
  cursor.emplace_back("emitted", Json{emitted});
  cursor.emplace_back("pruned", Json{pruned});
  // Chains written out, in canonical order: equal frontiers serialize
  // identically, whatever order and form the stream's heap left them in.
  const EnumFrontier plain = frontier.written_out();
  JsonArray frontier_arr;
  frontier_arr.reserve(plain.states.size());
  for (const std::size_t i : plain.canonical_order())
    frontier_arr.push_back(units_to_json(plain.members(i)));
  cursor.emplace_back("frontier", Json{std::move(frontier_arr)});
  root.emplace_back("cursor", Json{std::move(cursor)});

  JsonObject cnt;
  for (const CounterField& f : kCounterFields)
    cnt.emplace_back(f.key, Json{counters.*f.counters});
  root.emplace_back("counters", Json{std::move(cnt)});

  return Json{std::move(root)};
}

Result<ExploreCheckpoint> ExploreCheckpoint::from_json(const Json& json) {
  if (!json.is_object()) return Error{"checkpoint: document is not an object"};
  if (json.string_or("format", "") != kFormat)
    return Error{"checkpoint: not an sdf-explore-checkpoint document"};
  const Json* version = json.find("version");
  // Compare as doubles: `as_int()` on an out-of-range value (a mutated
  // checkpoint can hold 1e99) would be an undefined narrowing conversion.
  if (version == nullptr || !version->is_number() ||
      version->as_number() != static_cast<double>(kVersion))
    return Error{strprintf("checkpoint: unsupported version (expected %d)",
                           kVersion)};

  ExploreCheckpoint ck;
  ck.spec_digest = json.string_or("spec_digest", "");
  ck.options_digest = json.string_or("options_digest", "");
  if (ck.spec_digest.empty() || ck.options_digest.empty())
    return Error{"checkpoint: missing spec/options digest"};

  const Json* front = json.find("front");
  if (front == nullptr || !front->is_array())
    return Error{"checkpoint: missing 'front' array"};
  for (const Json& entry : front->as_array()) {
    const Json* units = entry.find("units");
    if (units == nullptr)
      return Error{"checkpoint: front entry without 'units'"};
    Result<std::vector<std::uint32_t>> parsed =
        units_from_json(*units, "front units");
    if (!parsed.ok()) return parsed.error();
    FrontEntry fe;
    fe.units = std::move(parsed).value();
    if (const Json* eq = entry.find("equivalents"); eq != nullptr) {
      if (!eq->is_array())
        return Error{"checkpoint: 'equivalents' is not an array"};
      for (const Json& alt : eq->as_array()) {
        Result<std::vector<std::uint32_t>> alt_units =
            units_from_json(alt, "equivalent units");
        if (!alt_units.ok()) return alt_units.error();
        fe.equivalents.push_back(std::move(alt_units).value());
      }
    }
    ck.front.push_back(std::move(fe));
  }

  const Json* pending = json.find("pending");
  if (pending == nullptr || !pending->is_array())
    return Error{"checkpoint: missing 'pending' array"};
  for (const Json& entry : pending->as_array()) {
    Result<std::vector<std::uint32_t>> units =
        units_from_json(entry, "pending units");
    if (!units.ok()) return units.error();
    ck.pending.push_back(std::move(units).value());
  }

  const Json* cursor = json.find("cursor");
  if (cursor == nullptr || !cursor->is_object())
    return Error{"checkpoint: missing 'cursor' object"};
  if (Result<std::uint64_t> v = u64_field(*cursor, "emitted"); v.ok())
    ck.emitted = v.value();
  else
    return v.error();
  if (Result<std::uint64_t> v = u64_field(*cursor, "pruned"); v.ok())
    ck.pruned = v.value();
  else
    return v.error();
  const Json* frontier = cursor->find("frontier");
  if (frontier == nullptr || !frontier->is_array())
    return Error{"checkpoint: missing 'cursor.frontier' array"};
  for (const Json& entry : frontier->as_array()) {
    Result<std::vector<std::uint32_t>> members =
        units_from_json(entry, "frontier state");
    if (!members.ok()) return members.error();
    // The stream resumes expanding a state above its last member, so a
    // list out of order would re-emit or skip subsets.
    if (!valid_state_list(members.value()))
      return Error{"checkpoint: frontier state is not a strictly ascending "
                   "unit list"};
    ck.frontier.push_back(members.value());
  }

  const Json* counters = json.find("counters");
  if (counters == nullptr || !counters->is_object())
    return Error{"checkpoint: missing 'counters' object"};
  for (const CounterField& f : kCounterFields) {
    Result<std::uint64_t> v = u64_field(*counters, f.key);
    if (!v.ok()) return v.error();
    ck.counters.*f.counters = v.value();
  }

  return ck;
}

std::string ExploreCheckpoint::to_string() const { return to_json().dump(2); }

Result<ExploreCheckpoint> ExploreCheckpoint::from_string(
    std::string_view text) {
  // Checkpoints come through the same untrusted front door as specs
  // (--resume points at an arbitrary file), so the same ingest caps apply.
  Result<Json> json = Json::parse(text, JsonLimits::ingest_defaults());
  if (!json.ok()) return json.error().wrap("checkpoint");
  return from_json(json.value());
}

Result<ExploreCheckpoint> ExploreCheckpoint::from_stream(ByteReader& in) {
  JsonDomBuilder builder;
  JsonStreamParser parser(builder, JsonLimits::ingest_defaults());
  char buf[64 * 1024];
  while (true) {
    Result<std::size_t> n = in.read(buf, sizeof buf);
    if (!n.ok()) return n.error().wrap("checkpoint");
    if (n.value() == 0) break;
    if (Status s = parser.feed(std::string_view(buf, n.value())); !s.ok())
      return s.error().wrap("checkpoint");
  }
  if (Status s = parser.finish(); !s.ok())
    return s.error().wrap("checkpoint");
  return from_json(builder.take());
}

Result<std::string> explore_spec_digest(const SpecificationGraph& spec) {
  // FNV-1a of `spec_to_string`'s bytes, hashed chunk by chunk as the writer
  // emits them, so no DOM or whole-spec string is ever built.
  std::uint64_t h = kFnvOffsetBasis;
  JsonWriter out(2, [&h](std::string_view chunk) { h = fnv1a64(chunk, h); });
  if (Status s = write_spec(spec, out); !s.ok())
    return s.error().wrap("checkpoint digest");
  out.flush();
  return hex64(h);
}

std::string explore_options_digest(const ExploreOptions& options) {
  const SolverOptions& s = options.implementation.solver;
  // Every field that can change the *front* (engine parallelism and the
  // run budget deliberately excluded: they change work accounting and
  // where a run stops, never which points the completed front contains).
  // `abound` never changes the front either, but it changes the
  // *checkpointed* work counters (candidates skipped before evaluation),
  // so a resumed chain must keep the same setting to stay bit-identical
  // to an uninterrupted run.
  const std::string canon = strprintf(
      "comm=%d ub=%.17g excl=%d cap=%d eca=%zu dom=%d "
      "fbound=%d bbound=%d stopmax=%d equiv=%d maxcand=%" PRIu64 " abound=%d",
      static_cast<int>(s.comm_model), s.utilization_bound,
      static_cast<int>(s.exclusive_configurations),
      static_cast<int>(s.enforce_capacities),
      options.implementation.eca_limit,
      static_cast<int>(options.prune_dominated_allocations),
      static_cast<int>(options.use_flexibility_bound),
      static_cast<int>(options.use_branch_bound),
      static_cast<int>(options.stop_at_max_flexibility),
      static_cast<int>(options.collect_equivalents), options.max_candidates,
      static_cast<int>(options.use_analysis_bound));
  return hex64(fnv1a64(canon));
}

Result<EnumCursor> checkpoint_cursor(const ExploreCheckpoint& ck,
                                     const CompiledSpec& cs) {
  if (!ck.frontier.valid(cs.unit_count()))
    return Error{
        "checkpoint: frontier state outside the universe or not strictly "
        "ascending"};
  return EnumCursor{ck.frontier, ck.emitted, ck.pruned};
}

Result<AllocSet> checkpoint_alloc(const std::vector<std::uint32_t>& units,
                                  const CompiledSpec& cs) {
  AllocSet alloc = cs.make_alloc_set();
  for (std::uint32_t u : units) {
    if (u >= cs.unit_count())
      return Error{"checkpoint: allocation unit index outside the universe"};
    alloc.set(u);
  }
  return alloc;
}

std::vector<std::uint32_t> checkpoint_units(const AllocSet& alloc) {
  std::vector<std::uint32_t> out;
  out.reserve(alloc.count());
  alloc.for_each(
      [&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
  return out;
}

Result<ExploreResumeState> restore_explore_checkpoint(
    const ExploreCheckpoint& ck, const SpecificationGraph& spec,
    const ExploreOptions& options, CostOrderedAllocations& stream) {
  Result<std::string> spec_digest = explore_spec_digest(spec);
  if (!spec_digest.ok()) return spec_digest.error();
  if (spec_digest.value() != ck.spec_digest)
    return Error{"resume: checkpoint was taken on a different specification"};
  if (explore_options_digest(options) != ck.options_digest)
    return Error{
        "resume: checkpoint was taken with different exploration options"};

  const CompiledSpec& cs = spec.compiled();
  Result<EnumCursor> cursor = checkpoint_cursor(ck, cs);
  if (!cursor.ok()) return cursor.error();
  stream.restore(cursor.value());

  // Rebuild the front without charging the run budget: its work was
  // already accounted in the checkpointed counters.
  ImplementationOptions rebuild = options.implementation;
  rebuild.solver.budget = nullptr;

  ExploreResumeState state;
  for (const ExploreCheckpoint::FrontEntry& fe : ck.front) {
    Result<AllocSet> alloc = checkpoint_alloc(fe.units, cs);
    if (!alloc.ok()) return alloc.error();
    std::optional<Implementation> impl =
        build_implementation(cs, alloc.value(), rebuild, nullptr);
    if (!impl.has_value())
      return Error{
          "resume: checkpointed front point is not implementable (corrupt "
          "checkpoint?)"};
    for (const std::vector<std::uint32_t>& eq_units : fe.equivalents) {
      Result<AllocSet> eq_alloc = checkpoint_alloc(eq_units, cs);
      if (!eq_alloc.ok()) return eq_alloc.error();
      std::optional<Implementation> eq =
          build_implementation(cs, eq_alloc.value(), rebuild, nullptr);
      if (!eq.has_value())
        return Error{
            "resume: checkpointed equivalent is not implementable (corrupt "
            "checkpoint?)"};
      impl->equivalents.push_back(std::move(*eq));
    }
    state.front.push_back(std::move(*impl));
  }
  for (const std::vector<std::uint32_t>& units : ck.pending) {
    Result<AllocSet> alloc = checkpoint_alloc(units, cs);
    if (!alloc.ok()) return alloc.error();
    state.pending.push_back(std::move(alloc).value());
  }
  state.counters = ck.counters;
  return state;
}

Result<ExploreCheckpoint> build_explore_checkpoint(
    const SpecificationGraph& spec, const ExploreOptions& options,
    const std::vector<Implementation>& front,
    const std::vector<AllocSet>& pending, const CostOrderedAllocations& stream,
    const ExploreCheckpoint::Counters& counters) {
  ExploreCheckpoint ck;
  Result<std::string> spec_digest = explore_spec_digest(spec);
  if (!spec_digest.ok()) return spec_digest.error();
  ck.spec_digest = std::move(spec_digest).value();
  ck.options_digest = explore_options_digest(options);
  for (const Implementation& point : front) {
    ExploreCheckpoint::FrontEntry fe;
    fe.units = checkpoint_units(point.units);
    for (const Implementation& eq : point.equivalents)
      fe.equivalents.push_back(checkpoint_units(eq.units));
    ck.front.push_back(std::move(fe));
  }
  for (const AllocSet& alloc : pending)
    ck.pending.push_back(checkpoint_units(alloc));
  EnumCursor cursor = stream.cursor();
  ck.frontier = std::move(cursor.frontier);
  ck.emitted = cursor.emitted;
  ck.pruned = cursor.pruned;
  ck.counters = counters;
  return ck;
}

}  // namespace sdf
