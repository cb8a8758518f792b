#include "explore/checkpoint.hpp"

#include <cinttypes>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "explore/explorer.hpp"
#include "spec/compiled.hpp"
#include "util/json.hpp"
#include "util/json_stream.hpp"
#include "util/strings.hpp"
#include "util/word_hash.hpp"

namespace sdf {
namespace {

constexpr const char* kFormat = "sdf-explore-checkpoint";

std::string hex64(std::uint64_t value) {
  return strprintf("%016" PRIx64, value);
}

void write_units(JsonWriter& out, const std::vector<std::uint32_t>& units) {
  out.begin_array();
  for (const std::uint32_t u : units) out.number(u);
  out.end_array();
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

/// Writes `ck`'s JSON document to `out`.  Stops with an error once the
/// document, with `trailing` bytes still to follow it, holds more values or
/// bytes than a reader with `limits` accepts.
Status write_document(const ExploreCheckpoint& ck, JsonWriter& out,
                      const JsonLimits& limits, std::uint64_t trailing) {
  // `values`: what the document holds so far, or will hold.
  const auto check = [&](std::uint64_t values) -> Status {
    if (limits.max_nodes != 0 && values > limits.max_nodes)
      return Error{strprintf(
          "checkpoint would exceed max_nodes (%llu), the most values a "
          "resume reads",
          static_cast<unsigned long long>(limits.max_nodes))};
    if (limits.max_total_bytes != 0 &&
        out.bytes() + trailing > limits.max_total_bytes)
      return Error{strprintf(
          "checkpoint would exceed max_total_bytes (%llu), the most bytes a "
          "resume reads",
          static_cast<unsigned long long>(limits.max_total_bytes))};
    return Status::Ok();
  };

  out.begin_object();
  out.key("format").string(kFormat);
  out.key("version").number(ExploreCheckpoint::kVersion);
  out.key("spec_digest").string(ck.spec_digest);
  out.key("options_digest").string(ck.options_digest);

  out.key("front").begin_array();
  for (const ExploreCheckpoint::FrontEntry& fe : ck.front) {
    out.begin_object();
    write_units(out.key("units"), fe.units);
    if (!fe.equivalents.empty()) {
      out.key("equivalents").begin_array();
      for (const auto& units : fe.equivalents) write_units(out, units);
      out.end_array();
    }
    out.end_object();
  }
  out.end_array();

  out.key("pending").begin_array();
  for (const auto& units : ck.pending) {
    write_units(out, units);
    if (Status s = check(out.values()); !s.ok()) return s;
  }
  out.end_array();

  out.key("cursor").begin_object();
  out.key("emitted").number(static_cast<double>(ck.emitted));
  out.key("pruned").number(static_cast<double>(ck.pruned));
  // The values still to come follow from the chain heads: the frontier
  // array, one array per state plus its members, and the counters object.
  // A file past the cap is refused before any chain is written out.
  const EnumFrontier::Extent extent = ck.frontier.extent(limits.max_nodes);
  if (Status s = check(out.values() + 2 + std::size(kCounterFields) +
                       extent.states + extent.members);
      !s.ok())
    return s;
  // Chains written out, in canonical order: equal frontiers serialize
  // identically, whatever order and form the stream's heap left them in.
  const EnumFrontier plain = ck.frontier.written_out();
  out.key("frontier").begin_array();
  for (const std::size_t i : plain.canonical_order()) {
    write_units(out, plain.members(i));
    if (Status s = check(out.values()); !s.ok()) return s;
  }
  out.end_array();
  out.end_object();

  out.key("counters").begin_object();
  for (const CounterField& f : kCounterFields)
    out.key(f.key).number(static_cast<double>(ck.counters.*f.counters));
  out.end_object();
  out.end_object();
  return check(out.values());
}

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

Status ExploreCheckpoint::write(const JsonWriter::Sink& sink,
                                const JsonLimits& limits) const {
  JsonWriter out(2, sink);
  if (Status s = write_document(*this, out, limits, 1); !s.ok()) return s;
  out.flush();
  sink("\n");
  return Status::Ok();
}

std::string ExploreCheckpoint::to_string() const {
  std::string text;
  JsonWriter out(2, [&text](std::string_view chunk) { text.append(chunk); });
  // Unlimited caps: the text is only checked where a file is written.
  const Status s = write_document(*this, out, JsonLimits{}, 0);
  SDF_CHECK(s.ok(), "checkpoint text without caps failed");
  out.flush();
  return text;
}

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
  const Result<std::string>& digest = spec.compiled().digest();
  if (!digest.ok()) return digest.error().wrap("checkpoint digest");
  return digest.value();
}

std::string explore_options_digest(const ExploreOptions& options) {
  const SolverOptions& s = options.implementation.solver;
  // Every field that can change the *front* (engine parallelism and the
  // run budget deliberately excluded: they change work accounting and
  // where a run stops, never which points the completed front contains).
  const std::string canon = strprintf(
      "comm=%d ub=%.17g dom=%d fbound=%d bbound=%d stopmax=%d equiv=%d",
      static_cast<int>(s.comm_model), s.utilization_bound,
      static_cast<int>(options.prune_dominated_allocations),
      static_cast<int>(options.use_flexibility_bound),
      static_cast<int>(options.use_branch_bound),
      static_cast<int>(options.stop_at_max_flexibility),
      static_cast<int>(options.collect_equivalents));
  return hex64(word_hash64(canon));
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

  // A forged allocation past the activation limit is refused like any
  // other corrupt entry.
  const auto rebuild_point =
      [&](const std::vector<std::uint32_t>& units,
          const char* what) -> Result<Implementation> {
    Result<AllocSet> alloc = checkpoint_alloc(units, cs);
    if (!alloc.ok()) return alloc.error();
    std::optional<Implementation> impl;
    try {
      impl = build_implementation(cs, alloc.value(), rebuild, nullptr);
    } catch (const std::length_error& e) {
      return Error{strprintf("resume: checkpointed %s: %s", what, e.what())};
    }
    if (!impl.has_value())
      return Error{strprintf(
          "resume: checkpointed %s is not implementable (corrupt "
          "checkpoint?)",
          what)};
    return std::move(*impl);
  };

  ExploreResumeState state;
  for (const ExploreCheckpoint::FrontEntry& fe : ck.front) {
    Result<Implementation> impl = rebuild_point(fe.units, "front point");
    if (!impl.ok()) return impl.error();
    for (const std::vector<std::uint32_t>& eq_units : fe.equivalents) {
      Result<Implementation> eq = rebuild_point(eq_units, "equivalent");
      if (!eq.ok()) return eq.error();
      impl.value().equivalents.push_back(std::move(eq).value());
    }
    state.front.push_back(std::move(impl).value());
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
    const std::vector<AllocSet>& pending, EnumCursor cursor,
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
  ck.frontier = std::move(cursor.frontier);
  ck.emitted = cursor.emitted;
  ck.pruned = cursor.pruned;
  ck.counters = counters;
  return ck;
}

Result<ExploreCheckpoint> build_explore_checkpoint(
    const SpecificationGraph& spec, const ExploreOptions& options,
    const std::vector<Implementation>& front,
    const std::vector<AllocSet>& pending, const CostOrderedAllocations& stream,
    const ExploreCheckpoint::Counters& counters) {
  return build_explore_checkpoint(spec, options, front, pending,
                                  stream.cursor(), counters);
}

}  // namespace sdf
