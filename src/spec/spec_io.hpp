// JSON (de)serialization of specification graphs.
//
// The schema mirrors the model one-to-one: a graph is its root cluster;
// a cluster holds nodes and edges; an interface node holds its alternative
// clusters and ports.  All cross-references (edges, port mappings, mapping
// edges) are by name, so node/cluster names must be unique within their
// graph for a specification to round-trip.
//
// Example:
//   {
//     "name": "tv_decoder",
//     "problem": { "root": { "nodes": [...], "edges": [...] } },
//     "architecture": { ... },
//     "mappings": [ {"process": "Pu1", "resource": "uP", "latency": 40} ]
//   }
#pragma once

#include <string>
#include <vector>

#include "spec/specification.hpp"
#include "util/byte_reader.hpp"
#include "util/json.hpp"
#include "util/json_stream.hpp"

namespace sdf {

/// Writes `spec` as the next value of `out`, straight from the graph with
/// no intermediate DOM.  Fails, before writing anything, when names are not
/// unique within a graph (the format references entities by name).
[[nodiscard]] Status write_spec(const SpecificationGraph& spec,
                                JsonWriter& out);

/// The canonical text: `write_spec` pretty-printed with a 2-space indent.
[[nodiscard]] Result<std::string> spec_to_string(
    const SpecificationGraph& spec);

/// The entities of `g` whose names the format cannot tell apart: every node
/// whose name an earlier node (id order) already has, and likewise every
/// non-root cluster.  `write_spec` refuses a graph with any; lint rule
/// SDF022 reports each one.
struct DuplicateNames {
  std::vector<NodeId> nodes;
  std::vector<ClusterId> clusters;
};
[[nodiscard]] DuplicateNames find_duplicate_names(const HierarchicalGraph& g);

/// Options controlling specification parsing.
struct SpecParseOptions {
  /// Run `SpecificationGraph::validate()` after parsing and fail on the
  /// first structural error.  Diagnostic tools (`sdf lint` / `sdf validate`)
  /// turn this off so they can load a defective specification and report
  /// *all* findings through the lint engine instead.
  bool validate = true;
  /// Resource caps applied while parsing (see `JsonLimits`).  The front
  /// door defaults to the ingest caps: hostile inputs that are small on
  /// the wire but explosive in memory are rejected mid-parse, before the
  /// memory is ever allocated.
  JsonLimits limits = JsonLimits::ingest_defaults();
};

/// Parses a specification from a JSON document.  Shares the streaming
/// schema reader with `spec_from_stream` (the DOM is replayed as an event
/// stream), so both paths accept exactly the same documents.
[[nodiscard]] Result<SpecificationGraph> spec_from_json(
    const Json& doc, const SpecParseOptions& options = {});

/// Parses a specification from JSON text.  Thin shim over
/// `spec_from_stream`: the whole text is fed as one chunk.
[[nodiscard]] Result<SpecificationGraph> spec_from_string(
    std::string_view text, const SpecParseOptions& options = {});

/// Streaming front door: pulls chunks from `in` and builds the
/// specification incrementally as elements complete.  Memory stays bounded
/// by `options.limits` regardless of input size; the input never needs to
/// be materialized as one contiguous buffer.  Within composite elements
/// the identifying keys must come first ("name"/"kind" before a node's
/// "clusters"/"ports", a cluster's "name" before its contents) — the order
/// the writer has always emitted.
[[nodiscard]] Result<SpecificationGraph> spec_from_stream(
    ByteReader& in, const SpecParseOptions& options = {});

/// Opens `path` ("-" = stdin) and parses it via `spec_from_stream`.
[[nodiscard]] Result<SpecificationGraph> spec_from_file(
    const std::string& path, const SpecParseOptions& options = {});

}  // namespace sdf
