// Chunk-size sweep over the streaming specification front door: every
// example spec and both paper models must parse byte-identically — same
// canonical serialization, same digest, same lint output — whether the
// input arrives as one buffer, in chunks of 1..64 bytes, or split at
// random points.  Also pinned: the example specs' digests and byte-exact
// round trips, and how the reader resolves duplicated and unknown names.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "explore/checkpoint.hpp"
#include "lint/lint.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/byte_reader.hpp"

namespace sdf {
namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Serves a buffer in randomly sized chunks (1..17 bytes).
class RandomChunkReader final : public ByteReader {
 public:
  RandomChunkReader(std::string_view data, std::uint64_t seed)
      : data_(data), rng_(seed) {}

  Result<std::size_t> read(char* out, std::size_t capacity) override {
    std::size_t n = data_.size() - pos_;
    if (n == 0) return std::size_t{0};
    n = std::min<std::size_t>(n, 1 + splitmix64(rng_) % 17);
    n = std::min(n, capacity);
    data_.copy(out, n, pos_);
    pos_ += n;
    return n;
  }

 private:
  std::string_view data_;
  std::uint64_t rng_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The sweep corpus: every example spec plus both serialized paper models.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const char* name : {"decoder.json", "settop.json"})
    docs.emplace_back(name,
                      read_file(std::string(SDF_EXAMPLES_DIR) + "/" + name));
  Result<std::string> tv = spec_to_string(models::make_tv_decoder_spec());
  EXPECT_TRUE(tv.ok());
  docs.emplace_back("tv_decoder (paper model)", std::move(tv).value());
  Result<std::string> settop = spec_to_string(models::make_settop_spec());
  EXPECT_TRUE(settop.ok());
  docs.emplace_back("settop (paper model)", std::move(settop).value());
  return docs;
}

struct ParseOutcome {
  std::string serialized;
  std::string digest;
  std::string lint_text;
};

ParseOutcome outcome_of(const SpecificationGraph& spec) {
  ParseOutcome out;
  Result<std::string> text = spec_to_string(spec);
  EXPECT_TRUE(text.ok());
  out.serialized = text.ok() ? text.value() : "<serialize failed>";
  Result<std::string> digest = explore_spec_digest(spec);
  EXPECT_TRUE(digest.ok());
  out.digest = digest.ok() ? digest.value() : "<digest failed>";
  out.lint_text = lint(spec).to_text();
  return out;
}

TEST(SpecStream, ChunkSweepIsByteIdentical) {
  for (const auto& [name, text] : corpus()) {
    SCOPED_TRACE(name);
    // Reference: the single-shot front door.
    Result<SpecificationGraph> reference = spec_from_string(text);
    ASSERT_TRUE(reference.ok()) << reference.error().message;
    const ParseOutcome expected = outcome_of(reference.value());

    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      StringViewByteReader reader(text, chunk);
      Result<SpecificationGraph> streamed = spec_from_stream(reader);
      ASSERT_TRUE(streamed.ok())
          << "chunk " << chunk << ": " << streamed.error().message;
      const ParseOutcome got = outcome_of(streamed.value());
      ASSERT_EQ(got.serialized, expected.serialized) << "chunk " << chunk;
      ASSERT_EQ(got.digest, expected.digest) << "chunk " << chunk;
      ASSERT_EQ(got.lint_text, expected.lint_text) << "chunk " << chunk;
    }
  }
}

TEST(SpecStream, RandomSplitPointsAreByteIdentical) {
  for (const auto& [name, text] : corpus()) {
    SCOPED_TRACE(name);
    Result<SpecificationGraph> reference = spec_from_string(text);
    ASSERT_TRUE(reference.ok()) << reference.error().message;
    const ParseOutcome expected = outcome_of(reference.value());

    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      RandomChunkReader reader(text, seed);
      Result<SpecificationGraph> streamed = spec_from_stream(reader);
      ASSERT_TRUE(streamed.ok())
          << "seed " << seed << ": " << streamed.error().message;
      const ParseOutcome got = outcome_of(streamed.value());
      ASSERT_EQ(got.serialized, expected.serialized) << "seed " << seed;
      ASSERT_EQ(got.digest, expected.digest) << "seed " << seed;
      ASSERT_EQ(got.lint_text, expected.lint_text) << "seed " << seed;
    }
  }
}

TEST(SpecStream, DomPathAgreesWithStreamingPath) {
  // spec_from_json replays the DOM through the same schema reader; the
  // result must match the pure-streaming parse of the same text.
  for (const auto& [name, text] : corpus()) {
    SCOPED_TRACE(name);
    Result<Json> doc = Json::parse(text);
    ASSERT_TRUE(doc.ok());
    Result<SpecificationGraph> via_dom = spec_from_json(doc.value());
    ASSERT_TRUE(via_dom.ok()) << via_dom.error().message;
    Result<SpecificationGraph> via_stream = spec_from_string(text);
    ASSERT_TRUE(via_stream.ok());
    EXPECT_EQ(outcome_of(via_dom.value()).serialized,
              outcome_of(via_stream.value()).serialized);
  }
}

TEST(SpecStream, ErrorsAreChunkInvariantToo) {
  const std::vector<std::string> bad = {
      "",
      "{",
      R"({"name":"x"})",
      R"({"problem":7,"architecture":{"root":{"nodes":[]}}})",
      R"({"problem":{"root":{"nodes":[],"edges":[{"from":"a","to":"b"}]}}})",
      std::string(1000, '['),
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text.substr(0, 60));
    Result<SpecificationGraph> reference = spec_from_string(text);
    ASSERT_FALSE(reference.ok());
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      StringViewByteReader reader(text, chunk);
      Result<SpecificationGraph> streamed = spec_from_stream(reader);
      ASSERT_FALSE(streamed.ok()) << "chunk " << chunk;
      EXPECT_EQ(streamed.error().message, reference.error().message)
          << "chunk " << chunk;
    }
  }
}

TEST(SpecStream, IngestCapsGuardTheFrontDoor) {
  // A nesting bomb (hidden in an ignored subtree, so the schema reader
  // skips rather than vetoes it) is rejected by the default ingest limits…
  const std::string bomb = "{\"unknown\": " + std::string(100000, '[');
  Result<SpecificationGraph> r = spec_from_string(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos);

  // …and callers can tighten the caps further.
  SpecParseOptions tight;
  tight.limits.max_total_bytes = 32;
  Result<SpecificationGraph> capped =
      spec_from_string(corpus()[0].second, tight);
  ASSERT_FALSE(capped.ok());
  EXPECT_NE(capped.error().message.find("max_total_bytes"), std::string::npos);
}

TEST(SpecStream, SpecFromFileMatchesString) {
  const auto docs = corpus();
  const std::string& text = docs[0].second;
  const std::string path = ::testing::TempDir() + "/spec_stream_test.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  Result<SpecificationGraph> from_file = spec_from_file(path);
  ASSERT_TRUE(from_file.ok()) << from_file.error().message;
  Result<SpecificationGraph> from_string = spec_from_string(text);
  ASSERT_TRUE(from_string.ok());
  EXPECT_EQ(outcome_of(from_file.value()).serialized,
            outcome_of(from_string.value()).serialized);

  Result<SpecificationGraph> missing = spec_from_file(path + ".nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message.find("cannot open"), std::string::npos);
}

// ---- pins: what the linear-time front door must not change ------------------

TEST(SpecStreamPins, ExampleDigestsKeepTheirValues) {
  // Checkpoints written by earlier builds carry these digests; a resume
  // needs the same value from the same specification.  Pinned for
  // checkpoint format version 2 (`WordHash64`).
  const std::pair<const char*, const char*> pins[] = {
      {"settop.json", "f540c647e8c159e6"},
      {"decoder.json", "3585c5d32d57ecaa"},
      {"nested.json", "04bfc3add9261c1a"},
  };
  for (const auto& [name, digest] : pins) {
    SCOPED_TRACE(name);
    Result<SpecificationGraph> spec =
        spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/" + name);
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    Result<std::string> got = explore_spec_digest(spec.value());
    ASSERT_TRUE(got.ok()) << got.error().message;
    EXPECT_EQ(got.value(), digest);
  }
}

TEST(SpecStreamPins, EveryKindOfEditChangesTheDigest) {
  const std::string base =
      R"({"name":"d","problem":{"name":"P","root":{"name":"r","nodes":[)"
      R"({"name":"a","kind":"vertex","attrs":{"period":10}},)"
      R"({"name":"i","kind":"interface","ports":[{"name":"in",)"
      R"("direction":"in","mapping":{"c1":"x","c2":"y"}}],"clusters":[)"
      R"({"name":"c1","nodes":[{"name":"x"},{"name":"x2"}]},)"
      R"({"name":"c2","nodes":[{"name":"y"},{"name":"y2"}]}]},)"
      R"({"name":"b"}],"edges":[{"from":"a","to":"i","dst_port":"in"}]}},)"
      R"("architecture":{"name":"A","root":{"name":"r","nodes":[)"
      R"({"name":"cpu","attrs":{"cost":5}}]}},)"
      R"("mappings":[{"process":"a","resource":"cpu","latency":3}]})";
  const auto digest_of = [](const std::string& text) {
    Result<SpecificationGraph> spec = spec_from_string(text);
    EXPECT_TRUE(spec.ok()) << spec.error().message;
    if (!spec.ok()) return std::string();
    Result<std::string> digest = explore_spec_digest(spec.value());
    EXPECT_TRUE(digest.ok());
    return digest.ok() ? digest.value() : std::string();
  };
  const std::string reference = digest_of(base);
  ASSERT_FALSE(reference.empty());
  const std::pair<const char*, std::pair<const char*, const char*>> edits[] =
      {{"rename a node", {R"("name":"b")", R"("name":"b2")"}},
       {"change an attribute", {R"("period":10)", R"("period":11)"}},
       {"add an edge", {R"("dst_port":"in"})", R"("dst_port":"in"},)"
                                               R"({"from":"a","to":"b"})"}},
       {"remap a port", {R"("c1":"x")", R"("c1":"x2")"}},
       {"change a mapping latency", {R"("latency":3)", R"("latency":4)"}}};
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    std::string text = base;
    const std::size_t at = text.find(edit.first);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string_view(edit.first).size(), edit.second);
    EXPECT_NE(digest_of(text), reference);
  }
}

TEST(SpecStreamPins, TheDigestIsKeptUntilTheSpecChanges) {
  Result<SpecificationGraph> loaded =
      spec_from_file(std::string(SDF_EXAMPLES_DIR) + "/settop.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  SpecificationGraph& spec = loaded.value();
  const Result<std::string>& memo = spec.compiled().digest();
  ASSERT_TRUE(memo.ok());
  const std::string reference = memo.value();
  EXPECT_EQ(&spec.compiled().digest(), &memo);  // hashed once per index

  const auto digest = [&spec] {
    Result<std::string> d = explore_spec_digest(spec);
    EXPECT_TRUE(d.ok());
    return d.ok() ? d.value() : std::string();
  };
  EXPECT_EQ(digest(), reference);
  const std::string name = spec.name();
  spec.set_name(name + "-renamed");
  EXPECT_NE(digest(), reference);
  spec.set_name(name);
  EXPECT_EQ(digest(), reference);
  spec.problem().add_vertex(spec.problem().root(), "extra");
  EXPECT_NE(digest(), reference);
}

TEST(SpecStreamPins, ExamplesRoundTripByteForByte) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SDF_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    ++files;
    const std::string text = read_file(entry.path().string());
    Result<SpecificationGraph> spec = spec_from_string(text);
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    Result<std::string> again = spec_to_string(spec.value());
    ASSERT_TRUE(again.ok()) << again.error().message;
    EXPECT_TRUE(again.value() + "\n" == text);
  }
  EXPECT_GE(files, 3u);
}

// Names repeat inside each graph: two problem nodes "P" (in clusters "g"
// and "h" of interface I), two clusters "g", a cluster named like the root
// cluster, and an interface "J" sharing its name with a vertex inside it.
constexpr const char* kDuplicateNamesSpec = R"({
  "name": "dups",
  "problem": {"root": {"nodes": [
    {"name": "I", "kind": "interface", "clusters": [
      {"name": "g", "nodes": [{"name": "P"}]},
      {"name": "h", "nodes": [{"name": "P"}]}]},
    {"name": "J", "kind": "interface", "clusters": [
      {"name": "g", "nodes": [{"name": "J"}, {"name": "Q"}]},
      {"name": "G_P.root", "nodes": [{"name": "Q"}]}],
     "ports": [{"name": "a", "mapping": {"g": "P", "h": "J"}},
               {"name": "b", "mapping": {"G_P.root": "Q"}}]}]}},
  "architecture": {"root": {"nodes": [
    {"name": "R", "attrs": {"cost": 1}}, {"name": "R", "attrs": {"cost": 2}}]}},
  "mappings": [{"process": "P", "resource": "R", "latency": 1},
               {"process": "J", "resource": "R", "latency": 2},
               {"process": "Q", "resource": "R", "latency": 3}]
})";

TEST(SpecStreamNames, DuplicateNamesResolveToTheFirstMatch) {
  Result<SpecificationGraph> loaded = spec_from_string(
      kDuplicateNamesSpec, SpecParseOptions{.validate = false});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const SpecificationGraph& spec = loaded.value();
  const HierarchicalGraph& p = spec.problem();
  const HierarchicalGraph& a = spec.architecture();

  // Mapping edges attach to what the linear scans find: the first node of
  // that name in id order, an interface included.
  ASSERT_EQ(spec.mappings().size(), 3u);
  const NodeId first_p = p.find_node("P");
  EXPECT_EQ(p.node(first_p).parent, p.find_cluster("g"));
  EXPECT_EQ(spec.mappings()[0].process, first_p);
  EXPECT_TRUE(p.node(spec.mappings()[1].process).is_interface());
  EXPECT_EQ(spec.mappings()[1].process, p.find_node("J"));
  EXPECT_EQ(spec.mappings()[2].process, p.find_node("Q"));
  for (const MappingEdge& m : spec.mappings())
    EXPECT_EQ(m.resource, a.find_node("R"));

  // Port mappings resolve the same way; a cluster named like the root
  // cluster resolves to the root.
  const Node& j = p.node(p.find_node("J"));
  ASSERT_EQ(j.ports.size(), 2u);
  const Port& port_a = p.port(j.ports[0]);
  const std::map<ClusterId, NodeId> expected_a = {
      {p.find_cluster("g"), first_p}, {p.find_cluster("h"), j.id}};
  EXPECT_EQ(port_a.mapping, expected_a);
  EXPECT_EQ(p.node(p.cluster(p.find_cluster("g")).parent).name, "I");
  const Port& port_b = p.port(j.ports[1]);
  const std::map<ClusterId, NodeId> expected_b = {{p.root(), p.find_node("Q")}};
  EXPECT_EQ(port_b.mapping, expected_b);
}

TEST(SpecStreamNames, UnknownNamesFailWithTheSameMessages) {
  const std::string arch =
      R"("architecture": {"root": {"nodes": [{"name": "R"}]}})";
  const auto doc = [&](const std::string& ports, const std::string& mapping) {
    return R"({"problem": {"root": {"nodes": [{"name": "I", "kind": )"
           R"("interface", "clusters": [{"name": "g", "nodes": )"
           R"([{"name": "P"}]}], "ports": [{"name": "x", "mapping": )" +
           ports + "}]}]}}, " + arch + R"(, "mappings": [)" + mapping + "]}";
  };
  const std::string ok_ports = R"({"g": "P"})";
  const std::pair<std::string, std::string> cases[] = {
      {doc(ok_ports, R"({"process": "Nope", "resource": "R"})"),
       "mapping references unknown process 'Nope'"},
      {doc(ok_ports, R"({"process": "P", "resource": "Nope"})"),
       "mapping references unknown resource 'Nope'"},
      {doc(R"({"nope": "P"})", ""),
       "problem graph: port mapping references unknown cluster 'nope'"},
      {doc(R"({"g": "nope"})", ""),
       "problem graph: port mapping references unknown node 'nope'"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(message);
    ASSERT_TRUE(spec_from_string(doc(ok_ports, ""),
                                 SpecParseOptions{.validate = false})
                    .ok());
    Result<SpecificationGraph> r =
        spec_from_string(text, SpecParseOptions{.validate = false});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message, message);
  }
}

}  // namespace
}  // namespace sdf
