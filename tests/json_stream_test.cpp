// Streaming JSON parser: chunk-split invariance, resource caps, and the
// bounded-memory contract (`peak_buffered_bytes`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/json_stream.hpp"

namespace sdf {
namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Parses `text` feeding `chunk` bytes at a time; returns dump(2) on
/// success or "ERROR: <message>" on failure, so both verdict and message
/// participate in the invariance comparison.
std::string parse_chunked(const std::string& text, std::size_t chunk,
                          const JsonLimits& limits = {}) {
  JsonDomBuilder builder;
  JsonStreamParser parser(builder, limits);
  for (std::size_t at = 0; at < text.size(); at += chunk) {
    const std::size_t n = std::min(chunk, text.size() - at);
    if (Status s = parser.feed(std::string_view(text).substr(at, n)); !s.ok())
      return "ERROR: " + s.error().message;
  }
  if (Status s = parser.finish(); !s.ok())
    return "ERROR: " + s.error().message;
  return builder.take().dump(2);
}

std::string parse_single(const std::string& text,
                         const JsonLimits& limits = {}) {
  Result<Json> doc = Json::parse(text, limits);
  if (!doc.ok()) return "ERROR: " + doc.error().message;
  return doc.value().dump(2);
}

TEST(JsonStream, EveryChunkSizeProducesIdenticalResults) {
  const std::vector<std::string> docs = {
      R"({"name":"x","nested":{"a":[1,2,3],"b":null},"t":true,"f":false})",
      R"([1, -2.5, 1e10, 0.125, "str with \"quotes\" and \\ and A"])",
      R"({"é中":"key escapes", "empty":[], "eo":{}, "deep":[[[[[1]]]]]})",
      "  42  ",
      R"("lone string")",
      "null",
      // Invalid documents must fail identically at every split, too.
      R"({"a":1,})",
      R"([1,2)",
      R"({"a" 1})",
      "nullx",
      R"("unterminated \u12)",
      "1e999",
  };
  for (const std::string& doc : docs) {
    const std::string reference = parse_single(doc);
    for (std::size_t chunk = 1; chunk <= doc.size(); ++chunk)
      EXPECT_EQ(parse_chunked(doc, chunk), reference)
          << "doc: " << doc << " chunk: " << chunk;
  }
}

TEST(JsonStream, RandomSplitPointsProduceIdenticalResults) {
  const std::string doc =
      R"({"problem":{"root":{"nodes":[{"name":"PA","kind":"vertex",)"
      R"("attrs":{"w":1.5,"n":-3e2}}],"edges":[]}},"list":[null,true,false]})";
  const std::string reference = parse_single(doc);
  std::uint64_t rng = 7;
  for (int trial = 0; trial < 200; ++trial) {
    JsonDomBuilder builder;
    JsonStreamParser parser(builder, JsonLimits{});
    std::string got;
    std::size_t at = 0;
    bool failed = false;
    while (at < doc.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + splitmix64(rng) % 11, doc.size() - at);
      if (Status s = parser.feed(std::string_view(doc).substr(at, n));
          !s.ok()) {
        got = "ERROR: " + s.error().message;
        failed = true;
        break;
      }
      at += n;
    }
    if (!failed) {
      if (Status s = parser.finish(); !s.ok())
        got = "ERROR: " + s.error().message;
      else
        got = builder.take().dump(2);
    }
    EXPECT_EQ(got, reference) << "trial " << trial;
  }
}

TEST(JsonStream, ErrorsCarryAbsoluteByteOffsets) {
  // Offsets must be absolute across chunk boundaries, not chunk-relative.
  const std::string doc = R"({"key": !})";  // '!' at offset 8
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, doc.size()}) {
    const std::string got = parse_chunked(doc, chunk);
    EXPECT_NE(got.find("offset 8"), std::string::npos) << got;
    EXPECT_NE(got.find("invalid value"), std::string::npos) << got;
  }
}

TEST(JsonStream, DepthCapRejectsNestingBombs) {
  const std::string bomb(10000, '[');
  const std::string got = parse_single(bomb);
  EXPECT_NE(got.find("nesting too deep"), std::string::npos) << got;
  // Offset of the first '[' past the cap: depth 256 fails at byte 256.
  EXPECT_NE(got.find("offset 256"), std::string::npos) << got;
}

TEST(JsonStream, TotalBytesCapRejectsOversizedInput) {
  JsonLimits limits;
  limits.max_total_bytes = 64;
  const std::string big = "[" + std::string(1000, ' ') + "1]";
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, big.size()}) {
    const std::string got = parse_chunked(big, chunk, limits);
    EXPECT_NE(got.find("max_total_bytes (64)"), std::string::npos) << got;
    EXPECT_NE(got.find("offset 64"), std::string::npos) << got;
  }
}

TEST(JsonStream, StringCapRejectsGiantStrings) {
  JsonLimits limits;
  limits.max_string_bytes = 16;
  const std::string doc = "\"" + std::string(100, 'a') + "\"";
  for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, doc.size()}) {
    const std::string got = parse_chunked(doc, chunk, limits);
    EXPECT_NE(got.find("max_string_bytes (16)"), std::string::npos) << got;
  }
  // Escapes count decoded, not encoded: 17 copies of \n exceed 16 bytes.
  std::string escapes = "\"";
  for (int i = 0; i < 17; ++i) escapes += "\\n";
  escapes += "\"";
  EXPECT_NE(parse_single(escapes, limits).find("max_string_bytes"),
            std::string::npos);
  // Keys are capped exactly like string values.
  const std::string key_doc = "{\"" + std::string(100, 'k') + "\": 1}";
  EXPECT_NE(parse_single(key_doc, limits).find("max_string_bytes"),
            std::string::npos);
}

TEST(JsonStream, NodeCapRejectsValueFloods) {
  JsonLimits limits;
  limits.max_nodes = 8;
  std::string doc = "[1,2,3,4,5,6,7,8,9,10]";
  const std::string got = parse_single(doc, limits);
  EXPECT_NE(got.find("max_nodes (8)"), std::string::npos) << got;
  // Exactly at the cap is fine (the array itself counts as one node).
  EXPECT_EQ(parse_single("[1,2,3,4,5,6,7]", limits).find("ERROR"),
            std::string::npos);
}

TEST(JsonStream, ParserMemoryIsBoundedByCapsNotInputSize) {
  // A megabyte of small strings: the DOM grows, but the *parser's* own
  // retained state must stay bounded by max_string_bytes + depth/8.
  JsonLimits limits = JsonLimits::ingest_defaults();
  limits.max_string_bytes = 64;
  std::string doc = "[";
  for (int i = 0; i < 40000; ++i) {
    if (i) doc += ",";
    doc += "\"abcdefghijklmnopqrstuvwxyz\"";
  }
  doc += "]";
  ASSERT_GT(doc.size(), 1000000u);

  JsonDomBuilder builder;
  JsonStreamParser parser(builder, limits);
  for (std::size_t at = 0; at < doc.size(); at += 1024)
    ASSERT_TRUE(
        parser.feed(std::string_view(doc).substr(at, 1024)).ok());
  ASSERT_TRUE(parser.finish().ok());
  // Bound: max_string_bytes + max_depth/8 + small constant slack.
  EXPECT_LE(parser.peak_buffered_bytes(),
            64u + 256u / 8u + 16u);
  (void)builder.take();
}

TEST(JsonStream, CapViolationStopsBufferGrowthImmediately) {
  // Even when the input keeps coming, a tripped cap must not buffer more.
  JsonLimits limits;
  limits.max_string_bytes = 32;
  JsonDomBuilder builder;
  JsonStreamParser parser(builder, limits);
  const std::string giant = "\"" + std::string(1 << 20, 'x');
  EXPECT_FALSE(parser.feed(giant).ok());
  EXPECT_LE(parser.peak_buffered_bytes(), 32u + 256u / 8u + 16u);
  // The parser is stuck on the same error; feeding more is rejected and
  // retains nothing.
  EXPECT_FALSE(parser.feed("more").ok());
  EXPECT_LE(parser.peak_buffered_bytes(), 32u + 256u / 8u + 16u);
}

TEST(JsonStream, NonFiniteNumberLiteralsAreRejected) {
  for (const char* doc : {"1e999", "-1e999", "[1e309]", "{\"x\": 1e400}"}) {
    const std::string got = parse_single(doc);
    EXPECT_NE(got.find("number out of range (non-finite)"), std::string::npos)
        << doc << " -> " << got;
  }
  // The largest finite doubles still parse.
  EXPECT_EQ(parse_single("1e308").find("ERROR"), std::string::npos);
  EXPECT_EQ(parse_single("-1.7976931348623157e308").find("ERROR"),
            std::string::npos);
  // Underflow to zero is finite, not an error (matches strtod semantics).
  EXPECT_EQ(parse_single("1e-999").find("ERROR"), std::string::npos);
}

TEST(JsonStream, PathologicalNumberLiteralsAreCapped) {
  const std::string doc = "1" + std::string(100000, '0');
  const std::string got = parse_single(doc);
  EXPECT_NE(got.find("number literal too long"), std::string::npos) << got;
}

/// Chunk sizes around the front door's 4 KiB number cap and 64 KiB reads.
const std::size_t kBulkChunks[] = {1, 7, 4095, 4096, 4097, SIZE_MAX};

TEST(JsonStream, BulkNumberScanKeepsTheCapAndItsOffset) {
  const std::string doc = "1" + std::string(4999, '0');  // 5,000 digits
  for (std::size_t chunk : kBulkChunks) {
    const std::string got = parse_chunked(doc, std::min(chunk, doc.size()));
    EXPECT_EQ(got, "ERROR: JSON parse error at offset 4096: number literal "
                   "too long")
        << "chunk " << chunk;
  }
  // A number just under the cap, padded by whitespace runs, parses alike
  // at every split.
  const std::string ok = std::string(3000, ' ') + "[" +
                         std::string(4000, '1') + "e-3990 ," +
                         std::string(2000, '\n') + "2]" +
                         std::string(5000, '\t');
  const std::string reference = parse_single(ok);
  EXPECT_EQ(reference.find("ERROR"), std::string::npos) << reference;
  for (std::size_t chunk : kBulkChunks)
    EXPECT_EQ(parse_chunked(ok, std::min(chunk, ok.size())), reference)
        << "chunk " << chunk;
}

TEST(JsonStream, BulkWhitespaceScanStopsAtTheTotalBytesCap) {
  JsonLimits limits;
  limits.max_total_bytes = 5000;
  for (const std::string& doc :
       {"[" + std::string(9000, ' ') + "1]",
        "[1" + std::string(9000, '\n') + "]",
        "[1]" + std::string(9000, '\r')}) {
    for (std::size_t chunk : kBulkChunks) {
      const std::string got =
          parse_chunked(doc, std::min(chunk, doc.size()), limits);
      EXPECT_EQ(got, "ERROR: JSON parse error at offset 5000: input exceeds "
                     "max_total_bytes (5000)")
          << "chunk " << chunk;
    }
  }
}

TEST(JsonStream, IngestDefaultsAreGenerousButFinite) {
  const JsonLimits limits = JsonLimits::ingest_defaults();
  EXPECT_EQ(limits.max_depth, 256);
  EXPECT_EQ(limits.max_total_bytes, 256ull << 20);
  EXPECT_EQ(limits.max_string_bytes, 1ull << 20);
  EXPECT_EQ(limits.max_nodes, 8ull << 20);
}

TEST(JsonStream, BytesConsumedTracksInput) {
  JsonDomBuilder builder;
  JsonStreamParser parser(builder);
  ASSERT_TRUE(parser.feed("[1,").ok());
  EXPECT_EQ(parser.bytes_consumed(), 3u);
  ASSERT_TRUE(parser.feed("2]").ok());
  EXPECT_EQ(parser.bytes_consumed(), 5u);
  ASSERT_TRUE(parser.finish().ok());
}

TEST(JsonStream, ReplayRoundTripsTheEventStream) {
  const std::string doc =
      R"({"a":[1,null,{"b":"c"}],"d":true,"dup":1,"dup":2})";
  Result<Json> parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.ok());
  JsonDomBuilder rebuilt;
  ASSERT_TRUE(replay_json_events(parsed.value(), rebuilt).ok());
  EXPECT_EQ(rebuilt.take().dump(2), parsed.value().dump(2));
}

}  // namespace
}  // namespace sdf
