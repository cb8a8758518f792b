// Unit tests for the util layer: ids, bitsets, rng, strings, json, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "util/dyn_bitset.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/word_hash.hpp"

namespace sdf {
namespace {

// ---- StrongId ---------------------------------------------------------------

struct TestTag {};
using TestId = StrongId<TestTag>;

TEST(StrongId, DefaultConstructedIsInvalid) {
  TestId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, RoundTripsValue) {
  TestId id{42u};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(TestId{3u}, TestId{3u});
  EXPECT_LT(TestId{2u}, TestId{5u});
  EXPECT_NE(TestId{1u}, TestId{});
}

TEST(StrongId, HashesIntoUnorderedContainers) {
  std::unordered_set<TestId> set;
  set.insert(TestId{1u});
  set.insert(TestId{1u});
  set.insert(TestId{2u});
  EXPECT_EQ(set.size(), 2u);
}

// ---- Result / Status --------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(Result, HoldsError) {
  Result<int> r(Error{"boom"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, ErrorWrapPrependsContext) {
  const Error e = Error{"inner"}.wrap("outer");
  EXPECT_EQ(e.message, "outer: inner");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s = Error{"bad"};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message, "bad");
}

// ---- DynBitset --------------------------------------------------------------

TEST(DynBitset, StartsEmpty) {
  DynBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
}

TEST(DynBitset, SetAndTest) {
  DynBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynBitset, SetAlgebra) {
  DynBitset a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);
  const DynBitset u = a | b;
  EXPECT_EQ(u.members(), (std::vector<std::size_t>{1, 3, 5}));
  const DynBitset i = a & b;
  EXPECT_EQ(i.members(), (std::vector<std::size_t>{3}));
  const DynBitset d = a - b;
  EXPECT_EQ(d.members(), (std::vector<std::size_t>{1}));
}

TEST(DynBitset, SubsetAndIntersects) {
  DynBitset a(10), b(10), c(10);
  a.set(2);
  b.set(2);
  b.set(4);
  c.set(7);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(DynBitset(10).is_subset_of(a));
}

TEST(DynBitset, FindFirstScansAcrossWords) {
  DynBitset b(200);
  b.set(130);
  b.set(199);
  EXPECT_EQ(b.find_first(), 130u);
  EXPECT_EQ(b.find_first(131), 199u);
  EXPECT_EQ(b.find_first(200), DynBitset::npos);
  DynBitset empty(200);
  EXPECT_EQ(empty.find_first(), DynBitset::npos);
}

TEST(DynBitset, ResizeGrowsKeepingBits) {
  DynBitset b(5);
  b.set(4);
  b.resize(128);
  EXPECT_TRUE(b.test(4));
  EXPECT_EQ(b.count(), 1u);
  b.set(127);
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynBitset, EqualityAndHash) {
  DynBitset a(64), b(64);
  a.set(13);
  b.set(13);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(14);
  EXPECT_FALSE(a == b);
}

TEST(DynBitset, ToStringListsMembers) {
  DynBitset b(10);
  b.set(0);
  b.set(7);
  EXPECT_EQ(b.to_string(), "{0,7}");
  EXPECT_EQ(DynBitset(4).to_string(), "{}");
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= a.next() != b.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ---- strings ----------------------------------------------------------------

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125), "0.125");
  EXPECT_EQ(format_double(100.0, 2), "100");
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strprintf("empty"), "empty");
}

// ---- Json -------------------------------------------------------------------

TEST(Json, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(2.5).as_number(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_TRUE(Json(JsonArray{}).is_array());
  EXPECT_TRUE(Json(JsonObject{}).is_object());
}

TEST(Json, ObjectFieldLookup) {
  Json obj{JsonObject{}};
  obj.set("a", 1.0);
  obj.set("b", "two");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.number_or("a", 0), 1.0);
  EXPECT_EQ(obj.string_or("b", ""), "two");
  EXPECT_EQ(obj.number_or("missing", -1), -1.0);
  obj.set("a", 9.0);  // overwrite
  EXPECT_EQ(obj.number_or("a", 0), 9.0);
}

TEST(Json, DumpCompact) {
  Json obj{JsonObject{}};
  obj.set("n", 3);
  obj.set("s", "x\"y");
  obj.set("arr", JsonArray{Json(1), Json(false), Json(nullptr)});
  EXPECT_EQ(obj.dump(), R"({"n":3,"s":"x\"y","arr":[1,false,null]})");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"name":"g","vals":[1,2.5,-300],"flag":true,"none":null,"nested":{"k":"v"}})";
  Result<Json> parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().dump(), text);
  // Exponent notation parses to the same value.
  Result<Json> expo = Json::parse("-3e2");
  ASSERT_TRUE(expo.ok());
  EXPECT_EQ(expo.value().as_number(), -300.0);
}

TEST(Json, ParseEscapes) {
  Result<Json> parsed = Json::parse(R"("a\nb\tA\\")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "a\nb\tA\\");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":1} x").ok());
  EXPECT_FALSE(Json::parse("nul").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
}

TEST(Json, PrettyPrintIndents) {
  Json obj{JsonObject{}};
  obj.set("a", 1);
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, LargeNumbersRoundTripAndNonFiniteDumpsNull) {
  // Out of the int64 range: formatted without the (undefined) cast, every
  // digit kept.
  const double big = std::ldexp(1.0, 121);
  for (double d : {big, -big, 1e300, -1e300, 1e15 + 0.5}) {
    const std::string text = Json(d).dump();
    Result<Json> back = Json::parse(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(back.value().as_number(), d) << text;
  }
  // JSON has no inf or NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {inf, -inf, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(Json(d).dump(), "null");
  Json obj{JsonObject{}};
  obj.set("raw", inf);
  EXPECT_EQ(obj.dump(), R"({"raw":null})");
  EXPECT_TRUE(Json::parse(obj.dump(2)).ok());
}

TEST(Json, WriterEmitsDumpBytesInSinkChunks) {
  Result<Json> doc = Json::parse(
      R"({"a":[1,2.5,[],{},"x\ny"],"b":{"c":null,"d":[true,false]},"e":[]})");
  ASSERT_TRUE(doc.ok());
  for (int indent : {-1, 0, 2}) {
    JsonWriter whole(indent);
    doc.value().write(whole);
    EXPECT_EQ(whole.take(), doc.value().dump(indent));
  }
  // With a sink the output arrives in pieces that concatenate to the same
  // bytes; a document far larger than the writer's buffer proves it.
  JsonArray rows;
  for (int i = 0; i < 20000; ++i) rows.emplace_back(JsonArray{i, "row"});
  const Json big{std::move(rows)};
  std::string sunk;
  std::size_t pieces = 0;
  JsonWriter chunked(2, [&](std::string_view piece) {
    sunk.append(piece);
    ++pieces;
  });
  big.write(chunked);
  chunked.flush();
  EXPECT_EQ(sunk, big.dump(2));
  EXPECT_GT(pieces, 1u);
}

TEST(Json, ParsePreservesKeyOrder) {
  Result<Json> parsed = Json::parse(R"({"z":1,"a":2})");
  ASSERT_TRUE(parsed.ok());
  const JsonObject& obj = parsed.value().as_object();
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
}

// ---- Table ------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"a", "long"});
  t.add_row({"xxxx", "y"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| a    | long |"), std::string::npos);
  EXPECT_NE(ascii.find("| xxxx | y    |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"h1", "h2"});
  t.add_row({"a,b", "say \"hi\""});
  EXPECT_EQ(t.to_csv(), "h1,h2\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, CountsRows) {
  Table t({"c"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 1u);
}

// ---- WordHash64 ----------------------------------------------------------------

TEST(WordHash64, ChunkingDoesNotChangeTheValue) {
  // Not a multiple of the 8-byte word or the 32-byte stripe.
  std::string text;
  for (std::uint32_t i = 0; i < 200 * 1024 + 13; ++i)
    text.push_back(static_cast<char>((i * 2654435761u) >> 13));
  const std::uint64_t one_shot = word_hash64(text);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64 * 1024}}) {
    WordHash64 h;
    for (std::size_t i = 0; i < text.size(); i += chunk)
      h.update(std::string_view(text).substr(i, chunk));
    EXPECT_EQ(h.finish(), one_shot) << chunk << "-byte chunks";
  }
  // Every tail length, fed byte by byte.
  for (std::size_t n = 0; n <= 70; ++n) {
    WordHash64 h;
    for (std::size_t i = 0; i < n; ++i) h.update(std::string_view(text).substr(i, 1));
    EXPECT_EQ(h.finish(), word_hash64(std::string_view(text).substr(0, n)))
        << n << " bytes";
  }
}

TEST(WordHash64, LengthAndEveryByteCount) {
  const std::string text(100, 'a');
  // The last word is zero-padded; the folded-in length tells the padding
  // from a zero byte.
  EXPECT_NE(word_hash64(""), word_hash64(std::string(1, '\0')));
  WordHash64 empty_feeds;
  empty_feeds.update(std::string_view());
  empty_feeds.update("a");
  empty_feeds.update(std::string_view());
  EXPECT_EQ(empty_feeds.finish(), word_hash64("a"));
  EXPECT_NE(word_hash64(text), word_hash64(text + '\0'));
  std::set<std::uint64_t> values;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string flipped = text;
    flipped[i] = 'b';
    values.insert(word_hash64(flipped));
  }
  EXPECT_EQ(values.size(), text.size());
  EXPECT_EQ(values.count(word_hash64(text)), 0u);
}

}  // namespace
}  // namespace sdf
