// The `--resume` front door is untrusted input: truncated, bit-flipped,
// and handcrafted checkpoint files must all come back as clean errors —
// never a crash, never UB in the double→integer narrowing, and never an
// accepted state the writer cannot round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "explore/checkpoint.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/byte_reader.hpp"
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

/// A representative checkpoint produced by the real writer.
ExploreCheckpoint sample_checkpoint() {
  ExploreCheckpoint ck;
  ck.spec_digest = "00000000deadbeef";
  ck.options_digest = "cafef00d00000000";
  ck.front.push_back({{0, 2}, {{1, 2}}});
  ck.front.push_back({{0, 1, 3}, {}});
  ck.pending = {{0, 4}, {2, 3}};
  for (const std::vector<std::uint32_t>& state :
       std::vector<std::vector<std::uint32_t>>{{0}, {1, 2}, {3}})
    ck.frontier.push_back(state);
  ck.emitted = 17;
  ck.pruned = 4;
  ck.counters.candidates_generated = 17;
  ck.counters.solver_calls = 21;
  ck.counters.solver_nodes = 408;
  return ck;
}

TEST(CheckpointRobust, WriterOutputRoundTrips) {
  const std::string text = sample_checkpoint().to_string();
  Result<ExploreCheckpoint> back = ExploreCheckpoint::from_string(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().to_string(), text);
  EXPECT_EQ(back.value().emitted, 17u);
  EXPECT_EQ(back.value().front.size(), 2u);
  EXPECT_EQ(back.value().front[0].equivalents.size(), 1u);
}

TEST(CheckpointRobust, FileWriterRefusesExactlyWhatAReaderRefuses) {
  const ExploreCheckpoint ck = sample_checkpoint();
  std::string file;
  const auto into = [](std::string& text) {
    return [&text](std::string_view chunk) { text.append(chunk); };
  };
  ASSERT_TRUE(ck.write(into(file)).ok());
  EXPECT_EQ(file, ck.to_string() + "\n");

  // Caps the file just meets: written, and a reader accepts it.  One value
  // or one byte fewer: refused, naming the cap, as a reader refuses it.
  Result<Json> doc = Json::parse(file);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  JsonWriter counter(2);
  doc.value().write(counter);
  JsonLimits limits;
  limits.max_nodes = counter.values();
  limits.max_total_bytes = file.size();
  std::string again;
  EXPECT_TRUE(ck.write(into(again), limits).ok());
  EXPECT_EQ(again, file);
  EXPECT_TRUE(Json::parse(file, limits).ok());
  for (const bool nodes : {true, false}) {
    JsonLimits tight = limits;
    (nodes ? tight.max_nodes : tight.max_total_bytes) -= 1;
    std::string cut;
    const Status s = ck.write(into(cut), tight);
    ASSERT_FALSE(s.ok());
    const std::string cap =
        nodes ? "max_nodes (" + std::to_string(tight.max_nodes) + ")"
              : "max_total_bytes (" + std::to_string(tight.max_total_bytes) +
                    ")";
    EXPECT_NE(s.error().message.find(cap), std::string::npos)
        << s.error().message;
    EXPECT_FALSE(Json::parse(file, tight).ok());
  }

  // A frontier far past the cap stops the write early.
  ExploreCheckpoint big = sample_checkpoint();
  for (std::uint32_t i = 0; i < 5000; ++i) big.frontier.push_back({i, i + 1});
  std::string full;
  ASSERT_TRUE(big.write(into(full)).ok());
  limits.max_total_bytes = 0;
  limits.max_nodes = 1000;
  std::string cut;
  EXPECT_FALSE(big.write(into(cut), limits).ok());
  EXPECT_LT(cut.size(), full.size() / 2);
}

// A stream's frontier holds its unexpanded siblings as chains.  The writer
// counts the values they take from the chain heads, so it refuses a file
// past the value cap before writing any chain out, at exactly the count a
// reader refuses.
TEST(CheckpointRobust, ChainedFrontierIsRefusedByItsCount) {
  const SpecificationGraph spec = models::make_settop_spec();
  CostOrderedAllocations stream(spec.compiled());
  AllocSet alloc;
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(stream.next(alloc));
  ExploreCheckpoint ck = sample_checkpoint();
  ck.frontier = stream.cursor().frontier;

  const EnumFrontier plain = ck.frontier.written_out();
  ASSERT_LT(ck.frontier.states.size(), plain.states.size());
  std::uint64_t members = 0;
  for (std::size_t i = 0; i < plain.states.size(); ++i)
    members += plain.members(i).size();
  const EnumFrontier::Extent extent = ck.frontier.extent();
  EXPECT_EQ(extent.states, plain.states.size());
  EXPECT_EQ(extent.members, members);

  const auto into = [](std::string& text) {
    return [&text](std::string_view chunk) { text.append(chunk); };
  };
  std::string file;
  ASSERT_TRUE(ck.write(into(file)).ok());
  Result<Json> doc = Json::parse(file);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  JsonWriter counter(2);
  doc.value().write(counter);
  JsonLimits limits;
  limits.max_nodes = counter.values();
  std::string again;
  EXPECT_TRUE(ck.write(into(again), limits).ok());
  limits.max_nodes -= 1;
  std::string cut;
  const Status s = ck.write(into(cut), limits);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("max_nodes (" +
                                   std::to_string(limits.max_nodes) + ")"),
            std::string::npos)
      << s.error().message;
}

TEST(CheckpointRobust, EveryTruncationFailsCleanly) {
  const std::string text = sample_checkpoint().to_string();
  for (std::size_t len = 0; len < text.size(); ++len) {
    Result<ExploreCheckpoint> r =
        ExploreCheckpoint::from_string(text.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of length " << len << " was accepted";
    EXPECT_FALSE(r.error().message.empty());
  }
}

TEST(CheckpointRobust, RandomMutationsNeverCrashAndAcceptedOnesRoundTrip) {
  const std::string text = sample_checkpoint().to_string();
  std::uint64_t rng = 0xc0ffee;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = text;
    const int edits = 1 + static_cast<int>(splitmix64(rng) % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = splitmix64(rng) % mutated.size();
      switch (splitmix64(rng) % 3) {
        case 0:
          mutated[at] = static_cast<char>(splitmix64(rng));
          break;
        case 1:
          mutated.erase(at, 1 + splitmix64(rng) % 8);
          break;
        default:
          mutated.insert(at, 1, static_cast<char>(splitmix64(rng)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    Result<ExploreCheckpoint> r = ExploreCheckpoint::from_string(mutated);
    if (r.ok()) {
      // Anything the loader accepts must be representable by the writer.
      const std::string again = r.value().to_string();
      Result<ExploreCheckpoint> second =
          ExploreCheckpoint::from_string(again);
      ASSERT_TRUE(second.ok()) << second.error().message;
      EXPECT_EQ(second.value().to_string(), again) << "trial " << trial;
    }
  }
}

TEST(CheckpointRobust, HostileNumericsAreRejectedNotNarrowed) {
  // Each of these used to reach an unchecked double→integer cast; all of
  // them are outside the representable range or not integral.
  const std::string prefix =
      R"({"format":"sdf-explore-checkpoint","version":4,)"
      R"("spec_digest":"a","options_digest":"b",)";
  const std::vector<std::string> bad = {
      // fractional / negative / oversized unit indices
      prefix + R"("front":[{"units":[0.5]}],"pending":[],)"
               R"("cursor":{"emitted":0,"pruned":0,"frontier":[]},)"
               R"("counters":{}})",
      prefix + R"("front":[{"units":[-1]}],"pending":[],)"
               R"("cursor":{"emitted":0,"pruned":0,"frontier":[]},)"
               R"("counters":{}})",
      prefix + R"("front":[],"pending":[[4294967296]],)"
               R"("cursor":{"emitted":0,"pruned":0,"frontier":[]},)"
               R"("counters":{}})",
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":0,"pruned":0,"frontier":[[1e99]]},)"
               R"("counters":{}})",
      // u64 counters: negative, fractional, and >= 2^64
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":-7,"pruned":0,"frontier":[]},)"
               R"("counters":{}})",
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":1.5,"pruned":0,"frontier":[]},)"
               R"("counters":{}})",
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":18446744073709551616,"pruned":0,)"
               R"("frontier":[]},"counters":{}})",
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":0,"pruned":0,"frontier":[]},)"
               R"("counters":{"candidates_generated":0,"dominated_skipped":0,)"
               R"("possible_allocations":0,"flexibility_estimations":0,)"
               R"("bound_skipped":0,"implementation_attempts":0,)"
               R"("solver_calls":0,"solver_nodes":1e99,)"
               R"("budget_abandoned":0}})",
  };
  for (const std::string& doc : bad) {
    Result<ExploreCheckpoint> r = ExploreCheckpoint::from_string(doc);
    EXPECT_FALSE(r.ok()) << doc;
  }
  // Non-finite literals are already rejected by the JSON layer.
  Result<ExploreCheckpoint> inf = ExploreCheckpoint::from_string(
      prefix + R"("front":[],"pending":[],)"
               R"("cursor":{"emitted":1e999,"pruned":0,"frontier":[]},)"
               R"("counters":{}})");
  ASSERT_FALSE(inf.ok());
  EXPECT_NE(inf.error().message.find("non-finite"), std::string::npos);
}

TEST(CheckpointRobust, FrontierListsMustBeStrictlyAscending) {
  // The stream expands a restored state above its last member, so an
  // unsorted or repeated list would re-emit or skip subsets on resume.
  const std::string prefix =
      R"({"format":"sdf-explore-checkpoint","version":4,)"
      R"("spec_digest":"a","options_digest":"b","front":[],"pending":[],)"
      R"("cursor":{"emitted":0,"pruned":0,"frontier":)";
  const std::string suffix =
      R"(},"counters":{"candidates_generated":0,"dominated_skipped":0,)"
      R"("possible_allocations":0,"flexibility_estimations":0,)"
      R"("bound_skipped":0,"implementation_attempts":0,"solver_calls":0,)"
      R"("solver_nodes":0,"budget_abandoned":0}})";
  ASSERT_TRUE(
      ExploreCheckpoint::from_string(prefix + "[[], [1, 3]]" + suffix).ok());
  for (const char* frontier : {"[[3, 1]]", "[[2, 2]]", "[[4294967295]]"}) {
    Result<ExploreCheckpoint> r =
        ExploreCheckpoint::from_string(prefix + frontier + suffix);
    ASSERT_FALSE(r.ok()) << frontier;
    EXPECT_NE(r.error().message.find("strictly ascending"), std::string::npos)
        << r.error().message;
  }
}

TEST(CheckpointRobust, FrontierIndexWithTheChainFlagIsOutsideTheUniverse) {
  // The stream flags a chain head in the top bit of its unit index, but a
  // loaded frontier holds plain states only: 2147483653 is 2^31 + 5, far
  // outside any universe, not unit 5 standing for its later siblings.
  const std::string prefix =
      R"({"format":"sdf-explore-checkpoint","version":4,)"
      R"("spec_digest":"a","options_digest":"b","front":[],"pending":[],)"
      R"("cursor":{"emitted":0,"pruned":0,"frontier":)";
  const std::string suffix =
      R"(},"counters":{"candidates_generated":0,"dominated_skipped":0,)"
      R"("possible_allocations":0,"flexibility_estimations":0,)"
      R"("bound_skipped":0,"implementation_attempts":0,"solver_calls":0,)"
      R"("solver_nodes":0,"budget_abandoned":0}})";
  const SpecificationGraph decoder = models::make_tv_decoder_spec();  // 7 units
  const CompiledSpec& cs = decoder.compiled();
  Result<ExploreCheckpoint> unit5 =
      ExploreCheckpoint::from_string(prefix + "[[5]]" + suffix);
  ASSERT_TRUE(unit5.ok()) << unit5.error().message;
  EXPECT_TRUE(checkpoint_cursor(unit5.value(), cs).ok());
  for (const char* frontier : {"[[2147483653]]", "[[1, 2147483653]]"}) {
    Result<ExploreCheckpoint> ck =
        ExploreCheckpoint::from_string(prefix + frontier + suffix);
    ASSERT_TRUE(ck.ok()) << ck.error().message;
    EXPECT_EQ(ck.value().frontier.size(), 1u) << frontier;
    const std::string text = ck.value().to_string();
    EXPECT_NE(text.find("2147483653"), std::string::npos) << text;
    Result<ExploreCheckpoint> again = ExploreCheckpoint::from_string(text);
    ASSERT_TRUE(again.ok()) << again.error().message;
    EXPECT_EQ(again.value().to_string(), text);
    Result<EnumCursor> cursor = checkpoint_cursor(ck.value(), cs);
    ASSERT_FALSE(cursor.ok()) << frontier;
    EXPECT_NE(cursor.error().message.find("outside the universe"),
              std::string::npos)
        << cursor.error().message;
  }
}

TEST(CheckpointRobust, VersionAndFormatAreChecked) {
  ExploreCheckpoint ck = sample_checkpoint();
  std::string text = ck.to_string();

  // Versions 1 to 3 hashed other digests: each is refused by its version.
  for (const char* old :
       {"\"version\": 1", "\"version\": 2", "\"version\": 3"}) {
    std::string wrong_version = text;
    const std::size_t vat = wrong_version.find("\"version\": 4");
    ASSERT_NE(vat, std::string::npos);
    wrong_version.replace(vat, 12, old);
    Result<ExploreCheckpoint> v =
        ExploreCheckpoint::from_string(wrong_version);
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("unsupported version (expected 4)"),
              std::string::npos)
        << v.error().message;
  }

  // A huge version number must be rejected, not truncated into range.
  std::string huge_version = text;
  huge_version.replace(huge_version.find("\"version\": 4"), 12,
                       "\"version\": 1e99");
  EXPECT_FALSE(ExploreCheckpoint::from_string(huge_version).ok());

  std::string wrong_format = text;
  const std::size_t fat = wrong_format.find("sdf-explore-checkpoint");
  ASSERT_NE(fat, std::string::npos);
  wrong_format.replace(fat, 3, "xxx");
  EXPECT_FALSE(ExploreCheckpoint::from_string(wrong_format).ok());
}

TEST(CheckpointRobust, StreamLoaderMatchesStringLoader) {
  const std::string text = sample_checkpoint().to_string();
  for (std::size_t chunk = 1; chunk <= 64; chunk += 7) {
    StringViewByteReader reader(text, chunk);
    Result<ExploreCheckpoint> streamed = ExploreCheckpoint::from_stream(reader);
    ASSERT_TRUE(streamed.ok()) << streamed.error().message;
    EXPECT_EQ(streamed.value().to_string(), text) << "chunk " << chunk;
  }
  // Truncated stream: clean error, same as the string loader.
  StringViewByteReader truncated(
      std::string_view(text).substr(0, text.size() / 2), 9);
  EXPECT_FALSE(ExploreCheckpoint::from_stream(truncated).ok());
}

TEST(CheckpointRobust, IngestCapsApplyToCheckpoints) {
  const std::string bomb(100000, '[');
  Result<ExploreCheckpoint> r = ExploreCheckpoint::from_string(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos);
}

}  // namespace
}  // namespace sdf
