#include "corpus.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "gen/presets.hpp"
#include "spec/spec_io.hpp"
#include "util/rng.hpp"

namespace sdf::e2e {
namespace {

SpecCase example_case(const std::string& name) {
  SpecCase c;
  c.key = "example:" + name;
  c.file = name + ".json";
  c.example = "examples/specs/" + name + ".json";
  return c;
}

SpecCase preset_case(PlatformPreset preset, std::uint64_t seed) {
  SpecCase c;
  c.key = std::string(preset_name(preset)) + "@" + std::to_string(seed);
  c.file = c.key + ".json";
  c.params = preset_params(preset, seed);
  return c;
}

/// A small nested-tile specification (`sdf generate --tiles T --tile-depth
/// D --tile-processors P --tile-bus --seed S`).
SpecCase tiles_case(std::size_t tiles, std::size_t depth,
                    std::size_t processors, std::uint64_t seed) {
  SpecCase c;
  c.params.seed = seed;
  c.params.tiles = tiles;
  c.params.max_depth = depth;
  c.params.tile_processors = processors;
  c.params.tile_bus = true;
  c.key = "tiles-" + std::to_string(tiles) + "x" + std::to_string(depth) +
          "x" + std::to_string(processors) + "b@" + std::to_string(seed);
  c.file = c.key + ".json";
  return c;
}

/// Generator seeds of a draw: distinct, reproducible from the workload seed.
std::vector<std::uint64_t> draw_seeds(Rng& rng, std::size_t count,
                                      std::uint64_t range) {
  std::vector<std::uint64_t> out;
  while (out.size() < count) {
    const std::uint64_t s = 1 + rng.uniform(range);
    bool fresh = true;
    for (std::uint64_t t : out) fresh = fresh && t != s;
    if (fresh) out.push_back(s);
  }
  return out;
}

/// Draws `count` distinct entries of a vetted seed pool.
std::vector<std::uint64_t> draw_from(Rng& rng, std::size_t count,
                                     const std::vector<std::uint64_t>& pool) {
  std::vector<std::uint64_t> shuffled = pool;
  rng.shuffle(shuffled);
  shuffled.resize(std::min(count, shuffled.size()));
  return shuffled;
}

// Preset seeds by how long their complete exploration takes (release
// build, 2-4 GHz x86-64).  Binding time varies by orders of magnitude
// across generator seeds of one preset -- baseband-dsp seed 4 runs for
// minutes, seed 2 for 0.3 ms -- so a seeded draw of binding-heavy instances
// would move a run's time by more than the benchmark's bounds.  Every seed
// therefore explores the same binding-heavy instances; the seed draws the
// light ones, from pools of instances that take a few milliseconds or less.
//
// baseband-dsp, about one second each: 4.9k-12k candidates, 1.1M-2.3M
// solver nodes.  Their samples are the workload's tail.
const std::array<std::uint64_t, 3> kBasebandAnchors = {3, 47, 213};
// settop-box, 35-50 ms each: 260-660 implementation attempts, 20k-60k
// solver nodes.  The workload's median sample is one of these.
const std::array<std::uint64_t, 12> kSettopAnchors = {
    64, 66, 99, 106, 192, 222, 257, 320, 321, 335, 364, 394};
const std::vector<std::uint64_t> kSettopPool = {
    3,  4,  6,  7,  9,  10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22,
    23, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
    42, 43, 44, 45, 47, 48, 49, 50, 51, 53, 54, 56, 57, 59, 61, 63};
const std::vector<std::uint64_t> kAutomotivePool = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32};
const std::vector<std::uint64_t> kBasebandPool = {
    1, 2, 7, 8, 10, 11, 17, 19, 21, 22, 46, 108, 111, 114, 125, 128, 169};

// Nested-tile seeds (19 units each) whose exploration takes 45-70 ms:
// 65k-120k candidates, almost all rejected by the dominance filter.  The
// narrow band keeps the draw's total work nearly seed-independent.
const std::vector<std::uint64_t> kTiles3x2x2Pool = {
    1,   5,   8,   16,  21,  27,  32,  40,  45,  47,  49,  51,
    58,  62,  63,  68,  69,  70,  71,  72,  75,  76,  78,  80,
    81,  85,  86,  87,  89,  93,  94,  96,  98,  105, 108, 117,
    125, 126, 127, 128, 130, 132, 135, 136, 139, 145, 149, 150};
const std::vector<std::uint64_t> kTiles2x3x2Pool = {
    1,   3,   5,   8,   10,  11,  21,  27,  29,  31,  32,  37,
    38,  40,  45,  46,  51,  58,  62,  68,  69,  70,  73,  75,
    80,  81,  85,  93,  94,  96,  104, 105, 108, 117, 119, 122,
    123, 125, 126, 127, 128, 131, 132, 139, 141, 145, 149, 150};

constexpr double kBudgetDeadlineSeconds = 0.1;
constexpr std::uint64_t kIngestMaxAllocations = 64;

WorkloadPlan enum_nested(std::uint64_t seed) {
  // Twelve passes: nested.json, the slowest spec, then fills the top
  // eleven samples and the tail percentile reads it.
  WorkloadPlan plan{"enum_nested", {example_case("nested")}, 12, 1.05};
  Rng rng(seed ^ 0x656e756dull);
  for (std::uint64_t s : draw_from(rng, 8, kTiles3x2x2Pool))
    plan.cases.push_back(tiles_case(3, 2, 2, s));
  for (std::uint64_t s : draw_from(rng, 8, kTiles2x3x2Pool))
    plan.cases.push_back(tiles_case(2, 3, 2, s));
  return plan;
}

WorkloadPlan solve_presets(std::uint64_t seed) {
  // Four passes: the anchors' 3 x 4 samples hold the tail percentile.
  WorkloadPlan plan{"solve_presets",
                    {example_case("settop"), example_case("decoder")},
                    4,
                    3.7};
  for (std::uint64_t s : kBasebandAnchors)
    plan.cases.push_back(preset_case(PlatformPreset::kBasebandDsp, s));
  for (std::uint64_t s : kSettopAnchors)
    plan.cases.push_back(preset_case(PlatformPreset::kSetTopBox, s));
  Rng rng(seed ^ 0x736f6c76ull);
  for (std::uint64_t s : draw_from(rng, 2, kSettopPool))
    plan.cases.push_back(preset_case(PlatformPreset::kSetTopBox, s));
  for (std::uint64_t s : draw_from(rng, 2, kAutomotivePool))
    plan.cases.push_back(preset_case(PlatformPreset::kAutomotiveEcu, s));
  for (std::uint64_t s : draw_from(rng, 2, kBasebandPool))
    plan.cases.push_back(preset_case(PlatformPreset::kBasebandDsp, s));
  return plan;
}

WorkloadPlan budget_nested(std::uint64_t seed) {
  WorkloadPlan plan{"budget_nested", {}, 3, 4.0};
  Rng rng(seed ^ 0x62756467ull);
  for (std::uint64_t s : draw_seeds(rng, 6, 1u << 20)) {
    SpecCase c = preset_case(PlatformPreset::kNestedS, s);
    c.deadline_seconds = kBudgetDeadlineSeconds;
    plan.cases.push_back(std::move(c));
  }
  return plan;
}

WorkloadPlan ingest_xl(std::uint64_t seed) {
  WorkloadPlan plan{"ingest_xl", {}, 3, 3.6};
  Rng rng(seed ^ 0x696e6765ull);
  plan.cases.push_back(
      preset_case(PlatformPreset::kNestedXl, draw_seeds(rng, 1, 1u << 20)[0]));
  for (std::uint64_t s : draw_seeds(rng, 8, 1u << 20))
    plan.cases.push_back(preset_case(PlatformPreset::kNestedM, s));
  for (SpecCase& c : plan.cases) c.max_allocations = kIngestMaxAllocations;
  return plan;
}

}  // namespace

int WorkloadPlan::passes_for(double seconds) const {
  return std::max(min_passes,
                  static_cast<int>(std::ceil(seconds / nominal_pass_seconds)));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "enum_nested", "solve_presets", "budget_nested", "ingest_xl"};
  return names;
}

Result<WorkloadPlan> plan_workload(std::string_view name,
                                   std::uint64_t seed) {
  if (name == "enum_nested") return enum_nested(seed);
  if (name == "solve_presets") return solve_presets(seed);
  if (name == "budget_nested") return budget_nested(seed);
  if (name == "ingest_xl") return ingest_xl(seed);
  return Error{"unknown workload '" + std::string(name) + "'"};
}

Status write_corpus(const WorkloadPlan& plan, const std::string& dir,
                    const std::string& source_root) {
  for (const SpecCase& c : plan.cases) {
    std::string text;
    if (!c.example.empty()) {
      const std::string from = source_root + "/" + c.example;
      std::ifstream in(from, std::ios::binary);
      if (!in) return Error{"cannot read " + from};
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    } else {
      Result<std::string> s = spec_to_string(generate_spec(c.params));
      if (!s.ok()) return s.error().wrap(c.key);
      text = std::move(s).value();
    }
    const std::string to = dir + "/" + c.file;
    std::ofstream out(to, std::ios::binary);
    out << text;
    if (!out.flush()) return Error{"cannot write " + to};
  }
  return Status::Ok();
}

}  // namespace sdf::e2e
