// Coverage for smaller utilities: logging, flag usage strings, table
// streaming, exhaustive/evolutionary stats, cover edge cases.
#include <gtest/gtest.h>

#include <sstream>

#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "graph/eca.hpp"
#include "spec/paper_models.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace sdf {
namespace {

// ---- logging -----------------------------------------------------------------

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Log, ThresholdFilters) {
  const LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold calls must be no-ops (no observable output assertion
  // possible on stderr here, but the calls must be safe).
  log_debug("dropped");
  log_info("dropped");
  log_warn("dropped");
  log_error("emitted");
  set_log_level(LogLevel::kOff);
  log_error("dropped entirely");
}

TEST(Log, LevelsOrdered) {
  EXPECT_LT(static_cast<int>(LogLevel::kDebug),
            static_cast<int>(LogLevel::kInfo));
  EXPECT_LT(static_cast<int>(LogLevel::kInfo),
            static_cast<int>(LogLevel::kWarn));
  EXPECT_LT(static_cast<int>(LogLevel::kWarn),
            static_cast<int>(LogLevel::kError));
}

// ---- flags usage ---------------------------------------------------------------

TEST(Flags, UsageListsDefinitions) {
  Flags f;
  f.define("alpha", "1", "first knob");
  f.define_bool("beta", true, "second knob");
  const std::string usage = f.usage();
  EXPECT_NE(usage.find("--alpha (default: 1)"), std::string::npos);
  EXPECT_NE(usage.find("first knob"), std::string::npos);
  EXPECT_NE(usage.find("--beta (default: true)"), std::string::npos);
}

TEST(Flags, ReparseResetsState) {
  Flags f;
  f.define("k", "d");
  ASSERT_TRUE(f.parse({"--k=v", "pos"}).ok());
  EXPECT_EQ(f.get("k"), "v");
  ASSERT_TRUE(f.parse({}).ok());
  EXPECT_EQ(f.get("k"), "d");
  EXPECT_TRUE(f.positional().empty());
}

// ---- table streaming -------------------------------------------------------------

TEST(Table, StreamsAscii) {
  Table t({"x"});
  t.add_row({"1"});
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.to_ascii());
}

// ---- cover edge cases ---------------------------------------------------------------

TEST(Eca, CoverOfEmptyInputIsEmpty) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  EXPECT_TRUE(cover_ecas(spec.problem(), {}).empty());
}

TEST(Eca, CoverOfSingleEcaIsItself) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  DynBitset all(spec.problem().cluster_count());
  for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
  auto ecas = enumerate_ecas(spec.problem(), all, 1);
  ASSERT_EQ(ecas.size(), 1u);
  const auto cover = cover_ecas(spec.problem(), ecas);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].clusters, ecas[0].clusters);
}

// ---- baseline explorer stats ----------------------------------------------------------

TEST(Exhaustive, StatsCountEverySubset) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  const ExhaustiveResult r = explore_exhaustive(spec);
  // 2^7 - 1 non-empty subsets.
  EXPECT_EQ(r.stats.subsets, 127u);
  EXPECT_EQ(r.stats.implementation_attempts, 127u);
  EXPECT_GT(r.stats.solver_calls, 0u);
  EXPECT_GE(r.stats.wall_seconds, 0.0);
}

TEST(Evolutionary, DefaultMutationRateIsPerBit) {
  // mutation_rate <= 0 means 1/universe; the run must still work.
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  EaOptions options;
  options.population = 8;
  options.generations = 3;
  options.mutation_rate = -1.0;
  const EaResult r = explore_evolutionary(spec, options);
  EXPECT_GT(r.stats.evaluations, 0u);
}

TEST(Evolutionary, StatsTrackFeasibleSubset) {
  const SpecificationGraph spec = models::make_tv_decoder_spec();
  EaOptions options;
  options.population = 12;
  options.generations = 5;
  options.seed = 5;
  const EaResult r = explore_evolutionary(spec, options);
  EXPECT_LE(r.stats.feasible_evaluations, r.stats.evaluations);
  EXPECT_GT(r.stats.feasible_evaluations, 0u);
}

}  // namespace
}  // namespace sdf
