// Tests for the flag parser and the `sdf` command-line tool.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/cli.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace sdf {
namespace {

// ---- Flags -------------------------------------------------------------------

TEST(Flags, DefaultsApply) {
  Flags f;
  f.define("name", "fallback");
  f.define_bool("verbose", false);
  ASSERT_TRUE(f.parse({}).ok());
  EXPECT_EQ(f.get("name"), "fallback");
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, EqualsAndSpaceSyntax) {
  Flags f;
  f.define("a", "");
  f.define("b", "");
  ASSERT_TRUE(f.parse({"--a=1", "--b", "2"}).ok());
  EXPECT_EQ(f.get("a"), "1");
  EXPECT_EQ(f.get("b"), "2");
}

TEST(Flags, BooleanForms) {
  Flags f;
  f.define_bool("x", false);
  f.define_bool("y", true);
  ASSERT_TRUE(f.parse({"--x", "--no-y"}).ok());
  EXPECT_TRUE(f.get_bool("x"));
  EXPECT_FALSE(f.get_bool("y"));
  ASSERT_TRUE(f.parse({"--x=false"}).ok());
  EXPECT_FALSE(f.get_bool("x"));
}

TEST(Flags, PositionalCollected) {
  Flags f;
  f.define("k", "");
  ASSERT_TRUE(f.parse({"first", "--k=v", "second"}).ok());
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(Flags, UnknownFlagRejected) {
  Flags f;
  EXPECT_FALSE(f.parse({"--nope"}).ok());
}

TEST(Flags, MissingValueRejected) {
  Flags f;
  f.define("k", "");
  EXPECT_FALSE(f.parse({"--k"}).ok());
}

TEST(Flags, NumericAccessors) {
  Flags f;
  f.define("d", "0.5");
  f.define("i", "42");
  ASSERT_TRUE(f.parse({}).ok());
  EXPECT_EQ(f.get_double("d"), 0.5);
  EXPECT_EQ(f.get_int("i"), 42);
}

TEST(Flags, NumericFlagsRejectValuesThatAreNotEntirelyNumbers) {
  Flags f;
  f.define_int("i", "0");
  f.define_count("c", "0");
  f.define_double("d", "0");
  ASSERT_TRUE(f.parse({"--i=-3", "--c", "7", "--d=2.5e-1"}).ok());
  EXPECT_EQ(f.get_int("i"), -3);
  EXPECT_EQ(f.get_int("c"), 7);
  EXPECT_EQ(f.get_double("d"), 0.25);
  for (const char* bad : {"--i=abc", "--i=12x", "--i=", "--i=1.5",
                          "--c=-1", "--c=abc", "--d=abc", "--d=0.5%",
                          "--i=99999999999999999999"}) {
    const Status s = f.parse({bad});
    ASSERT_FALSE(s.ok()) << bad;
    const std::string name = std::string(bad).substr(0, 3);
    EXPECT_NE(s.error().message.find("flag " + name), std::string::npos)
        << s.error().message;
  }
}

// ---- CLI ---------------------------------------------------------------------

/// Per-process temp path: ctest runs each gtest case as its own process, in
/// parallel, so a fixed shared name races (one process truncates the file
/// while another reads it).
std::string tmp_path(const std::string& name) {
  static const std::string prefix =
      "/tmp/sdf_cli_test_" + std::to_string(::getpid()) + "_";
  return prefix + name;
}

class CliTest : public ::testing::Test {
 protected:
  int run(std::initializer_list<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(std::vector<std::string>(args), out_, err_);
  }

  /// Writes the settop model to a temp file once per suite.
  static const std::string& settop_path() {
    static const std::string path = [] {
      const std::string p = tmp_path("settop.json");
      std::ofstream f(p);
      f << spec_to_string(models::make_settop_spec()).value();
      return p;
    }();
    return path;
  }

  /// Runs `args` in a child process and returns its exit code, or -1 when
  /// it died on a signal or had not exited after `timeout` (it is then
  /// killed).  For inputs that once hung or aborted the process.
  static int run_in_child(const std::vector<std::string>& args,
                          std::chrono::seconds timeout) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::ostringstream out, err;
      ::_exit(run_cli(args, out, err));
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The keys of the trailing `f_max=... key=value ...` stats line, without
  /// `f_max`.
  std::vector<std::string> stats_line_keys() const {
    const std::string text = out_.str();
    const std::size_t at = text.rfind("f_max=");
    std::vector<std::string> keys;
    if (at == std::string::npos) return keys;
    std::istringstream line(text.substr(at, text.find('\n', at) - at));
    std::string field;
    line >> field;  // f_max=...
    while (line >> field) keys.push_back(field.substr(0, field.find('=')));
    return keys;
  }

  /// The keys of the `stats` object of a `--json` run's output.
  std::vector<std::string> json_stats_keys() const {
    std::vector<std::string> keys;
    Result<Json> doc = Json::parse(out_.str());
    if (!doc.ok() || doc.value().find("stats") == nullptr) return keys;
    for (const auto& [key, value] : doc.value().find("stats")->as_object())
      keys.push_back(key);
    return keys;
  }

  std::ostringstream out_, err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(run({"frobnicate"}), 2);
}

TEST_F(CliTest, ValidateAcceptsSettop) {
  EXPECT_EQ(run({"validate", settop_path()}), 0);
  EXPECT_NE(out_.str().find("valid: settop_box"), std::string::npos);
  EXPECT_NE(out_.str().find("15 processes"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsGarbage) {
  const std::string path = tmp_path("garbage.json");
  std::ofstream(path) << "{ not json";
  EXPECT_EQ(run({"validate", path}), 2);
  EXPECT_EQ(run({"validate", "/tmp/definitely_missing_file.json"}), 2);
  EXPECT_EQ(run({"validate"}), 2);
}

TEST_F(CliTest, ValidateReportsLintFindingsWithExitCode) {
  // A structurally loadable spec with an unmapped process: error severity.
  const std::string path = tmp_path("unmapped.json");
  std::ofstream(path) << R"({
    "name": "unmapped",
    "problem": {"root": {"nodes": [{"name": "A"}, {"name": "B"}]}},
    "architecture": {"root": {"nodes": [{"name": "uP",
                                         "attrs": {"cost": 10}}]}},
    "mappings": [{"process": "A", "resource": "uP", "latency": 1}]
  })";
  EXPECT_EQ(run({"validate", path}), 2);
  EXPECT_NE(out_.str().find("[SDF009]"), std::string::npos);

  EXPECT_EQ(run({"validate", path, "--json"}), 2);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_FALSE(doc.value().bool_or("valid", true));
  EXPECT_GE(doc.value().number_or("errors", 0), 1.0);
}

TEST_F(CliTest, LintCleanModelExitsZero) {
  EXPECT_EQ(run({"lint", settop_path()}), 0);
  EXPECT_NE(out_.str().find("0 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos);
}

TEST_F(CliTest, LintReportsTextAndJson) {
  const std::string path = tmp_path("lint.json");
  std::ofstream(path) << R"({
    "name": "broken",
    "problem": {"root": {"nodes": [{"name": "A"}, {"name": "B"}]}},
    "architecture": {"root": {"nodes": [{"name": "uP"}]}},
    "mappings": [{"process": "A", "resource": "uP", "latency": 1}]
  })";
  EXPECT_EQ(run({"lint", path}), 2);
  const std::string text = out_.str();
  EXPECT_NE(text.find("[SDF009]"), std::string::npos);  // B unmapped
  EXPECT_NE(text.find("[SDF013]"), std::string::npos);  // uP has no cost
  EXPECT_NE(text.find("hint:"), std::string::npos);

  EXPECT_EQ(run({"lint", path, "--json"}), 2);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  ASSERT_NE(doc.value().find("diagnostics"), nullptr);
  EXPECT_GE(doc.value().find("diagnostics")->as_array().size(), 2u);
  EXPECT_GE(doc.value().number_or("errors", 0), 1.0);

  // Rule selection narrows the run; warnings exit 1.
  EXPECT_EQ(run({"lint", path, "--rules=SDF013"}), 1);
  EXPECT_EQ(out_.str().find("[SDF009]"), std::string::npos);
  // Severity filter drops the warning entirely.
  EXPECT_EQ(run({"lint", path, "--rules=SDF013", "--min-severity=error"}), 0);
}

TEST_F(CliTest, LintUsageErrors) {
  EXPECT_EQ(run({"lint"}), 2);
  EXPECT_EQ(run({"lint", settop_path(), "--rules=SDF999"}), 2);
  EXPECT_EQ(run({"lint", settop_path(), "--min-severity=fatal"}), 2);
  EXPECT_EQ(run({"lint", "/tmp/definitely_missing_file.json"}), 2);
}

TEST_F(CliTest, LintListsCatalog) {
  EXPECT_EQ(run({"lint", "--list"}), 0);
  EXPECT_NE(out_.str().find("SDF001"), std::string::npos);
  EXPECT_NE(out_.str().find("SDF016"), std::string::npos);
  EXPECT_NE(out_.str().find("unmappable-process"), std::string::npos);
}

TEST_F(CliTest, ExplorePreflightRejectsDefectiveSpec) {
  const std::string path = tmp_path("preflight.json");
  std::ofstream(path) << R"({
    "name": "defective",
    "problem": {"root": {"nodes": [{"name": "A"}, {"name": "B"}]}},
    "architecture": {"root": {"nodes": [{"name": "uP",
                                         "attrs": {"cost": 10}}]}},
    "mappings": [{"process": "A", "resource": "uP", "latency": 1}]
  })";
  EXPECT_EQ(run({"explore", path}), 2);
  EXPECT_NE(err_.str().find("preflight"), std::string::npos);
  EXPECT_NE(err_.str().find("SDF009"), std::string::npos);
  // The escape hatch runs the exploration anyway (empty front, exit 0).
  EXPECT_EQ(run({"explore", path, "--no-preflight"}), 0);
  // upgrade and sensitivity share the gate.
  EXPECT_EQ(run({"upgrade", path}), 2);
  EXPECT_NE(err_.str().find("preflight"), std::string::npos);
  EXPECT_EQ(run({"sensitivity", path}), 2);
  EXPECT_NE(err_.str().find("preflight"), std::string::npos);
}

TEST_F(CliTest, PreflightStopsDuplicateNamesBeforeABudgetedRun) {
  // The decoder with cluster gU2 renamed to gU1.  Without the lint rule a
  // budgeted run explored it, then lost its partial front when the
  // checkpoint digest refused the duplicate name.
  std::string text = spec_to_string(models::make_tv_decoder_spec()).value();
  for (std::size_t at; (at = text.find("\"gU2\"")) != std::string::npos;)
    text.replace(at, 5, "\"gU1\"");
  const std::string path = tmp_path("duplicate_cluster.json");
  std::ofstream(path) << text;

  EXPECT_EQ(run({"lint", path}), 2);
  EXPECT_NE(out_.str().find("[SDF022] duplicate cluster name 'gU1'"),
            std::string::npos)
      << out_.str();
  for (const char* budget : {"--max-allocations=2", "--deadline-ms=60000"}) {
    EXPECT_EQ(run({"explore", path, budget}), 2) << budget;
    EXPECT_NE(err_.str().find("preflight"), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("problem:G_P.root/"), std::string::npos)
        << err_.str();
    EXPECT_NE(err_.str().find("duplicate cluster name 'gU1'"),
              std::string::npos)
        << err_.str();
  }
  // Past the preflight the digest still refuses the spec: the canonical
  // text no longer identifies the graph.
  EXPECT_EQ(run({"explore", path, "--max-allocations=2", "--no-preflight"}),
            1);
  EXPECT_NE(err_.str().find("checkpoint digest"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, FlexibilityReportsMaximum) {
  EXPECT_EQ(run({"flexibility", settop_path()}), 0);
  EXPECT_NE(out_.str().find("maximal flexibility: 8"), std::string::npos);
  EXPECT_NE(out_.str().find("gG"), std::string::npos);
}

TEST_F(CliTest, ExploreReproducesFront) {
  EXPECT_EQ(run({"explore", settop_path()}), 0);
  const std::string text = out_.str();
  for (const char* needle :
       {"100", "120", "230", "290", "360", "430", "uP2, A1, C1, C2, D3"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  EXPECT_NE(text.find("f_max=8"), std::string::npos);
}

TEST_F(CliTest, ExploreCsvOutput) {
  EXPECT_EQ(run({"explore", settop_path(), "--csv", "--no-stats"}), 0);
  EXPECT_NE(out_.str().find("cost,flexibility,resources,clusters"),
            std::string::npos);
  EXPECT_NE(out_.str().find("430,8,"), std::string::npos);
}

TEST_F(CliTest, ExploreJsonOutput) {
  EXPECT_EQ(run({"explore", settop_path(), "--json"}), 0);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value().number_or("max_flexibility", 0), 8.0);
  ASSERT_NE(doc.value().find("front"), nullptr);
  EXPECT_EQ(doc.value().find("front")->as_array().size(), 6u);
}

TEST_F(CliTest, ExploreEquivalentsFlag) {
  EXPECT_EQ(run({"explore", settop_path(), "--json", "--equivalents"}), 0);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok());
  const Json& row3 = doc.value().find("front")->as_array()[2];
  ASSERT_NE(row3.find("equivalents"), nullptr);
  EXPECT_GE(row3.find("equivalents")->as_array().size(), 1u);
}

TEST_F(CliTest, ExploreBudgetAndTargetQueries) {
  EXPECT_EQ(run({"explore", settop_path(), "--budget=250"}), 0);
  EXPECT_NE(out_.str().find("within budget 250: f=4 at $230"),
            std::string::npos);
  EXPECT_EQ(run({"explore", settop_path(), "--target-f=7"}), 0);
  EXPECT_NE(out_.str().find("flexibility >= 7: $360"), std::string::npos);
  EXPECT_EQ(run({"explore", settop_path(), "--budget=10"}), 0);
  EXPECT_NE(out_.str().find("nothing feasible"), std::string::npos);
  EXPECT_EQ(run({"explore", settop_path(), "--target-f=99"}), 0);
  EXPECT_NE(out_.str().find("unreachable (max 8)"), std::string::npos);
  EXPECT_EQ(run({"explore", settop_path(), "--budget=500", "--target-f=2"}),
            0);
  EXPECT_NE(out_.str().find("within budget 500"), std::string::npos);
  EXPECT_NE(out_.str().find("flexibility >= 2: $100"), std::string::npos);
}

TEST_F(CliTest, ExploreRejectsBadFlags) {
  EXPECT_EQ(run({"explore", settop_path(), "--comm=warp"}), 2);
  EXPECT_EQ(run({"explore", settop_path(), "--bogus=1"}), 2);
  EXPECT_EQ(run({"explore"}), 2);
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=-1"}), 2);
  EXPECT_EQ(run({"explore", settop_path(), "--deadline-ms=-5"}), 2);
  EXPECT_EQ(run({"explore", settop_path(), "--resume"}), 2);  // no --checkpoint
  EXPECT_EQ(run({"explore", settop_path(), "--threads=-1"}), 2);
  // Values that are not entirely a number used to be read as their numeric
  // prefix: --threads=abc ran on every hardware thread, --deadline-ms=abc
  // had no deadline and --util-bound=abc turned the timing check off.
  for (const std::string bad :
       {"--threads=abc", "--deadline-ms=abc", "--util-bound=abc",
        "--max-solver-nodes=5x", "--max-allocations=1.5", "--budget=cheap",
        "--target-f=", "--seed=x"}) {
    EXPECT_EQ(run({"explore", settop_path(), bad}), 2) << bad;
    const std::string name = bad.substr(0, bad.find('='));
    EXPECT_NE(err_.str().find("flag " + name + " expects"), std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, ExploreStatsLineListsTheJsonStatsKeys) {
  // The text line prints the --json stats object: same keys, same order.
  EXPECT_EQ(run({"explore", settop_path()}), 0);
  const std::vector<std::string> complete = stats_line_keys();
  EXPECT_EQ(run({"explore", settop_path(), "--json"}), 0);
  EXPECT_EQ(complete, json_stats_keys());

  // An interrupted band run adds the certificate and the phase times.
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=4",
                 "--threads=4"}),
            3);
  const std::vector<std::string> partial = stats_line_keys();
  EXPECT_GT(partial.size(), complete.size());
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=4",
                 "--threads=4", "--json"}),
            3);
  EXPECT_EQ(partial, json_stats_keys());

  // Strings print unquoted, other values as compact JSON.
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=4"}), 3);
  EXPECT_NE(out_.str().find(" stop_reason=allocations "), std::string::npos);
  EXPECT_NE(out_.str().find(" resumed=false "), std::string::npos);
}

TEST_F(CliTest, ExploreJsonStatsKeysArePinned) {
  // The --json stats schema of a complete one-thread run.
  EXPECT_EQ(run({"explore", settop_path(), "--json"}), 0);
  const std::vector<std::string> expected{
      "universe", "raw_design_points", "candidates_generated",
      "dominated_skipped", "possible_allocations", "flexibility_estimations",
      "bound_skipped", "branches_pruned", "implementation_attempts",
      "solver_calls", "solver_nodes", "cache_hits_feasible",
      "cache_hits_infeasible", "cache_revalidations", "cache_entries",
      "analysis_pruned", "hier_subsolves", "hier_hits", "flat_cache_entries",
      "flat_cache_evictions", "wall_seconds", "index_build_seconds",
      "stop_reason", "budget_abandoned", "frontier_remaining", "resumed",
      "exhausted", "threads", "bands", "peak_band_size"};
  EXPECT_EQ(expected.size(), 30u);
  EXPECT_EQ(json_stats_keys(), expected);
}

TEST_F(CliTest, ExploreThreadsZeroAutoDetectsHardwareConcurrency) {
  // --threads 0 evaluates cost bands with one thread per hardware
  // thread; the resolved count (>= 1 even when hardware_concurrency()
  // reports 0) must show up in the stats, and the front must match the
  // sequential default byte for byte.
  EXPECT_EQ(run({"explore", settop_path(), "--json", "--threads=0"}), 0);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  ASSERT_NE(doc.value().find("front"), nullptr);
  EXPECT_EQ(doc.value().find("front")->as_array().size(), 6u);
  const Json* stats = doc.value().find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->number_or("threads", 0), 1.0);
  EXPECT_GE(stats->number_or("bands", 0), 1.0);
  EXPECT_GE(stats->number_or("peak_band_size", 0), 1.0);
}

TEST_F(CliTest, ExploreJsonReportsEveryPruningCounter) {
  // Counters that once never reached --json.
  EXPECT_EQ(run({"explore", settop_path(), "--json"}), 0);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const Json* stats = doc.value().find("stats");
  ASSERT_NE(stats, nullptr);
  for (const char* key : {"branches_pruned", "flexibility_estimations",
                          "analysis_pruned", "exhausted"})
    EXPECT_NE(stats->find(key), nullptr) << key;
  EXPECT_EQ(stats->number_or("flexibility_estimations", -1),
            stats->number_or("possible_allocations", -2));
  EXPECT_GT(stats->number_or("branches_pruned", -1), 0.0);
  // Settop reaches its maximal flexibility, so the stream never runs dry.
  EXPECT_FALSE(stats->bool_or("exhausted", true));

  // The text stats line carries the branch-bound count too.
  EXPECT_EQ(run({"explore", settop_path()}), 0);
  EXPECT_NE(out_.str().find(" branches_pruned="), std::string::npos);
}

TEST_F(CliTest, ExploreBudgetExhaustionExitsThreeAndWritesCheckpoint) {
  const std::string ck = tmp_path("ck_basic.json");
  std::remove(ck.c_str());
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=4",
                 "--checkpoint=" + ck}),
            3);
  EXPECT_NE(err_.str().find("partial result: allocations budget exhausted"),
            std::string::npos);
  EXPECT_NE(err_.str().find("--resume"), std::string::npos);
  EXPECT_NE(out_.str().find("stop_reason=allocations"), std::string::npos);
  EXPECT_NE(out_.str().find("exact_up_to_cost="), std::string::npos);

  std::ifstream in(ck);
  ASSERT_TRUE(in.good()) << "checkpoint file not written";
  std::stringstream buf;
  buf << in.rdbuf();
  Result<Json> doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value().string_or("format", ""), "sdf-explore-checkpoint");
}

TEST_F(CliTest, ExploreCheckpointWriteFailureExitsOne) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  EXPECT_EQ(run({"explore", settop_path(), "--max-allocations=4",
                 "--checkpoint=/dev/full"}),
            1);
  EXPECT_NE(err_.str().find("cannot write checkpoint"), std::string::npos);
  EXPECT_EQ(err_.str().find("--resume"), std::string::npos);
}

TEST_F(CliTest, ExploreResumeChainReproducesUninterruptedFront) {
  const std::string ck = tmp_path("ck_chain.json");
  std::remove(ck.c_str());
  ASSERT_EQ(run({"explore", settop_path(), "--no-stats"}), 0);
  const std::string uninterrupted = out_.str();

  int code = run({"explore", settop_path(), "--max-allocations=500",
                  "--checkpoint=" + ck, "--no-stats"});
  for (int i = 0; code == 3 && i < 50; ++i)
    code = run({"explore", settop_path(), "--max-allocations=500",
                "--checkpoint=" + ck, "--resume", "--no-stats"});
  ASSERT_EQ(code, 0) << err_.str();
  EXPECT_EQ(out_.str(), uninterrupted);
}

TEST_F(CliTest, ExploreAnytimeJsonCarriesCertificate) {
  const std::string ck = tmp_path("ck_json.json");
  std::remove(ck.c_str());
  EXPECT_EQ(run({"explore", settop_path(), "--json", "--max-allocations=4",
                 "--checkpoint=" + ck}),
            3);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const Json* stats = doc.value().find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->string_or("stop_reason", ""), "allocations");
  ASSERT_NE(stats->find("exact_up_to_cost"), nullptr);
}

TEST_F(CliTest, ExploreResumeRejectsMissingOrCorruptCheckpoint) {
  EXPECT_EQ(run({"explore", settop_path(),
                 "--checkpoint=/tmp/sdf_cli_test_ck_missing.json",
                 "--resume"}),
            1);
  const std::string ck = tmp_path("ck_corrupt.json");
  {
    std::ofstream f(ck);
    f << "{\"format\": \"wrong\"}";
  }
  EXPECT_EQ(run({"explore", settop_path(), "--checkpoint=" + ck, "--resume"}),
            1);
  EXPECT_FALSE(err_.str().empty());
}

TEST_F(CliTest, ExploreEvolutionary) {
  EXPECT_EQ(run({"explore", settop_path(), "--evolutionary", "--seed=3"}), 0);
  EXPECT_FALSE(out_.str().empty());
}

TEST_F(CliTest, UpgradeFromDeployedPlatform) {
  EXPECT_EQ(run({"upgrade", settop_path(), "--existing=uP2"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("deployed: uP2  f=2 of 8"), std::string::npos);
  EXPECT_NE(text.find("330"), std::string::npos);  // cheapest full upgrade
  EXPECT_EQ(run({"upgrade", settop_path(), "--existing=bogus"}), 2);
  EXPECT_EQ(run({"upgrade"}), 2);
}

TEST_F(CliTest, UpgradeFromNothingIsPlainExplore) {
  EXPECT_EQ(run({"upgrade", settop_path()}), 0);
  EXPECT_NE(out_.str().find("deployed: (nothing)"), std::string::npos);
  EXPECT_NE(out_.str().find("430"), std::string::npos);
}

TEST_F(CliTest, SensitivityCommand) {
  EXPECT_EQ(run({"sensitivity", settop_path(), "--alloc=uP2,A1,C2"}), 0);
  EXPECT_NE(out_.str().find("implemented flexibility: 7"),
            std::string::npos);
  EXPECT_NE(out_.str().find("critical"), std::string::npos);
  // Empty --alloc defaults to the full universe.
  EXPECT_EQ(run({"sensitivity", settop_path()}), 0);
  EXPECT_NE(out_.str().find("implemented flexibility: 8"),
            std::string::npos);
  EXPECT_EQ(run({"sensitivity", settop_path(), "--alloc=nope"}), 2);
  EXPECT_EQ(run({"sensitivity"}), 2);
}

TEST_F(CliTest, ReduceCommandEmitsLoadableSpec) {
  EXPECT_EQ(run({"reduce", settop_path(), "--alloc=uP2"}), 0);
  Result<SpecificationGraph> reduced = spec_from_string(out_.str());
  ASSERT_TRUE(reduced.ok()) << reduced.error().message;
  EXPECT_EQ(reduced.value().alloc_units().size(), 1u);
  EXPECT_FALSE(reduced.value().problem().find_node("Pd3").valid());
  EXPECT_EQ(run({"reduce", settop_path(), "--alloc=wat"}), 2);
  EXPECT_EQ(run({"reduce"}), 2);
}

TEST_F(CliTest, DotEmitsGraphviz) {
  EXPECT_EQ(run({"dot", settop_path()}), 0);
  EXPECT_NE(out_.str().find("digraph"), std::string::npos);
  EXPECT_NE(out_.str().find("Pd3"), std::string::npos);
  EXPECT_EQ(run({"dot", settop_path(), "--graph=architecture"}), 0);
  EXPECT_NE(out_.str().find("FPGA"), std::string::npos);
  EXPECT_EQ(run({"dot", settop_path(), "--graph=spec"}), 0);
  EXPECT_NE(out_.str().find("problem graph G_P"), std::string::npos);
  EXPECT_NE(out_.str().find("architecture graph G_A"), std::string::npos);
  EXPECT_NE(out_.str().find("style=dotted"), std::string::npos);
  EXPECT_EQ(run({"dot", settop_path(), "--graph=wat"}), 2);
}

TEST_F(CliTest, GenerateEmitsLoadableSpec) {
  EXPECT_EQ(run({"generate", "--seed=9", "--applications=2"}), 0);
  Result<SpecificationGraph> spec = spec_from_string(out_.str());
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_GT(spec.value().problem().leaves().size(), 0u);
}

TEST_F(CliTest, GenerateRejectsNegativeCounts) {
  // Cast to size_t, these counts made the generator loop for good or
  // abort, so each runs in a child process under a timeout first.
  for (const std::string bad :
       {"--processors=-1", "--applications=-2", "--tiles=-1"}) {
    ASSERT_EQ(run_in_child({"generate", bad}, std::chrono::seconds(10)), 2)
        << bad;
    EXPECT_EQ(run({"generate", bad}), 2) << bad;
    const std::string name = bad.substr(0, bad.find('='));
    EXPECT_NE(err_.str().find("flag " + name + " expects a non-negative"),
              std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, DemoModelsRoundTrip) {
  EXPECT_EQ(run({"demo", "settop"}), 0);
  ASSERT_TRUE(spec_from_string(out_.str()).ok());
  EXPECT_EQ(run({"demo", "decoder"}), 0);
  ASSERT_TRUE(spec_from_string(out_.str()).ok());
  EXPECT_EQ(run({"demo", "nope"}), 2);
  EXPECT_EQ(run({"demo"}), 2);
}

TEST_F(CliTest, PipelineGenerateExplore) {
  // generate | explore: the synthetic spec explores without error.
  EXPECT_EQ(run({"generate", "--seed=4"}), 0);
  const std::string path = tmp_path("gen.json");
  std::ofstream(path) << out_.str();
  EXPECT_EQ(run({"explore", path}), 0);
  EXPECT_NE(out_.str().find("cost"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsBoundTable) {
  EXPECT_EQ(run({"analyze", settop_path()}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("cluster"), std::string::npos);
  EXPECT_NE(text.find("whole spec: lo="), std::string::npos);
  EXPECT_NE(text.find("witness:"), std::string::npos);
  EXPECT_NE(text.find("mandatory processes:"), std::string::npos);
}

TEST_F(CliTest, AnalyzeEmitsJson) {
  EXPECT_EQ(run({"analyze", settop_path(), "--json"}), 0);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  ASSERT_NE(doc.value().find("clusters"), nullptr);
  EXPECT_GT(doc.value().find("clusters")->as_array().size(), 1u);
  EXPECT_FALSE(doc.value().bool_or("front_provably_empty", true));
  // Every cluster entry carries a sound interval: lo <= hi when reachable.
  for (const Json& c : doc.value().find("clusters")->as_array()) {
    if (!c.bool_or("reachable", false)) continue;
    EXPECT_LE(c.number_or("lo", 0.0), c.number_or("hi", 0.0));
  }
}

TEST_F(CliTest, AnalyzeProvablyEmptyFrontExitsTwo) {
  // Two always-active processes forced onto one device: utilization 0.8
  // exceeds the 0.69 bound under *every* allocation.
  const std::string path = tmp_path("analyze_empty.json");
  std::ofstream(path) << R"({
    "name": "overloaded",
    "problem": {"root": {"nodes": [
      {"name": "Q1", "attrs": {"period": 10}},
      {"name": "Q2", "attrs": {"period": 10}}]}},
    "architecture": {"root": {"nodes": [{"name": "R",
                                         "attrs": {"cost": 10}}]}},
    "mappings": [
      {"process": "Q1", "resource": "R", "latency": 4},
      {"process": "Q2", "resource": "R", "latency": 4}
    ]
  })";
  EXPECT_EQ(run({"analyze", path}), 2);
  EXPECT_NE(out_.str().find("front provably empty"), std::string::npos);
  EXPECT_EQ(run({"analyze", path, "--json"}), 2);
  Result<Json> doc = Json::parse(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_TRUE(doc.value().bool_or("front_provably_empty", false));
  // Relaxing the utilization bound away restores feasibility.
  EXPECT_EQ(run({"analyze", path, "--util-bound=0"}), 0);
}

TEST_F(CliTest, AnalyzeUsageErrors) {
  EXPECT_EQ(run({"analyze"}), 2);
  EXPECT_EQ(run({"analyze", "/tmp/definitely_missing_file.json"}), 1);
  EXPECT_EQ(run({"analyze", settop_path(), "--comm=wat"}), 2);
}

TEST_F(CliTest, ExploreAnalysisModesAgreeOnFront) {
  // The ECA prefilter and the allocation-level bound are sound: all three
  // modes print the identical Pareto front.
  // (--no-stats: the node/pruning counters legitimately differ.)
  EXPECT_EQ(run({"explore", settop_path(), "--csv", "--no-stats"}), 0);
  const std::string base = out_.str();
  EXPECT_NE(base.find("cost"), std::string::npos);
  EXPECT_EQ(
      run({"explore", settop_path(), "--csv", "--no-stats", "--no-analysis"}),
      0);
  EXPECT_EQ(out_.str(), base);
  EXPECT_EQ(run({"explore", settop_path(), "--csv", "--no-stats",
                 "--analysis-bound"}),
            0);
  EXPECT_EQ(out_.str(), base);
}

TEST_F(CliTest, ExploreAnalysisPreflightProvesFrontEmpty) {
  // Lint-clean under the default 0.69 bound (utilization 0.5), but the
  // analyzer's relaxation proves the front empty once --util-bound drops
  // below it — the second preflight stage catches it before exploring.
  const std::string path = tmp_path("analyze_preflight.json");
  std::ofstream(path) << R"({
    "name": "tight",
    "problem": {"root": {"nodes": [{"name": "P", "attrs": {"period": 10}}]}},
    "architecture": {"root": {"nodes": [{"name": "R",
                                         "attrs": {"cost": 10}}]}},
    "mappings": [{"process": "P", "resource": "R", "latency": 5}]
  })";
  EXPECT_EQ(run({"explore", path}), 0);
  EXPECT_EQ(run({"explore", path, "--util-bound=0.4"}), 2);
  EXPECT_NE(err_.str().find("relaxation proves the Pareto front empty"),
            std::string::npos);
  // The escape hatch explores anyway and confirms: empty front, exit 0.
  EXPECT_EQ(run({"explore", path, "--util-bound=0.4", "--no-preflight"}), 0);
}

}  // namespace
}  // namespace sdf
