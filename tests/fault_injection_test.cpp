// Exception safety of the thread pool and, when the build enables
// SDF_FAULT_INJECTION, the deterministic fault-injection harness itself.
//
// The pool tests run in every build: a throwing task is the contract
// multi-thread EXPLORE relies on ("a failed worker surfaces as a Status,
// the pool drains and stays usable").  The gated tests additionally drive
// the armed injection sites — including the acceptance scenario: a worker
// exception mid-band surfaces as a Status with a valid checkpoint, and the
// resumed run reproduces the uninterrupted front bit-identically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace sdf {
namespace {

TEST(ThreadPoolFaults, ThrowingTaskSurfacesAsStatusAndPoolKeepsDraining) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  const Status st = pool.parallel_for(64, [&](std::size_t i) {
    if (i == 13) throw std::runtime_error("boom 13");
    done.fetch_add(1);
  });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("worker task failed"), std::string::npos);
  EXPECT_NE(st.error().message.find("boom 13"), std::string::npos);
  // Every sibling iteration still ran; the pool is drained and reusable.
  EXPECT_EQ(done.load(), 63);
  EXPECT_TRUE(
      pool.parallel_for(32, [&](std::size_t) { done.fetch_add(1); }).ok());
  EXPECT_EQ(done.load(), 63 + 32);
}

TEST(ThreadPoolFaults, BadAllocIsCapturedNotFatal) {
  ThreadPool pool(2);
  const Status st = pool.parallel_for(8, [](std::size_t i) {
    if (i == 0) throw std::bad_alloc();
  });
  ASSERT_FALSE(st.ok());
  // Returning the error cleared the slot.
  EXPECT_TRUE(pool.wait_idle().ok());
}

TEST(ThreadPoolFaults, FirstOfManyErrorsIsReportedOnceAndOnlyOnce) {
  ThreadPool pool(4);
  const Status st = pool.parallel_for(
      16, [](std::size_t i) { throw std::runtime_error(std::to_string(i)); });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(pool.wait_idle().ok());
}

TEST(ThreadPoolFaults, DestructionWithUncollectedErrorIsSafe) {
  // A pending error the caller never collects is logged and dropped by the
  // destructor; it must not escape (std::terminate) or deadlock the join.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("never collected"); });
}

#ifdef SDF_FAULT_INJECTION

/// Every gated test disarms on exit even when an assertion bails out early;
/// leaked arming would poison the tests that follow.
struct DisarmGuard {
  DisarmGuard() { FaultInjector::disarm_all(); }
  ~DisarmGuard() { FaultInjector::disarm_all(); }
};

TEST(FaultInjection, NthHitFiresExactlyOnce) {
  DisarmGuard guard;
  FaultInjector::arm("test.site", FaultKind::kThrow, 3);
  std::vector<int> fired;
  for (int i = 1; i <= 6; ++i) {
    try {
      FaultInjector::hit("test.site");
    } catch (const FaultInjectedError&) {
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, std::vector<int>{3});
  EXPECT_EQ(FaultInjector::hits("test.site"), 6u);
}

TEST(FaultInjection, ProbabilisticFiringIsReplayableFromTheSeed) {
  DisarmGuard guard;
  const auto pattern = [](std::uint64_t seed) {
    FaultInjector::disarm_all();
    FaultInjector::arm_probabilistic("test.prob", FaultKind::kThrow, 0.3,
                                     seed);
    std::vector<int> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        FaultInjector::hit("test.prob");
      } catch (const FaultInjectedError&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const std::vector<int> a = pattern(42);
  const std::vector<int> b = pattern(42);
  const std::vector<int> c = pattern(7);
  EXPECT_EQ(a, b);  // the replayability contract
  EXPECT_NE(a, c);
  // p=0.3 over 200 hits: loosely within [10%, 50%].
  EXPECT_GT(a.size(), 20u);
  EXPECT_LT(a.size(), 100u);
}

TEST(FaultInjection, DelayFaultOnlySlowsNeverFails) {
  DisarmGuard guard;
  FaultInjector::arm("thread_pool.task", FaultKind::kDelay, 2,
                     /*delay_micros=*/500);
  ThreadPool pool(2);
  std::atomic<int> n{0};
  EXPECT_TRUE(pool.parallel_for(8, [&](std::size_t) { n.fetch_add(1); }).ok());
  EXPECT_EQ(n.load(), 8);
}

TEST(FaultInjection, InjectedWorkerThrowSurfacesViaThePool) {
  DisarmGuard guard;
  FaultInjector::arm("thread_pool.task", FaultKind::kThrow, 2);
  ThreadPool pool(2);
  std::atomic<int> n{0};
  const Status st = pool.parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("injected fault"), std::string::npos);
  EXPECT_EQ(n.load(), 15);  // the faulted task died before its body ran
}

TEST(FaultInjection, InjectedEvaluationFaultSurfacesAndRunResumes) {
  DisarmGuard guard;
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.num_threads = 2;

  FaultInjector::arm("explore.evaluate", FaultKind::kThrow, 3);
  const ExploreResult broken = explore(spec, options);
  FaultInjector::disarm_all();

  ASSERT_FALSE(broken.status.ok());
  EXPECT_NE(broken.status.error().message.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(broken.stats.stop_reason, StopReason::kWorkerError);
  ASSERT_TRUE(broken.checkpoint.has_value());

  // The fault poisoned only the in-flight band (merged front untouched):
  // resuming with faults disarmed completes and reproduces the
  // uninterrupted run's front bit-identically.
  ExploreOptions resumed_options = options;
  resumed_options.resume = &*broken.checkpoint;
  const ExploreResult finished = explore(spec, resumed_options);
  ASSERT_TRUE(finished.status.ok()) << finished.status.error().message;
  EXPECT_EQ(finished.stats.stop_reason, StopReason::kCompleted);
  EXPECT_TRUE(finished.stats.resumed);

  const ExploreResult uninterrupted = explore(spec, options);
  ASSERT_EQ(finished.front.size(), uninterrupted.front.size());
  for (std::size_t i = 0; i < finished.front.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(finished.front[i].cost, uninterrupted.front[i].cost);
    EXPECT_EQ(finished.front[i].flexibility,
              uninterrupted.front[i].flexibility);
    EXPECT_TRUE(finished.front[i].units == uninterrupted.front[i].units);
  }
}

TEST(FaultInjection, InjectedBadAllocAbortsTheRunResumably) {
  DisarmGuard guard;
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.num_threads = 2;
  FaultInjector::arm("explore.evaluate", FaultKind::kBadAlloc, 1);
  const ExploreResult broken = explore(spec, options);
  FaultInjector::disarm_all();
  ASSERT_FALSE(broken.status.ok());
  EXPECT_EQ(broken.stats.stop_reason, StopReason::kWorkerError);
  ASSERT_TRUE(broken.checkpoint.has_value());
}

TEST(FaultInjection, InjectedEvaluationFaultStopsAnUpgradeRun) {
  // Upgrade runs share explore()'s engine, so a failed evaluation is
  // reported through the result instead of escaping the call.
  DisarmGuard guard;
  const SpecificationGraph spec = models::make_settop_spec();
  AllocSet base = spec.make_alloc_set();
  base.set(spec.find_unit("uP2").index());
  FaultInjector::arm("explore.evaluate", FaultKind::kThrow, 3);
  const UpgradeResult broken = explore_upgrades(spec, base);
  FaultInjector::disarm_all();
  ASSERT_FALSE(broken.status.ok());
  EXPECT_NE(broken.status.error().message.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(broken.stats.stop_reason, StopReason::kWorkerError);
}

TEST(FaultInjection, UpgradeCommandReportsAFailedRunAndExitsOne) {
  DisarmGuard guard;
  const std::string path = "/tmp/sdf_fault_injection_test_" +
                           std::to_string(::getpid()) + "_settop.json";
  {
    std::ofstream f(path);
    f << spec_to_string(models::make_settop_spec()).value();
  }
  FaultInjector::arm("explore.evaluate", FaultKind::kThrow, 3);
  std::ostringstream out, err;
  const int rc = run_cli({"upgrade", path, "--existing=uP2"}, out, err);
  FaultInjector::disarm_all();
  std::remove(path.c_str());
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("injected fault"), std::string::npos);
  EXPECT_TRUE(out.str().empty());
}

#endif  // SDF_FAULT_INJECTION

}  // namespace
}  // namespace sdf
