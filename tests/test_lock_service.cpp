// Tests for the sharded lock-service scenario (harness/lock_service.hpp):
// one MutexCluster per shard under the closed-loop generator, fanned over
// workers, with per-shard SLOs and a pinned manifest and trace.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"
#include "mutex/registry.hpp"
#include "obs/sinks.hpp"
#include "testbed.hpp"
#include "workload/zipf.hpp"

namespace dmx::mutex {
namespace {

harness::LockServiceConfig small_service() {
  harness::LockServiceConfig cfg;
  cfg.n_resources = 12;
  cfg.zipf_s = 0.9;
  cfg.total_demands = 1'500;
  cfg.hot_nodes = 6;
  cfg.cold_nodes = 3;
  cfg.think_mean = 0.5;
  cfg.seed = 42;
  return cfg;
}

TEST(LockService, ValidateReportsEveryErrorAtOnce) {
  harness::register_builtin_algorithms();
  harness::LockServiceConfig cfg;
  cfg.n_resources = 0;
  cfg.zipf_s = -1.0;
  cfg.total_demands = 0;
  cfg.hot_algorithm = "no-such-hot";
  cfg.cold_algorithm = "no-such-cold";
  cfg.think_mean = 0.0;
  const auto errors = cfg.validate();
  EXPECT_GE(errors.size(), 6u);
  EXPECT_THROW((void)harness::run_lock_service(cfg), std::invalid_argument);
}

// Any registered algorithm can guard a shard: a small service running it
// on every shard, hot and cold, drains with no safety violation.
TEST(LockService, WorksWithEveryRegisteredAlgorithm) {
  harness::register_builtin_algorithms();
  for (const std::string& algo : Registry::instance().names()) {
    harness::LockServiceConfig cfg;
    cfg.n_resources = 3;
    cfg.total_demands = 60;
    cfg.hot_algorithm = algo;
    cfg.cold_algorithm = algo;
    cfg.hot_nodes = 4;
    cfg.cold_nodes = 3;
    cfg.seed = 9;
    const harness::LockServiceReport report = harness::run_lock_service(cfg);
    EXPECT_TRUE(report.drained) << algo;
    EXPECT_EQ(report.safety_violations, 0u) << algo;
    EXPECT_GT(report.total_messages, 0u) << algo;
  }
}

TEST(LockService, MixedShardAlgorithmsZeroViolations) {
  harness::register_builtin_algorithms();
  const harness::LockServiceReport report =
      harness::run_lock_service(small_service());
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.safety_violations, 0u);
  EXPECT_EQ(report.total_completed, 1'500u);
  // The Zipf head/tail split exercises BOTH algorithms.
  EXPECT_GE(report.hot_shards, 1u);
  EXPECT_LT(report.hot_shards, report.shards.size());
  EXPECT_EQ(report.shards[0].algorithm, "arbiter-tp");
  EXPECT_TRUE(report.shards[0].hot);
  EXPECT_EQ(report.shards.back().algorithm, "path-reversal");
  // The demand split is the canonical Zipf vector.
  const auto demand = workload::zipf_demand_vector(12, 0.9, 1'500, 42);
  for (std::size_t r = 0; r < report.shards.size(); ++r) {
    EXPECT_EQ(report.shards[r].demand, demand[r]) << "shard " << r;
    EXPECT_EQ(report.shards[r].completed, demand[r]) << "shard " << r;
  }
  // SLO material is populated on loaded shards.
  EXPECT_GT(report.shards[0].grant_p99, 0.0);
  EXPECT_GE(report.shards[0].grant_p99, report.shards[0].grant_p50);
  EXPECT_GT(report.grant_p99_worst, 0.0);
  EXPECT_GT(report.fairness_min, 0.0);
  EXPECT_LE(report.fairness_min, 1.0);
}

TEST(LockService, JobsFanOutIsByteIdentical) {
  harness::register_builtin_algorithms();
  harness::LockServiceConfig cfg = small_service();
  auto manifest_of = [&cfg](std::size_t jobs) {
    cfg.jobs = jobs;
    const harness::LockServiceReport report =
        harness::run_lock_service(cfg);
    std::ostringstream os;
    harness::write_run_manifest(
        os, {harness::lock_service_record({}, cfg, report)});
    return os.str();
  };
  const std::string serial = manifest_of(1);
  // The full per-shard scorecard — every double included — is byte-stable
  // for any worker count (shards are independently seeded simulators).
  EXPECT_EQ(serial, manifest_of(8));
  EXPECT_EQ(serial, manifest_of(0));  // 0 = hardware concurrency
}

// The service's output is pinned, not only compared with itself: a change
// that moves any shard's schedule, scorecard or trace fails here even when
// it is deterministic.
TEST(LockService, SmallServiceOutputIsPinned) {
  harness::register_builtin_algorithms();
  harness::LockServiceConfig cfg = small_service();
  std::ostringstream trace;
  auto sink = std::make_shared<obs::JsonlSink>(trace);
  cfg.trace_sink = sink;
  const harness::LockServiceReport report = harness::run_lock_service(cfg);
  sink->flush();
  std::ostringstream manifest;
  harness::write_run_manifest(
      manifest, {harness::lock_service_record({}, cfg, report)});
  EXPECT_FALSE(trace.str().empty());
  EXPECT_EQ(testbed::fnv1a64(manifest.str()), 0x6e7551648eb852ccULL);
  EXPECT_EQ(testbed::fnv1a64(trace.str()), 0xf03da7aee864b852ULL);
}

TEST(LockService, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(harness::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_fairness({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_fairness({5, 5, 5}), 1.0);
  // One tenant hogging everything: index collapses to 1/n.
  EXPECT_NEAR(harness::jain_fairness({9, 0, 0}), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dmx::mutex
