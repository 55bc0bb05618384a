// Tests for the multi-resource LockSpace: spec validation, typed acquire
// tickets with grant/release hooks, demand batching, and the sharded
// lock-service scenario built on top of it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"
#include "mutex/lock_space.hpp"
#include "obs/lifecycle.hpp"
#include "obs/sinks.hpp"
#include "sim/rng.hpp"
#include "workload/zipf.hpp"

namespace dmx::mutex {
namespace {

LockSpaceSpec base_config() {
  harness::register_builtin_algorithms();
  LockSpaceSpec spec;
  spec.n_nodes = 6;
  spec.n_resources = 3;
  spec.seed = 9;
  return spec;
}

TEST(LockSpace, ValidatesConfig) {
  LockSpaceSpec spec = base_config();
  spec.n_resources = 0;
  EXPECT_THROW(LockSpace{spec}, std::invalid_argument);
  spec = base_config();
  spec.algorithm = "no-such";
  EXPECT_THROW(LockSpace{spec}, std::invalid_argument);
  // The ctor's exception lists every problem, not just the first.
  spec.n_nodes = 0;
  try {
    LockSpace space(spec);
    FAIL() << "the ctor should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such"), std::string::npos);
    EXPECT_NE(what.find("n_nodes"), std::string::npos);
  }
}

TEST(LockSpace, ResourcesAreIndependent) {
  LockSpace space(base_config());
  // One node locks resource 0 for a long CS while others use resources 1,2.
  space.acquire(0, 0);
  space.acquire(1, 1);
  space.acquire(2, 2);
  space.simulator().run();
  EXPECT_EQ(space.total_completed(), 3u);
  EXPECT_EQ(space.safety_violations(), 0u);
  // The three grants overlapped in time (they share the clock but not the
  // lock): true cross-resource parallelism.
  EXPECT_GE(space.max_parallel_grants(), 2);
}

TEST(LockSpace, PerResourceExclusivityHolds) {
  auto cfg = base_config();
  cfg.n_resources = 2;
  LockSpace space(cfg);
  sim::Rng rng(3);
  for (int k = 0; k < 300; ++k) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const auto res = static_cast<std::size_t>(rng.uniform_int(0, 1));
    const double when = rng.uniform(0.0, 30.0);
    space.simulator().schedule_at(
        sim::SimTime::units(when),
        [&space, node, res] { space.acquire(node, res); });
  }
  space.simulator().run();
  EXPECT_EQ(space.total_completed(), 300u);
  EXPECT_EQ(space.total_submitted(), 300u);
  EXPECT_EQ(space.safety_violations(), 0u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(space.monitor(r).max_occupancy(), 1) << "resource " << r;
  }
  // Both locks were held simultaneously at some point under this load.
  EXPECT_EQ(space.max_parallel_grants(), 2);
}

TEST(LockSpace, WorksWithEveryRegisteredAlgorithm) {
  harness::register_builtin_algorithms();
  for (const std::string algo :
       {"arbiter-tp", "suzuki-kasami", "ricart-agrawala", "raymond",
        "path-reversal", "centralized"}) {
    auto cfg = base_config();
    cfg.algorithm = algo;
    LockSpace space(cfg);
    for (std::size_t i = 0; i < 6; ++i) {
      space.acquire(i, i % 3);
      space.acquire(i, (i + 1) % 3);
    }
    space.simulator().run();
    EXPECT_EQ(space.total_completed(), 12u) << algo;
    EXPECT_EQ(space.safety_violations(), 0u) << algo;
  }
}

TEST(LockSpace, MessageAccountingIsPerResource) {
  auto cfg = base_config();
  cfg.n_resources = 2;
  LockSpace space(cfg);
  space.acquire(3, 0);  // only resource 0 sees traffic
  space.simulator().run();
  EXPECT_GT(space.messages(0), 0u);
  EXPECT_EQ(space.messages(1), 0u);
  EXPECT_EQ(space.total_messages(), space.messages(0));
  EXPECT_EQ(space.completed(0), 1u);
  EXPECT_EQ(space.completed(1), 0u);
}

TEST(LockSpace, SojournStatsPerResource) {
  LockSpace space(base_config());
  space.acquire(1, 0);
  space.acquire(2, 0);
  space.simulator().run();
  const auto w = space.sojourn(0);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_GT(w.mean(), 0.0);
  EXPECT_EQ(space.sojourn(1).count(), 0u);
}

TEST(LockSpaceSpec, ValidateReportsEveryErrorAtOnce) {
  harness::register_builtin_algorithms();
  LockSpaceSpec spec;
  spec.algorithm = "no-such-algorithm";
  spec.n_nodes = 0;
  spec.n_resources = 0;
  spec.t_msg = -1.0;
  spec.t_exec = -1.0;
  const auto errors = spec.validate();
  EXPECT_EQ(errors.size(), 5u);
  auto mentions = [&errors](const std::string& needle) {
    for (const auto& e : errors) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  for (const char* field : {"no-such-algorithm", "n_nodes", "n_resources",
                            "t_msg", "t_exec"}) {
    EXPECT_TRUE(mentions(field)) << field;
  }
}

TEST(LockSpace, AcquireReturnsTicketsAndHooksFireExactlyOnce) {
  harness::register_builtin_algorithms();
  LockSpaceSpec spec;
  spec.n_resources = 2;
  spec.n_nodes = 4;
  spec.seed = 3;
  LockSpace space(spec);
  std::map<std::uint64_t, int> grants, releases;
  std::vector<std::uint64_t> release_order;
  space.set_on_granted([&grants](const LockEvent& e) {
    ASSERT_TRUE(e.id);
    ++grants[e.id.value];
  });
  space.set_on_released([&releases, &release_order](const LockEvent& e) {
    ASSERT_TRUE(e.id);
    ++releases[e.id.value];
    release_order.push_back(e.id.value);
  });
  std::vector<LockRequestId> tickets;
  for (std::size_t node = 0; node < 4; ++node) {
    tickets.push_back(space.acquire(node, node % 2));
    tickets.push_back(space.acquire(node, (node + 1) % 2));
  }
  // Tickets are unique and strictly increasing in submission order.
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_GT(tickets[i].value, tickets[i - 1].value);
  }
  space.simulator().run();
  EXPECT_EQ(space.total_completed(), tickets.size());
  EXPECT_EQ(grants.size(), tickets.size());
  EXPECT_EQ(releases.size(), tickets.size());
  for (const LockRequestId t : tickets) {
    EXPECT_EQ(grants[t.value], 1) << "ticket " << t.value;
    EXPECT_EQ(releases[t.value], 1) << "ticket " << t.value;
  }
}

TEST(LockSpace, SubmitBatchTicketsInOrder) {
  harness::register_builtin_algorithms();
  LockSpaceSpec spec;
  spec.n_resources = 2;
  spec.n_nodes = 3;
  spec.batch_size = 4;
  spec.seed = 5;
  LockSpace space(spec);
  const std::vector<LockDemand> demands = {
      {0, 0, 0}, {1, 0, 0}, {2, 1, 0}, {0, 1, 0}, {1, 1, 0}};
  std::vector<LockRequestId> tickets;
  for (const LockDemand& d : demands) {
    tickets.push_back(space.acquire(d.node, d.resource, d.priority));
  }
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].value, tickets[i - 1].value + 1);
  }
  // The first four went out as a full batch; the fifth is still buffered
  // but holds a ticket, so it counts as submitted.
  EXPECT_EQ(space.total_submitted(), demands.size());
  space.simulator().run();
  EXPECT_EQ(space.total_completed(), demands.size());
  EXPECT_EQ(space.safety_violations(), 0u);
}

TEST(LockSpace, BatchingMatchesUnbatchedOutcomes) {
  harness::register_builtin_algorithms();
  auto run = [](std::size_t batch) {
    LockSpaceSpec spec;
    spec.n_resources = 2;
    spec.n_nodes = 4;
    spec.batch_size = batch;
    spec.seed = 21;
    LockSpace space(spec);
    sim::Rng rng(9);
    for (int k = 0; k < 100; ++k) {
      const auto node = static_cast<std::size_t>(rng.uniform_int(0, 3));
      const auto res = static_cast<std::size_t>(rng.uniform_int(0, 1));
      const double when = rng.uniform(0.0, 20.0);
      space.simulator().schedule_at(
          sim::SimTime::units(when),
          [&space, node, res] { space.acquire(node, res); });
    }
    space.simulator().run();
    std::pair<std::uint64_t, std::vector<std::uint64_t>> out{
        space.safety_violations(), {}};
    for (std::size_t r = 0; r < 2; ++r) {
      for (const std::uint64_t c : space.completions_per_node(r)) {
        out.second.push_back(c);
      }
    }
    EXPECT_EQ(space.total_completed(), 100u);
    return out;
  };
  const auto unbatched = run(0);
  const auto batched = run(8);
  EXPECT_EQ(unbatched.first, 0u);
  EXPECT_EQ(batched.first, 0u);
  // Batching defers submission within the same timestamp only, so per-node
  // completion tallies are identical to the unbatched run.
  EXPECT_EQ(unbatched.second, batched.second);
}

TEST(LockSpace, SpanReportExposesGrantWait) {
  harness::register_builtin_algorithms();
  LockSpaceSpec spec;
  spec.n_resources = 2;
  spec.n_nodes = 3;
  spec.collect_spans = true;
  LockSpace space(spec);
  for (std::size_t node = 0; node < 3; ++node) {
    space.acquire(node, 0);
    space.acquire(node, 1);
  }
  space.simulator().run();
  const obs::SpanReport* report = space.span_report(0);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->completed, 3u);
  EXPECT_EQ(report->grant_wait.moments.count(), 3u);
  EXPECT_GE(report->grant_wait.hist.quantile(0.99),
            report->grant_wait.hist.quantile(0.50));
  // Without collect_spans the report is absent, not empty.
  spec.collect_spans = false;
  LockSpace bare(spec);
  EXPECT_EQ(bare.span_report(0), nullptr);
}

TEST(LockSpace, RequestIdsAreDistinctAcrossResources) {
  // Every resource's cluster draws from the space's one id source, so no
  // two issued requests share an id, whichever resource they are on.
  harness::register_builtin_algorithms();
  auto sink = std::make_shared<obs::MemorySink>();
  LockSpaceSpec spec;
  spec.n_resources = 2;
  spec.n_nodes = 3;
  spec.trace_sink = sink;
  LockSpace space(spec);
  for (std::size_t node = 0; node < 3; ++node) {
    space.acquire(node, 0);
    space.acquire(node, 1);
  }
  space.simulator().run();
  ASSERT_EQ(space.total_completed(), 6u);
  std::set<std::uint64_t> ids;
  for (const obs::MemorySink::Entry& e : sink->by_kind(obs::kEvCsIssued)) {
    ids.insert(e.event.req);
  }
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ(sink->count_kind(obs::kEvCsIssued), 6u);
}

// --- Sharded lock-service scenario (harness/lock_service.hpp) ------------

harness::LockServiceConfig small_service() {
  harness::LockServiceConfig cfg;
  cfg.n_resources = 12;
  cfg.zipf_s = 0.9;
  cfg.total_demands = 1'500;
  cfg.hot_nodes = 6;
  cfg.cold_nodes = 3;
  cfg.think_mean = 0.5;
  cfg.batch_size = 8;
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

TEST(LockService, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(harness::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_fairness({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(harness::jain_fairness({5, 5, 5}), 1.0);
  // One tenant hogging everything: index collapses to 1/n.
  EXPECT_NEAR(harness::jain_fairness({9, 0, 0}), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dmx::mutex
