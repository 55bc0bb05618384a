// Parallel sweep executor + sealed registries.
//
// The contract under test: running the flattened seed×point job list on any
// number of workers produces output byte-identical to the serial path —
// table text, dmx.run.v1 manifest, per-run JSONL traces — including under a
// lossy reliable-transport chaos campaign.  And the process-wide kind
// registries, once frozen, are immutable: late intern of an unknown name
// throws, concurrent lookups are lock-free and clean (the TSan CI job runs
// this binary), and sealing changes nothing about the kind→name table.
//
// Test order matters for the freeze-transition test: RegistrySeal.* run
// before any ParallelRunner test has frozen the registries, so the
// pre-freeze snapshot really is pre-freeze.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "harness/manifest.hpp"
#include "harness/parallel.hpp"
#include "net/msg_kind.hpp"
#include "obs/event.hpp"

namespace dmx::harness {
namespace {

// ---------------------------------------------------------------------------
// Registry seal (declared first: must observe the pre-freeze state).

TEST(RegistrySeal, FreezeKeepsKindTableByteIdentical) {
  auto& msg = net::MsgKindRegistry::instance();
  auto& ev = obs::EventKindRegistry::instance();
  const std::vector<std::string> msg_before = msg.names();
  const std::vector<std::string> ev_before = ev.names();
  ASSERT_FALSE(msg_before.empty());  // static registration happened
  ASSERT_FALSE(ev_before.empty());

  freeze_registries();
  EXPECT_TRUE(msg.frozen());
  EXPECT_TRUE(ev.frozen());
  EXPECT_EQ(msg.names(), msg_before);
  EXPECT_EQ(ev.names(), ev_before);
  // Every pre-freeze kind still resolves to the same name by index.
  for (std::size_t i = 0; i < msg_before.size(); ++i) {
    EXPECT_EQ(msg.name(net::MsgKind::from_index(i)), msg_before[i]);
  }

  freeze_registries();  // idempotent
  EXPECT_EQ(msg.names(), msg_before);
}

TEST(RegistrySeal, PostFreezeInternOfKnownNameStillResolves) {
  freeze_registries();
  auto& msg = net::MsgKindRegistry::instance();
  const std::vector<std::string> known = msg.names();
  for (const std::string& name : known) {
    EXPECT_EQ(msg.intern(name), msg.find(name)) << name;
  }
  auto& ev = obs::EventKindRegistry::instance();
  for (const std::string& name : ev.names()) {
    EXPECT_EQ(ev.intern(name, "any-category"), ev.find(name)) << name;
  }
}

TEST(RegistrySeal, PostFreezeInternOfUnknownNameThrows) {
  freeze_registries();
  EXPECT_THROW(net::MsgKindRegistry::instance().intern("LATECOMER-MSG"),
               std::logic_error);
  EXPECT_THROW(
      obs::EventKindRegistry::instance().intern("late.event", "late"),
      std::logic_error);
  // Empty-name validation still fires first.
  EXPECT_THROW(net::MsgKindRegistry::instance().intern(""),
               std::invalid_argument);
}

TEST(RegistrySeal, ConcurrentLookupsOnFrozenRegistryAreClean) {
  freeze_registries();
  auto& msg = net::MsgKindRegistry::instance();
  auto& ev = obs::EventKindRegistry::instance();
  const std::vector<std::string> msg_names = msg.names();
  const std::vector<std::string> ev_names = ev.names();
  std::atomic<std::size_t> mismatches{0};
  auto hammer = [&] {
    for (int round = 0; round < 200; ++round) {
      for (std::size_t i = 0; i < msg_names.size(); ++i) {
        const net::MsgKind k = msg.find(msg_names[i]);
        if (!k.valid() || k.index() != i) mismatches.fetch_add(1);
        if (msg.name(k) != msg_names[i]) mismatches.fetch_add(1);
        if (msg.intern(msg_names[i]) != k) mismatches.fetch_add(1);
      }
      for (std::size_t i = 0; i < ev_names.size(); ++i) {
        const obs::EventKind k = ev.find(ev_names[i]);
        if (!k.valid() || k.index() != i) mismatches.fetch_add(1);
        if (ev.name(k) != ev_names[i]) mismatches.fetch_add(1);
        if (ev.category(k) != ev.category(obs::EventKind::from_index(i))) {
          mismatches.fetch_add(1);
        }
      }
      if (msg.size() != msg_names.size()) mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(hammer);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------------
// Seed schedule.

TEST(SeedSchedule, PinnedFormula) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  EXPECT_EQ(seed_schedule(cfg, 0), 59u);      // 42 + 0 + 17
  EXPECT_EQ(seed_schedule(cfg, 1), 1059u);    // 42 + 1000 + 17
  EXPECT_EQ(seed_schedule(cfg, 7), 7059u);
  cfg.seed = 5;
  EXPECT_EQ(seed_schedule(cfg, 3), 3022u);
  // The base-seed form, which the lock service's shards use.
  EXPECT_EQ(seed_schedule(std::uint64_t{5}, 3), 3022u);
  EXPECT_EQ(seed_schedule(std::uint64_t{59}, 2), 2076u);
}

// ---------------------------------------------------------------------------
// Helpers: run a sweep through the CLI, capturing all three artifacts.

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct SweepArtifacts {
  int exit_code = -1;
  std::string table;
  std::string manifest;
  std::string trace;
};

SweepArtifacts run_sweep(CliOptions opts, std::size_t jobs) {
  // ctest runs each gtest case as its own process, concurrently — the
  // artifact names must be unique per process AND per call.
  static std::atomic<int> unique{0};
  const std::string id = std::to_string(::getpid()) + "_" +
                         std::to_string(unique.fetch_add(1));
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::filesystem::path manifest =
      dir / ("dmx_pr_manifest_" + id + ".json");
  const std::filesystem::path trace = dir / ("dmx_pr_trace_" + id + ".jsonl");
  opts.cfg.jobs = jobs;
  opts.emit_json = manifest.string();
  opts.trace_out = trace.string();
  SweepArtifacts a;
  std::ostringstream os;
  a.exit_code = run_cli(opts, os);
  a.table = os.str();
  a.manifest = slurp(manifest);
  a.trace = slurp(trace);
  std::filesystem::remove(manifest);
  std::filesystem::remove(trace);
  return a;
}

CliOptions small_sweep() {
  CliOptions o;
  o.cfg.algorithm = "arbiter-tp";
  o.lambdas = {0.2, 0.5};
  o.seeds = 4;
  o.cfg.total_requests = 1'500;
  return o;
}

void expect_identical(const SweepArtifacts& serial,
                      const SweepArtifacts& parallel, const char* label) {
  EXPECT_EQ(serial.exit_code, parallel.exit_code) << label;
  EXPECT_EQ(serial.table, parallel.table) << label;
  EXPECT_EQ(serial.manifest, parallel.manifest) << label;
  EXPECT_EQ(serial.trace, parallel.trace) << label;
}

// ---------------------------------------------------------------------------
// Determinism equality: jobs 1/2/8 vs the serial seed path.

TEST(ParallelSweep, ByteIdenticalTableManifestTraceAcrossJobs) {
  const CliOptions o = small_sweep();
  const SweepArtifacts serial = run_sweep(o, 1);
  ASSERT_EQ(serial.exit_code, 0);
  ASSERT_FALSE(serial.table.empty());
  ASSERT_FALSE(serial.manifest.empty());
  ASSERT_FALSE(serial.trace.empty());
  expect_identical(serial, run_sweep(o, 2), "--jobs 2");
  expect_identical(serial, run_sweep(o, 8), "--jobs 8");
}

TEST(ParallelSweep, ByteIdenticalUnderLossyReliableCampaign) {
  CliOptions o;
  o.cfg.algorithm = "suzuki-kasami";
  o.cfg.n_nodes = 5;
  o.lambdas = {0.3};
  o.seeds = 6;
  o.cfg.total_requests = 400;
  o.cfg.transport = TransportKind::kReliable;
  o.cfg.fault_plan =
      "t=5 loss *=0.2 until=60; reorder-window t=10..30; t=12 dup-next RT-ACK";
  const SweepArtifacts serial = run_sweep(o, 1);
  ASSERT_EQ(serial.exit_code, 0) << serial.table;
  expect_identical(serial, run_sweep(o, 2), "lossy --jobs 2");
  expect_identical(serial, run_sweep(o, 8), "lossy --jobs 8");
}

// ---------------------------------------------------------------------------
// run_replicated: the library-level fan-out matches the serial path.

std::string fingerprint(const ExperimentConfig& cfg,
                        const ExperimentResult& r) {
  // The manifest serializes the full config + result deterministically; a
  // byte-equal manifest record is as strong an equality as the artifacts
  // themselves make observable.
  std::ostringstream os;
  write_run_manifest(os, {RunRecord{cfg, r}});
  return os.str();
}

TEST(ParallelSweep, RunReplicatedParallelMatchesSerial) {
  ExperimentConfig cfg;
  cfg.algorithm = "raymond";
  cfg.n_nodes = 6;
  cfg.lambda = 0.4;
  cfg.total_requests = 1'000;
  cfg.collect_spans = true;

  cfg.jobs = 1;
  const std::vector<ExperimentResult> serial = run_replicated(cfg, 5);
  cfg.jobs = 4;
  const std::vector<ExperimentResult> parallel = run_replicated(cfg, 5);
  cfg.jobs = 0;  // auto-detect
  const std::vector<ExperimentResult> auto_jobs = run_replicated(cfg, 5);

  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(parallel.size(), 5u);
  ASSERT_EQ(auto_jobs.size(), 5u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExperimentConfig rep = cfg;
    rep.seed = seed_schedule(cfg, i);
    const std::string want = fingerprint(rep, serial[i]);
    EXPECT_EQ(fingerprint(rep, parallel[i]), want) << "replication " << i;
    EXPECT_EQ(fingerprint(rep, auto_jobs[i]), want) << "replication " << i;
  }
}

// ---------------------------------------------------------------------------
// Runner mechanics.

TEST(ParallelRunnerApi, ResolveZeroMeansHardwareConcurrency) {
  EXPECT_GE(ParallelRunner::resolve(0), 1u);
  EXPECT_EQ(ParallelRunner::resolve(3), 3u);
  EXPECT_EQ(ParallelRunner(5).jobs(), 5u);
}

TEST(ParallelRunnerApi, EmptyJobListIsFine) {
  EXPECT_TRUE(ParallelRunner(4).run({}).empty());
}

TEST(ParallelRunnerApi, LowestIndexExceptionPropagatesAfterDrain) {
  ExperimentConfig good;
  good.algorithm = "centralized";
  good.n_nodes = 3;
  good.lambda = 0.5;
  good.total_requests = 50;
  ExperimentConfig bad = good;
  bad.algorithm = "no-such-algorithm";
  const std::vector<ExperimentConfig> configs = {good, bad, good, bad};
  try {
    (void)ParallelRunner(4).run(configs);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-algorithm"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dmx::harness
