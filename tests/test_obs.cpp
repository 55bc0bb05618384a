// End-to-end tests for the observability layer: golden JSONL traces across
// transports, span reconstruction, the Chrome-trace envelope, the run
// manifest schema, and config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"

namespace dmx {
namespace {

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.n_nodes = 5;
  cfg.lambda = 0.5;
  cfg.t_msg = 0.1;
  cfg.t_exec = 0.1;
  cfg.total_requests = 60;
  cfg.seed = 11;
  return cfg;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// Drop transport-plane records: the reliability layer's own events, which
/// by design are the only difference between a raw and a reliable trace of
/// the same run.
std::vector<std::string> without_transport(const std::vector<std::string>& in) {
  std::vector<std::string> out;
  for (const auto& l : in) {
    if (l.find("\"cat\":\"transport\"") == std::string::npos) out.push_back(l);
  }
  return out;
}

TEST(GoldenTrace, JsonlIdenticalAcrossTransportsModuloTransportEvents) {
  harness::register_builtin_algorithms();
  std::string traces[2];
  const harness::TransportKind kinds[2] = {harness::TransportKind::kRaw,
                                           harness::TransportKind::kReliable};
  for (int i = 0; i < 2; ++i) {
    std::ostringstream os;
    {
      harness::ExperimentConfig cfg = small_config();
      cfg.transport = kinds[i];
      if (kinds[i] == harness::TransportKind::kReliable) {
        // Losing only acks exercises the transport plane (retransmits,
        // dup-drops) without perturbing the protocol timeline: the data
        // frame still arrives on its first transmission.
        cfg.loss_by_type["RT-ACK"] = 0.2;
      }
      cfg.trace_sink = std::make_shared<obs::JsonlSink>(os);
      cfg.collect_spans = true;
      const auto r = harness::run_experiment(cfg);
      EXPECT_TRUE(r.drained);
      EXPECT_EQ(r.safety_violations, 0u);
      if (kinds[i] == harness::TransportKind::kReliable) {
        EXPECT_GT(r.transport.retransmits, 0u);
      }
    }
    traces[i] = os.str();
  }
  const auto raw = without_transport(split_lines(traces[0]));
  const auto reliable = without_transport(split_lines(traces[1]));
  ASSERT_FALSE(raw.empty());
  ASSERT_EQ(raw.size(), reliable.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i], reliable[i]) << "first divergence at line " << i;
  }
  // The reliable run does have a transport plane; the filter removed it.
  EXPECT_GT(split_lines(traces[1]).size(), reliable.size());
}

TEST(SpanReconstruction, EveryCompletedRequestYieldsOneCompleteSpan) {
  harness::register_builtin_algorithms();
  auto mem = std::make_shared<obs::MemorySink>();
  harness::ExperimentConfig cfg = small_config();
  cfg.trace_sink = mem;
  cfg.collect_spans = true;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.spans != nullptr);
  EXPECT_EQ(r.spans->completed, r.completed);
  EXPECT_EQ(r.spans->aborted, 0u);
  EXPECT_EQ(r.spans->open, 0u);
  ASSERT_EQ(mem->spans().size(), r.completed);
  for (const obs::Span& s : mem->spans()) {
    EXPECT_TRUE(s.complete);
    EXPECT_FALSE(s.aborted);
    EXPECT_GE(s.node, 0);
    EXPECT_GT(s.request_id, 0u);
    EXPECT_GE(s.queue_wait(), 0.0);
    EXPECT_GE(s.transit(), 0.0);
    EXPECT_GE(s.token_wait(), 0.0);
    EXPECT_GE(s.acquire(), 0.0);
    EXPECT_GT(s.cs_time(), 0.0);
    // acquire decomposes into transit + token_wait.
    EXPECT_NEAR(s.acquire(), s.transit() + s.token_wait(), 1e-9);
  }
  // Phase moments aggregate exactly the completed spans.
  EXPECT_EQ(r.spans->cs.moments.count(), r.completed);
  EXPECT_NEAR(r.spans->cs.moments.mean(), cfg.t_exec, 1e-9);
}

TEST(SpanReconstruction, CrashMarksOpenRequestAborted) {
  harness::register_builtin_algorithms();
  harness::ExperimentConfig cfg = small_config();
  cfg.params.set("recovery", 1.0);
  cfg.fault_plan = "t=0.35 crash 0; t=20 restart 0";
  cfg.collect_spans = true;
  cfg.total_requests = 40;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.spans != nullptr);
  EXPECT_EQ(r.spans->aborted, r.aborted_by_crash);
  EXPECT_EQ(r.spans->completed, r.completed);
}

TEST(ChromeTrace, EnvelopeClosesAndCarriesSlices) {
  harness::register_builtin_algorithms();
  std::ostringstream os;
  {
    harness::ExperimentConfig cfg = small_config();
    cfg.total_requests = 20;
    cfg.trace_sink = std::make_shared<obs::ChromeTraceSink>(os);
    cfg.collect_spans = true;
    (void)harness::run_experiment(cfg);
    // The envelope's closing bracket is written by the sink destructor,
    // which runs when cfg goes out of scope here.
  }
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // span slices
  EXPECT_NE(out.find("\"name\":\"cs\""), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

TEST(RunManifest, SchemaAndSpanBlockPresent) {
  harness::register_builtin_algorithms();
  harness::ExperimentConfig cfg = small_config();
  cfg.collect_spans = true;
  harness::RunRecord rec{cfg, harness::run_experiment(cfg)};
  std::ostringstream os;
  harness::write_run_manifest(os, {rec});
  const std::string m = os.str();
  EXPECT_NE(m.find("\"schema\":\"dmx.run.v1\""), std::string::npos);
  EXPECT_NE(m.find("\"runs\":["), std::string::npos);
  EXPECT_NE(m.find("\"algorithm\":\"arbiter-tp\""), std::string::npos);
  EXPECT_NE(m.find("\"messages_by_type\""), std::string::npos);
  EXPECT_NE(m.find("\"REQUEST\""), std::string::npos);
  EXPECT_NE(m.find("\"spans\""), std::string::npos);
  EXPECT_NE(m.find("\"token_wait\""), std::string::npos);
  EXPECT_NE(m.find("\"grant_wait\""), std::string::npos);
  EXPECT_NE(m.find("\"transport\""), std::string::npos);
  // Lock-service scenario keys (PR 9) are part of the config schema even
  // for single-resource runs, so downstream tooling can rely on them.
  EXPECT_NE(m.find("\"n_resources\":1"), std::string::npos);
  EXPECT_NE(m.find("\"zipf_s\":0,"), std::string::npos);
  EXPECT_NE(m.find("\"shard_algo_hot\":\"arbiter-tp\""), std::string::npos);
  EXPECT_NE(m.find("\"shard_algo_cold\":\"path-reversal\""), std::string::npos);
  // Balanced JSON at the top level: crude but catches envelope bugs.
  EXPECT_EQ(std::count(m.begin(), m.end(), '{'),
            std::count(m.begin(), m.end(), '}'));
}

TEST(RunManifest, LockServiceBlockSchema) {
  harness::register_builtin_algorithms();
  harness::LockServiceConfig ls;
  ls.n_resources = 6;
  ls.zipf_s = 1.1;
  ls.hot_algorithm = "suzuki-kasami";
  ls.total_demands = 400;
  ls.hot_nodes = 4;
  ls.cold_nodes = 2;
  ls.think_mean = 0.5;
  ls.batch_size = 4;
  ls.seed = 7;
  const harness::LockServiceReport report = harness::run_lock_service(ls);

  std::ostringstream os;
  harness::write_run_manifest(
      os, {harness::lock_service_record(small_config(), ls, report)});
  const std::string m = os.str();

  // The lock-service config keys, and the algorithm, come from the
  // LockServiceConfig that ran.
  EXPECT_NE(m.find("\"config\":{\"algorithm\":\"suzuki-kasami\""),
            std::string::npos);
  EXPECT_NE(m.find("\"n_resources\":6,\"zipf_s\":1.1,"
                   "\"shard_algo_hot\":\"suzuki-kasami\","
                   "\"shard_algo_cold\":\"path-reversal\""),
            std::string::npos);
  EXPECT_NE(m.find("\"lock_service\""), std::string::npos);
  EXPECT_NE(m.find("\"hot_shards\""), std::string::npos);
  EXPECT_NE(m.find("\"grant_p99_worst\""), std::string::npos);
  EXPECT_NE(m.find("\"fairness_min\""), std::string::npos);
  EXPECT_NE(m.find("\"shards\":["), std::string::npos);
  // Per-shard scorecard keys.
  EXPECT_NE(m.find("\"grant_p50\""), std::string::npos);
  EXPECT_NE(m.find("\"grant_p99\""), std::string::npos);
  EXPECT_NE(m.find("\"fairness\""), std::string::npos);
  EXPECT_NE(m.find("\"algorithm\":\"path-reversal\""), std::string::npos);
  EXPECT_NE(m.find("\"hot\":true"), std::string::npos);
  EXPECT_NE(m.find("\"hot\":false"), std::string::npos);
  EXPECT_NE(m.find("\"drained\":true"), std::string::npos);
  // One shard object per resource.
  std::size_t shard_objects = 0;
  for (std::size_t pos = m.find("\"resource\":"); pos != std::string::npos;
       pos = m.find("\"resource\":", pos + 1)) {
    ++shard_objects;
  }
  EXPECT_EQ(shard_objects, ls.n_resources);
  EXPECT_EQ(std::count(m.begin(), m.end(), '{'),
            std::count(m.begin(), m.end(), '}'));
}

TEST(ConfigValidation, ReportsEveryProblemAtOnce) {
  harness::register_builtin_algorithms();
  harness::ExperimentConfig cfg;
  cfg.algorithm = "no-such-algo";
  cfg.n_nodes = 0;
  cfg.lambda = -1.0;
  cfg.total_requests = 0;
  cfg.loss_by_type["REQUEST"] = 1.5;
  cfg.fault_plan = "t=abc crash 1";
  const auto errors = cfg.validate();
  EXPECT_GE(errors.size(), 6u);
  bool mentions_algo = false;
  for (const auto& e : errors) {
    if (e.find("no-such-algo") != std::string::npos) mentions_algo = true;
  }
  EXPECT_TRUE(mentions_algo);
  // The parser's message already names the fault plan: no second prefix.
  const std::string plan_error =
      "fault plan: bad time 'abc' in action 't=abc crash 1'";
  EXPECT_EQ(std::count(errors.begin(), errors.end(), plan_error), 1)
      << ::testing::PrintToString(errors);
}

TEST(ConfigValidation, ValidConfigPasses) {
  harness::register_builtin_algorithms();
  EXPECT_TRUE(small_config().validate().empty());
}

TEST(ConfigValidation, RunExperimentThrowsOnInvalidConfig) {
  harness::register_builtin_algorithms();
  harness::ExperimentConfig cfg = small_config();
  cfg.algorithm = "bogus";
  cfg.lambda = 0.0;
  cfg.t_exec = -1.0;
  const std::vector<std::string> errors = cfg.validate();
  ASSERT_EQ(errors.size(), 3u);
  try {
    (void)harness::run_experiment(cfg);
    FAIL() << "run_experiment should have thrown";
  } catch (const std::invalid_argument& e) {
    // Every problem at once, not just the first.
    const std::string msg = e.what();
    for (const std::string& err : errors) {
      EXPECT_NE(msg.find(err), std::string::npos) << err;
    }
  }
}

}  // namespace
}  // namespace dmx
