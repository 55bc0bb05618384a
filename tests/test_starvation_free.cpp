// Tests for the starvation-free variant (§4.1): monitor node, forward-count
// threshold tau, resubmission to the monitor, the adaptive token-to-monitor
// period, monitor rotation (§5.1) and the idle-system patience safeguard.
#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "testbed.hpp"

namespace dmx::core {
namespace {

using testbed::MutexCluster;

TEST(StarvationFree, OverforwardedRequestDroppedAtArbiter) {
  mutex::ParamSet p;
  p.set("starvation_free", 1.0).set("tau", 3.0).set("monitor", 4.0);
  MutexCluster tb("arbiter-tp-sf", 5, p);
  // Craft a request that has been forwarded past tau and hand it to the
  // arbiter (node 0) directly.
  QEntry e;
  e.node = net::NodeId{1};
  e.request_id = 991;
  e.forward_count = 4;  // > tau
  tb.network().send(net::NodeId{1}, net::NodeId{0},
                    net::make_payload<RequestMsg>(e));
  QEntry ok = e;
  ok.request_id = 992;
  ok.forward_count = 3;  // == tau: kept
  tb.network().send(net::NodeId{1}, net::NodeId{0},
                    net::make_payload<RequestMsg>(ok));
  tb.simulator().run_until(sim::SimTime::units(0.5));
  EXPECT_EQ(tb.arbiter(0).protocol_stats().requests_dropped_overforwarded, 1u);
}

TEST(StarvationFree, MonitorExemptRequestNeverDropped) {
  mutex::ParamSet p;
  p.set("starvation_free", 1.0).set("tau", 1.0).set("monitor", 4.0);
  MutexCluster tb("arbiter-tp-sf", 5, p);
  QEntry e;
  e.node = net::NodeId{1};
  e.request_id = 993;
  e.forward_count = 99;
  tb.network().send(net::NodeId{4}, net::NodeId{0},
                    net::make_payload<RequestMsg>(e, /*to_monitor=*/false,
                                                  /*from_monitor=*/true));
  tb.simulator().run_until(sim::SimTime::units(0.5));
  EXPECT_EQ(tb.arbiter(0).protocol_stats().requests_dropped_overforwarded, 0u);
}

TEST(StarvationFree, DroppedRequestDivertsToMonitorAndIsServed) {
  // Node 1's REQUEST is lost; with tau = 1 a single NEW-ARBITER miss makes
  // it resubmit to the monitor, which buffers it until the token visits.
  mutex::ParamSet p;
  p.set("starvation_free", 1.0)
      .set("tau", 1.0)
      .set("monitor", 4.0)
      .set("resubmit_after_misses", 0.0)   // isolate the monitor path
      .set("request_retry_timeout", 0.0);  // no timer fallback either
  MutexCluster tb("arbiter-tp-sf", 5, p);
  tb.network().faults().drop_next_of_type("REQUEST", net::NodeId{1});
  tb.submit_at(0.0, 1);  // this one is dropped
  tb.submit_at(0.5, 2);  // generates the dispatch + NEW-ARBITER traffic
  tb.submit_at(3.0, 3);  // generates the next dispatch, whose monitor visit
                         // (low-load period = every batch) releases node 1
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  const auto s = tb.protocol_stats();
  EXPECT_GE(s.monitor_resubmissions, 1u);
  EXPECT_GE(s.monitor_buffered, 1u);
  EXPECT_GE(s.monitor_visits, 1u);
}

TEST(StarvationFree, MonitorPatienceReleasesBufferWhenSystemGoesIdle) {
  // The monitor ends up holding a request while no further dispatches occur;
  // the patience safeguard hands it to the arbiter as an undroppable
  // REQUEST.
  mutex::ParamSet p;
  p.set("starvation_free", 1.0)
      .set("tau", 1.0)
      .set("monitor", 4.0)
      .set("resubmit_after_misses", 0.0)
      .set("request_retry_timeout", 0.0)
      .set("monitor_patience", 2.0);
  MutexCluster tb("arbiter-tp-sf", 5, p);
  // Drop node 1's request AND make the very next dispatch's token go the
  // normal route by keeping node 2's batch before the resubmission lands.
  tb.network().faults().drop_next_of_type("REQUEST", net::NodeId{1});
  tb.submit_at(0.0, 1);
  tb.submit_at(0.2, 2);  // the only other traffic; after its CS, idle
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 2u);
  const auto s = tb.protocol_stats();
  EXPECT_GE(s.monitor_patience_releases + s.monitor_visits, 1u);
}

TEST(StarvationFree, AdaptivePeriodVisitsOftenAtLowLoadRarelyAtHighLoad) {
  auto run = [](double lambda) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = "arbiter-tp-sf";
    cfg.n_nodes = 10;
    cfg.lambda = lambda;
    cfg.total_requests = 20'000;
    cfg.seed = 31;
    return harness::run_experiment(cfg);
  };
  const auto low = run(0.01);
  const auto high = run(5.0);
  ASSERT_GT(low.protocol.dispatches, 0u);
  ASSERT_GT(high.protocol.dispatches, 0u);
  const double low_ratio = static_cast<double>(low.protocol.monitor_visits) /
                           static_cast<double>(low.protocol.dispatches);
  const double high_ratio = static_cast<double>(high.protocol.monitor_visits) /
                            static_cast<double>(high.protocol.dispatches);
  // Low load: average Q size ~1 => the token visits the monitor nearly every
  // batch.  High load: average Q ~N => every ~N-th batch.
  EXPECT_GT(low_ratio, 0.6);
  EXPECT_LT(high_ratio, 0.35);
}

TEST(StarvationFree, OverheadMatchesSection41Claims) {
  // +~1 message per CS at very low load, negligible at high load.
  auto run = [](const std::string& algo, double lambda) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = algo;
    cfg.n_nodes = 10;
    cfg.lambda = lambda;
    cfg.total_requests = 20'000;
    cfg.seed = 8;
    return harness::run_experiment(cfg);
  };
  const auto basic_low = run("arbiter-tp", 0.01);
  const auto sf_low = run("arbiter-tp-sf", 0.01);
  const double low_overhead =
      sf_low.messages_per_cs - basic_low.messages_per_cs;
  EXPECT_GT(low_overhead, 0.4);
  EXPECT_LT(low_overhead, 2.0);

  const auto basic_high = run("arbiter-tp", 5.0);
  const auto sf_high = run("arbiter-tp-sf", 5.0);
  const double high_overhead =
      sf_high.messages_per_cs - basic_high.messages_per_cs;
  EXPECT_LT(high_overhead, 0.5);
  EXPECT_TRUE(sf_low.drained);
  EXPECT_TRUE(sf_high.drained);
  EXPECT_EQ(sf_low.safety_violations + sf_high.safety_violations, 0u);
}

TEST(StarvationFree, RotatingMonitorMovesTheRole) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp-sf";
  cfg.params.set("rotate_monitor", 1.0);
  cfg.n_nodes = 6;
  cfg.lambda = 0.2;
  cfg.total_requests = 2'000;
  cfg.seed = 14;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.protocol.monitor_visits, 1u);
}

TEST(StarvationFree, HarshDroppingStillServesEveryRequest) {
  // t_fwd = 0 maximizes drops; tau caps forwarding; the monitor is the
  // safety net.  Liveness must hold.
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp-sf";
  cfg.params.set("t_fwd", 0.0).set("tau", 2.0);
  cfg.n_nodes = 10;
  cfg.lambda = 0.4;
  cfg.total_requests = 20'000;
  cfg.seed = 4;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.protocol.requests_dropped_stale, 0u);
}

TEST(StarvationFree, MonitorAsInitialArbiterWorks) {
  // Degenerate wiring: monitor == initial arbiter == node 0.
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp-sf";
  cfg.params.set("monitor", 0.0);
  cfg.n_nodes = 5;
  cfg.lambda = 0.5;
  cfg.total_requests = 2'000;
  cfg.seed = 2;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
}

}  // namespace
}  // namespace dmx::core
