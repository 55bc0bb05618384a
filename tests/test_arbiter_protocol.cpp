// Protocol-level tests of the arbiter token-passing algorithm: scripted
// scenarios with exact message-count and state assertions, including the
// paper's Section 2.2 walk-through.
#include <gtest/gtest.h>

#include "core/events.hpp"
#include "obs/lifecycle.hpp"
#include "testbed.hpp"

namespace dmx::core {
namespace {

using testbed::MutexCluster;

mutex::ParamSet unit_params() {
  // The paper's illustrative example: every duration is 1 time unit.
  mutex::ParamSet p;
  p.set("t_req", 1.0).set("t_fwd", 1.0);
  return p;
}

TEST(ArbiterProtocol, PaperSection22Example) {
  // Five nodes; node 0 is the initial arbiter (the paper's node 1).  Two
  // requests arrive during the collection window, one more during the
  // forwarding phase and must be forwarded to the new arbiter.
  MutexCluster tb("arbiter-tp", 5, unit_params(), /*t_msg=*/1.0,
                  /*t_exec=*/1.0);
  tb.submit_at(0.0, 1);   // REQUEST arrives at the arbiter at t=1.0
  tb.submit_at(0.2, 4);   // arrives t=1.2, same collection window
  tb.submit_at(1.9, 3);   // arrives t=2.9, during the forwarding phase
  tb.sim().run();

  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor.violations(), 0u);

  const auto stats = tb.protocol_stats();
  EXPECT_EQ(stats.requests_forwarded, 1u);
  EXPECT_EQ(stats.dispatches, 2u);  // batch {1,4}, then batch {3}

  const auto by_type = tb.network().stats().sent_by_type();
  EXPECT_EQ(by_type.get("REQUEST"), 4u);     // 3 originals + 1 forward
  EXPECT_EQ(by_type.get("PRIVILEGE"), 3u);   // 0->1, 1->4, 4->3
  EXPECT_EQ(by_type.get("NEW-ARBITER"), 8u); // two broadcasts x (N-1)

  // The first batch's tail (node 4) served as arbiter, then node 3.
  EXPECT_EQ(tb.arbiter(4).times_arbiter(), 1u);
  EXPECT_EQ(tb.arbiter(3).times_arbiter(), 1u);
  EXPECT_TRUE(tb.arbiter(3).is_arbiter());
  EXPECT_TRUE(tb.arbiter(3).has_token());
  // Everybody agrees on the final arbiter.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tb.arbiter(i).known_arbiter(), net::NodeId{3}) << "node " << i;
  }
}

TEST(ArbiterProtocol, ArbiterSelfRequestCostsZeroMessages) {
  // Eq. (1)'s 1/N case: the requester is the arbiter itself.
  MutexCluster tb("arbiter-tp", 5, unit_params(), 1.0, 1.0);
  tb.submit_at(0.5, 0);
  tb.sim().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
  EXPECT_TRUE(tb.arbiter(0).is_arbiter());
  EXPECT_TRUE(tb.arbiter(0).has_token());
}

TEST(ArbiterProtocol, SingleRemoteRequestCostsNPlusOneMessages) {
  // Eq. (1)'s other case: 1 REQUEST + (N-1) NEW-ARBITER + 1 PRIVILEGE.
  MutexCluster tb("arbiter-tp", 5, unit_params(), 1.0, 1.0);
  tb.submit_at(0.0, 2);
  tb.sim().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 6u);  // N + 1 for N = 5
  // The sole requester is the new arbiter and ends up holding the token.
  EXPECT_TRUE(tb.arbiter(2).is_arbiter());
  EXPECT_TRUE(tb.arbiter(2).has_token());
  EXPECT_FALSE(tb.arbiter(0).is_arbiter());
}

TEST(ArbiterProtocol, CollectionWindowBatchesFcfs) {
  MutexCluster tb("arbiter-tp", 5, unit_params(), 1.0, 1.0);
  // All three arrive inside one collection window (opened at t=1.0 by the
  // first arrival): one dispatch, FCFS order 3, 1, 2.
  tb.submit_at(0.0, 3);
  tb.submit_at(0.3, 1);
  tb.submit_at(0.6, 2);
  std::vector<int> completion_order;
  for (std::size_t i = 0; i < 5; ++i) {
    tb.drivers[i]->set_completion_callback(
        [&completion_order, i](const mutex::CsRequest&) {
          completion_order.push_back(static_cast<int>(i));
        });
  }
  tb.sim().run();
  EXPECT_EQ(tb.protocol_stats().dispatches, 1u);
  EXPECT_EQ(completion_order, (std::vector<int>{3, 1, 2}));
}

TEST(ArbiterProtocol, PriorityOrderingWithinBatch) {
  mutex::ParamSet p = unit_params();
  p.set("order", std::string("priority"));
  MutexCluster tb("arbiter-tp", 5, p, 1.0, 1.0);
  tb.submit_at(0.0, 1, /*priority=*/1);
  tb.submit_at(0.3, 2, /*priority=*/5);
  tb.submit_at(0.6, 3, /*priority=*/3);
  std::vector<int> completion_order;
  for (std::size_t i = 0; i < 5; ++i) {
    tb.drivers[i]->set_completion_callback(
        [&completion_order, i](const mutex::CsRequest&) {
          completion_order.push_back(static_cast<int>(i));
        });
  }
  tb.sim().run();
  EXPECT_EQ(completion_order, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(tb.monitor.violations(), 0u);
}

TEST(ArbiterProtocol, DroppedRequestIsResubmittedViaNewArbiterMiss) {
  // With the forwarding phase disabled, late requests are dropped; the
  // paper's §6 rule (missing from tau consecutive NEW-ARBITER Q-lists =>
  // retransmit) must still serve every request.
  mutex::ParamSet p;
  p.set("t_req", 0.1).set("t_fwd", 0.0).set("resubmit_after_misses", 1.0);
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.params = p;
  cfg.n_nodes = 10;
  cfg.lambda = 0.4;
  cfg.total_requests = 20'000;
  cfg.seed = 21;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.protocol.requests_dropped_stale, 0u);
  EXPECT_GT(r.protocol.resubmissions, 0u);
}

TEST(ArbiterProtocol, ForwardingPhaseSavesLateRequests) {
  // Same load as above but with the paper's forwarding phase enabled: late
  // requests are forwarded instead of dropped, so far fewer drops occur.
  auto run_with_fwd = [](double t_fwd) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = "arbiter-tp";
    cfg.params.set("t_req", 0.1).set("t_fwd", t_fwd);
    cfg.n_nodes = 10;
    cfg.lambda = 0.4;
    cfg.total_requests = 20'000;
    cfg.seed = 21;
    return harness::run_experiment(cfg);
  };
  const auto without = run_with_fwd(0.0);
  const auto with = run_with_fwd(0.1);
  EXPECT_GT(with.protocol.requests_forwarded, 0u);
  EXPECT_LT(with.protocol.requests_dropped_stale,
            without.protocol.requests_dropped_stale);
  // Eq. (7)'s insight: the forwarding window must cover NEW-ARBITER
  // propagation plus request transit (~2*T_msg = 0.2); with t_fwd = 0.25
  // drops all but vanish.
  const auto generous = run_with_fwd(0.25);
  EXPECT_LT(generous.protocol.requests_dropped_stale,
            without.protocol.requests_dropped_stale / 20);
}

TEST(ArbiterProtocol, LongerCollectionWindowFewerMessagesHigherDelay) {
  // The paper's central tuning claim (§3.3): T_req = 0.2 vs 0.1 lowers the
  // message count but raises the delay.
  auto run_with_treq = [](double t_req) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = "arbiter-tp";
    cfg.params.set("t_req", t_req).set("t_fwd", 0.1);
    cfg.n_nodes = 10;
    cfg.lambda = 0.15;
    cfg.total_requests = 30'000;
    cfg.seed = 3;
    return harness::run_experiment(cfg);
  };
  const auto short_window = run_with_treq(0.1);
  const auto long_window = run_with_treq(0.2);
  EXPECT_LT(long_window.messages_per_cs, short_window.messages_per_cs);
  EXPECT_GT(long_window.service_time.mean(), short_window.service_time.mean());
}

TEST(ArbiterProtocol, SuppressSelfBroadcastAblationCutsBroadcasts) {
  auto run = [](bool suppress) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = "arbiter-tp";
    cfg.params.set("suppress_self_broadcast", suppress ? 1.0 : 0.0);
    cfg.n_nodes = 10;
    cfg.lambda = 5.0;
    cfg.total_requests = 10'000;
    cfg.seed = 9;
    return harness::run_experiment(cfg);
  };
  const auto paper = run(false);
  const auto ablated = run(true);
  EXPECT_NEAR(paper.messages_per_cs, 2.8, 0.2);
  EXPECT_LT(ablated.messages_per_cs, 2.1);
  EXPECT_TRUE(ablated.drained);
  EXPECT_EQ(ablated.safety_violations, 0u);
}

TEST(ArbiterProtocol, DeterministicForSeed) {
  auto run = [] {
    harness::ExperimentConfig cfg;
    cfg.algorithm = "arbiter-tp";
    cfg.n_nodes = 10;
    cfg.lambda = 0.5;
    cfg.total_requests = 5'000;
    cfg.seed = 77;
    return harness::run_experiment(cfg);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_DOUBLE_EQ(a.service_time.mean(), b.service_time.mean());
  EXPECT_DOUBLE_EQ(a.sim_duration_units, b.sim_duration_units);
}

TEST(ArbiterProtocol, FcfsOrderWithinBatchPreserved) {
  // §5.1 fairness: requests are served in the order the arbiter collected
  // them.  Verify grants never reorder within a dispatch across a longer
  // random run by checking per-node completions are monotone in submit time
  // (drivers serialize per node, so cross-node FCFS within batches is the
  // interesting property — spot-check with the trace).
  MutexCluster tb("arbiter-tp", 4, unit_params(), 1.0, 1.0);
  tb.submit_at(0.0, 1);
  tb.submit_at(0.1, 2);
  tb.submit_at(0.2, 3);
  std::vector<int> order;
  for (std::size_t i = 0; i < 4; ++i) {
    tb.drivers[i]->set_completion_callback(
        [&order, i](const mutex::CsRequest&) {
          order.push_back(static_cast<int>(i));
        });
  }
  tb.sim().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ArbiterProtocol, TraceRecordsProtocolEvents) {
  MutexCluster tb("arbiter-tp", 5, unit_params(), 1.0, 1.0);
  tb.submit_at(0.0, 2);
  tb.sim().run();
  // The kinds the walk-through must hit, including both kinds registered
  // under the "arbiter" category: the initial arbiter and the hand-over.
  EXPECT_GE(tb.sink->count_kind(core::kEvArbiterInit), 1u);
  EXPECT_GE(tb.sink->count_kind(core::kEvArbiterElected), 1u);
  EXPECT_GE(tb.sink->count_kind(core::kEvDispatch), 1u);
  EXPECT_GE(tb.sink->count_kind(core::kEvCsEnter), 1u);
  EXPECT_GE(tb.sink->count_kind(obs::kEvCsGranted), 1u);
}

// Trace consumers select on these names and categories; renaming one is a
// breaking change to the JSONL and Chrome trace formats.
TEST(ArbiterProtocol, EventKindTableIsPinned) {
  struct Row {
    obs::EventKind kind;
    const char* name;
    const char* category;
  };
  const Row rows[] = {
      {kEvArbiterInit, "arbiter.init", "arbiter"},
      {kEvArbiterElected, "arbiter.elected", "arbiter"},
      {kEvDispatch, "arbiter.dispatch", "dispatch"},
      {kEvTokenArrived, "token.arrived", "token"},
      {kEvTokenPass, "token.pass", "token"},
      {kEvTokenStale, "token.stale", "token"},
      {kEvTokenRegenerated, "token.regenerated", "token"},
      {kEvTokenInvalidated, "token.invalidated", "token"},
      {kEvCsEnter, "cs.enter", "cs"},
      {kEvMonitorBuffered, "monitor.buffered", "monitor"},
      {kEvMonitorTokenVisit, "monitor.visit", "monitor"},
      {kEvResubmitArbiter, "resubmit.arbiter", "resubmit"},
      {kEvResubmitBroadcast, "resubmit.broadcast", "resubmit"},
      {kEvResubmitMonitor, "resubmit.monitor", "resubmit"},
      {kEvRecoveryAbdicate, "recovery.abdicate", "recovery"},
      {kEvRecoveryInvalidation, "recovery.invalidation", "recovery"},
      {kEvRecoveryProbe, "recovery.probe", "recovery"},
      {kEvRecoveryReassert, "recovery.reassert", "recovery"},
      {kEvRecoveryResumed, "recovery.resumed", "recovery"},
      {kEvRecoveryTakeover, "recovery.takeover", "recovery"},
      {kEvQuorumBlocked, "quorum.blocked", "quorum"},
      {kEvQuorumReconcile, "quorum.reconcile", "quorum"},
  };
  const auto& reg = obs::EventKindRegistry::instance();
  for (const Row& r : rows) {
    ASSERT_TRUE(r.kind.valid()) << r.name;
    EXPECT_EQ(reg.name(r.kind), r.name);
    EXPECT_EQ(reg.category(r.kind), r.category) << r.name;
    EXPECT_EQ(reg.find(r.name), r.kind) << r.name;
  }
}

TEST(ArbiterProtocol, RejectsDoubleRequest) {
  MutexCluster tb("arbiter-tp", 3, unit_params(), 1.0, 1.0);
  mutex::CsRequest r;
  r.request_id = 1;
  r.node = net::NodeId{1};
  tb.arbiter(1).request(r);
  EXPECT_THROW(tb.arbiter(1).request(r), std::logic_error);
  EXPECT_THROW(tb.arbiter(2).release(), std::logic_error);
}

TEST(ArbiterProtocol, ConstructorValidation) {
  ArbiterParams p;
  EXPECT_THROW(ArbiterMutex(p, 0), std::invalid_argument);
  p.initial_arbiter = net::NodeId{9};
  EXPECT_THROW(ArbiterMutex(p, 3), std::invalid_argument);
  ArbiterParams sf;
  sf.starvation_free = true;
  sf.monitor = net::NodeId{7};
  EXPECT_THROW(ArbiterMutex(sf, 3), std::invalid_argument);
}

}  // namespace
}  // namespace dmx::core
