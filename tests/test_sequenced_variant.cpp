// Tests for the sequence-number variant (§2.4): REQUEST(j, n) +
// PRIVILEGE(Q, L), last-granted suppression and fewest-entries-first
// ordering (the Suzuki–Kasami-style fairness the paper sketches).
#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "testbed.hpp"

namespace dmx::core {
namespace {

using testbed::MutexCluster;

mutex::ParamSet seq_params() {
  mutex::ParamSet p;
  // A wide collection window so scripted requests share one batch.
  p.set("sequenced", 1.0).set("order", std::string("sequence"))
      .set("t_req", 1.0);
  return p;
}

TEST(Sequenced, StaleRequestSuppressedByLArray) {
  MutexCluster tb("arbiter-tp", 4, seq_params());
  // Node 1 executes one CS normally.
  tb.submit_at(0.0, 1);
  tb.simulator().run();
  ASSERT_EQ(tb.total_completed(), 1u);

  // Node 1 is now the arbiter holding the token with L[1] = 1.  A stale
  // duplicate of its first request (sequence 1) arrives: must be dropped.
  QEntry stale;
  stale.node = net::NodeId{1};
  stale.request_id = 424242;
  stale.sequence = 1;
  tb.network().send(net::NodeId{2}, net::NodeId{1},
                    net::make_payload<RequestMsg>(stale));
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);  // no double grant
  EXPECT_GE(tb.arbiter(1).protocol_stats().duplicates_dropped, 1u);
}

TEST(Sequenced, BatchOrderedByFewestPriorEntries) {
  // Node 3 has completed two CSs (sequence counter at 3), node 2 none.
  // When both land in one batch, node 2 (lower sequence) goes first.
  MutexCluster tb("arbiter-tp", 4, seq_params());
  tb.submit_at(0.0, 3);
  tb.submit_at(3.0, 3);
  tb.simulator().run();
  ASSERT_EQ(tb.total_completed(), 2u);

  std::vector<int> order;
  for (std::size_t i = 0; i < 4; ++i) {
    tb.driver(i).set_completion_callback(
        [&order, i](const mutex::CsRequest&) {
          order.push_back(static_cast<int>(i));
        });
  }
  // Same collection window: node 3 arrives first (FCFS would keep it
  // first), but its sequence (3) exceeds node 2's (1).
  tb.submit_at(10.0, 3);
  tb.submit_at(10.2, 2);
  tb.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Sequenced, LArrayTravelsWithToken) {
  MutexCluster tb("arbiter-tp", 4, seq_params());
  // Serve several rounds from different nodes; if L failed to travel,
  // resubmissions would double-grant somewhere (the duplicate counter and
  // grant totals check this indirectly).
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 1; i < 4; ++i) {
      tb.submit_at(5.0 * round + 0.3 * static_cast<double>(i), i);
    }
  }
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 15u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

TEST(Sequenced, SafeAndLiveUnderLoadWithRetransmissions) {
  // Aggressive retransmission (every miss) + sequenced dedup: exactly one
  // grant per demand even though duplicates fly everywhere.
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.params = seq_params();
  cfg.params.set("resubmit_after_misses", 1.0).set("t_fwd", 0.0);
  cfg.n_nodes = 10;
  cfg.lambda = 0.4;
  cfg.total_requests = 10'000;
  cfg.seed = 77;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.completed, cfg.total_requests);  // not one more, not one less
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.protocol.duplicates_dropped, 0u);
}

}  // namespace
}  // namespace dmx::core
