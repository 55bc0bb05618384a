// Algorithm-specific tests for the seven baselines (beyond the generic
// safety/liveness sweep in test_properties.cpp).
#include <gtest/gtest.h>

#include "baselines/maekawa.hpp"
#include "baselines/path_reversal.hpp"
#include "baselines/raymond.hpp"
#include "baselines/singhal_dynamic.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "baselines/token_ring.hpp"
#include "testbed.hpp"

namespace dmx::baselines {
namespace {

using testbed::MutexCluster;

mutex::ParamSet no_params() { return mutex::ParamSet{}; }

// --- centralized -------------------------------------------------------------

TEST(Centralized, ExactlyThreeMessagesPerRemoteCs) {
  MutexCluster tb("centralized", 4, no_params());
  tb.submit_at(0.0, 2);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 3u);  // C-REQUEST, C-GRANT, C-RELEASE
}

TEST(Centralized, CoordinatorSelfRequestIsFree) {
  MutexCluster tb("centralized", 4, no_params());
  tb.submit_at(0.0, 0);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

TEST(Centralized, FcfsAcrossNodes) {
  MutexCluster tb("centralized", 4, no_params());
  std::vector<int> order;
  for (std::size_t i = 0; i < 4; ++i) {
    tb.driver(i).set_completion_callback(
        [&order, i](const mutex::CsRequest&) {
          order.push_back(static_cast<int>(i));
        });
  }
  tb.submit_at(0.00, 3);
  tb.submit_at(0.01, 1);
  tb.submit_at(0.02, 2);
  tb.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

// --- Suzuki–Kasami -----------------------------------------------------------

TEST(SuzukiKasami, IdleHolderReentersForFree) {
  MutexCluster tb("suzuki-kasami", 5, no_params());
  tb.submit_at(0.0, 0);  // node 0 holds the initial token
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

TEST(SuzukiKasami, RemoteRequestCostsNMessages) {
  MutexCluster tb("suzuki-kasami", 5, no_params());
  tb.submit_at(0.0, 3);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  // N-1 broadcast REQUESTs + 1 token.
  EXPECT_EQ(tb.network().stats().sent, 5u);
  auto* sk = dynamic_cast<SuzukiKasamiMutex*>(&tb.algorithm(3));
  ASSERT_NE(sk, nullptr);
  EXPECT_TRUE(sk->has_token());  // token stays with the last user
}

TEST(SuzukiKasami, OutdatedRequestsIgnored) {
  // A node that already executed must not be granted again off a stale
  // request: drive two rounds and count exactly 2 completions.
  MutexCluster tb("suzuki-kasami", 3, no_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(5.0, 1);
  tb.simulator().run();
  EXPECT_EQ(tb.driver(1).completed(), 2u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

// --- Raymond ----------------------------------------------------------------

TEST(Raymond, TokenMovesAlongTreeEdgesOnly) {
  MutexCluster tb("raymond", 7, no_params());
  // Node 6 is a leaf (parent 2, grandparent 0).  Its request must pull the
  // token down the path 0 -> 2 -> 6: 2 REQUEST hops + 2 PRIVILEGE hops.
  tb.submit_at(0.0, 6);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  const auto by_type = tb.network().stats().sent_by_type();
  EXPECT_EQ(by_type.get("RY-REQUEST"), 2u);
  EXPECT_EQ(by_type.get("RY-PRIVILEGE"), 2u);
  auto* leaf = dynamic_cast<RaymondMutex*>(&tb.algorithm(6));
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->holds_token().value_or(false));
}

TEST(Raymond, RootSelfRequestIsFree) {
  MutexCluster tb("raymond", 7, no_params());
  tb.submit_at(0.0, 0);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

TEST(Raymond, HighLoadApproachesFourMessages) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "raymond";
  cfg.n_nodes = 10;
  cfg.lambda = 5.0;
  cfg.total_requests = 10'000;
  cfg.seed = 12;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_NEAR(r.messages_per_cs, 4.0, 0.8);  // the paper's "approximately 4"
}

// --- Naimi–Trehel path reversal ---------------------------------------------

TEST(PathReversal, RootSelfRequestIsFree) {
  MutexCluster tb("path-reversal", 5, no_params());
  tb.submit_at(0.0, 0);  // node 0 starts as root holding the token
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

TEST(PathReversal, FirstRemoteRequestIsTwoMessages) {
  MutexCluster tb("path-reversal", 5, no_params());
  tb.submit_at(0.0, 3);  // everyone initially points straight at node 0
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  const auto by_type = tb.network().stats().sent_by_type();
  EXPECT_EQ(by_type.get("PR-REQUEST"), 1u);
  EXPECT_EQ(by_type.get("PR-TOKEN"), 1u);
  auto* requester = dynamic_cast<PathReversalMutex*>(&tb.algorithm(3));
  ASSERT_NE(requester, nullptr);
  EXPECT_TRUE(requester->is_root());
  EXPECT_TRUE(requester->holds_token().value_or(false));
}

TEST(PathReversal, PathReversalCollapsesTheChain) {
  // Serial requests 1, 2, 3, then 0 again.  Every REQUEST that crosses
  // node 0 re-points it at the requester, so the chain through 0 never
  // grows beyond one interior hop, and node 0's own climb at the end goes
  // straight to the current root:
  //   by 1: 1 REQ + 1 TOK   (0 idle root hands over directly)
  //   by 2: 2 REQ + 1 TOK   (0 forwards to 1, the reversed owner)
  //   by 3: 2 REQ + 1 TOK   (0 forwards to 2)
  //   by 0: 1 REQ + 1 TOK   (0 already re-pointed at 3 by the reversal)
  MutexCluster tb("path-reversal", 4, no_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(1.0, 2);
  tb.submit_at(2.0, 3);
  tb.submit_at(3.0, 0);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 4u);
  const auto by_type = tb.network().stats().sent_by_type();
  EXPECT_EQ(by_type.get("PR-REQUEST"), 6u);
  EXPECT_EQ(by_type.get("PR-TOKEN"), 4u);
  auto* last = dynamic_cast<PathReversalMutex*>(&tb.algorithm(0));
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->is_root());
  EXPECT_TRUE(last->holds_token().value_or(false));
}

TEST(PathReversal, ConcurrentRequestersChainViaNext) {
  // Simultaneous requests: the busy root queues one requester in its next
  // slot and the token hops along the distributed FIFO — still exactly one
  // TOKEN message per remote grant.
  MutexCluster tb("path-reversal", 4, no_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(0.0, 2);
  tb.submit_at(0.0, 3);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.network().stats().sent_by_type().get("PR-TOKEN"), 3u);
}

TEST(PathReversal, LightLoadMatchesLavaultAverage) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "path-reversal";
  cfg.n_nodes = 10;
  cfg.lambda = 0.01;
  cfg.total_requests = 10'000;
  cfg.seed = 12;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  // Lavault: H_10 - 1/10 = 2.829 messages/CS under uniform random request.
  EXPECT_NEAR(r.messages_per_cs, 2.829, 0.25);
}

// --- Maekawa ----------------------------------------------------------------

TEST(Maekawa, GridQuorumsPairwiseIntersect) {
  for (std::size_t n : {2u, 3u, 4u, 7u, 9u, 10u, 13u, 16u, 20u, 25u}) {
    const auto quorums = build_grid_quorums(n);
    ASSERT_EQ(quorums.size(), n);
    for (std::size_t a = 0; a < n; ++a) {
      // Every node is in its own quorum.
      EXPECT_NE(std::find(quorums[a].begin(), quorums[a].end(),
                          net::NodeId{static_cast<std::int32_t>(a)}),
                quorums[a].end());
      for (std::size_t b = a + 1; b < n; ++b) {
        bool intersect = false;
        for (net::NodeId x : quorums[a]) {
          if (std::find(quorums[b].begin(), quorums[b].end(), x) !=
              quorums[b].end()) {
            intersect = true;
            break;
          }
        }
        EXPECT_TRUE(intersect) << "N=" << n << " quorums " << a << "," << b;
      }
    }
  }
}

TEST(Maekawa, QuorumSizeIsOrderSqrtN) {
  const auto quorums = build_grid_quorums(16);
  for (const auto& q : quorums) {
    EXPECT_EQ(q.size(), 7u);  // row(4) + col(4) - self counted once
  }
}

TEST(Maekawa, UncontendedCostIsThreeRoundsOverQuorum) {
  MutexCluster tb("maekawa", 9, no_params());
  tb.submit_at(0.0, 4);  // quorum of 4 in a 3x3 grid: {3,4,5} ∪ {1,4,7}
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  // 4 remote members: REQUEST+LOCKED+RELEASE each (self-votes are free).
  EXPECT_EQ(tb.network().stats().sent, 12u);
}

TEST(Maekawa, HighContentionStormsResolve) {
  // All nodes hammer simultaneously repeatedly; the FAILED/INQUIRE/YIELD
  // machinery must keep resolving priority inversions.
  MutexCluster tb("maekawa", 9, no_params());
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < 9; ++i) {
      tb.submit_at(0.01 * static_cast<double>(i % 3), i);
    }
  }
  tb.simulator().run_until(sim::SimTime::units(2'000.0));
  EXPECT_EQ(tb.total_completed(), 180u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

// --- Singhal dynamic ----------------------------------------------------------

TEST(Singhal, StaircaseInitialization) {
  MutexCluster tb("singhal", 6, no_params());
  for (std::size_t i = 0; i < 6; ++i) {
    auto* s = dynamic_cast<SinghalDynamicMutex*>(&tb.algorithm(i));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->request_set_size(), i) << "node " << i;
  }
}

TEST(Singhal, LowestNodeEntersFreeWhenColdAndIdle) {
  MutexCluster tb("singhal", 6, no_params());
  tb.submit_at(0.0, 0);  // empty request set: enters immediately
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

TEST(Singhal, RequestSetsShrinkAtLowLoad) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "singhal";
  cfg.n_nodes = 10;
  cfg.lambda = 0.005;
  cfg.total_requests = 5'000;
  cfg.seed = 3;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  // Well under Ricart–Agrawala's 18 at N=10; the dynamic structure pays off.
  EXPECT_LT(r.messages_per_cs, 12.0);
}

TEST(Singhal, ConcurrentColdStartIsSafe) {
  MutexCluster tb("singhal", 6, no_params());
  for (std::size_t i = 0; i < 6; ++i) tb.submit_at(0.0, i);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 6u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

// --- Lamport & Ricart–Agrawala ordering ---------------------------------------

TEST(Lamport, TimestampOrderRespected) {
  MutexCluster tb("lamport", 4, no_params());
  std::vector<int> order;
  for (std::size_t i = 0; i < 4; ++i) {
    tb.driver(i).set_completion_callback(
        [&order, i](const mutex::CsRequest&) {
          order.push_back(static_cast<int>(i));
        });
  }
  tb.submit_at(0.0, 2);
  tb.submit_at(1.0, 1);  // strictly later timestamp
  tb.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(RicartAgrawala, SimultaneousRequestsTieBreakByNodeId) {
  MutexCluster tb("ricart-agrawala", 4, no_params());
  std::vector<int> order;
  for (std::size_t i = 0; i < 4; ++i) {
    tb.driver(i).set_completion_callback(
        [&order, i](const mutex::CsRequest&) {
          order.push_back(static_cast<int>(i));
        });
  }
  tb.submit_at(0.0, 3);
  tb.submit_at(0.0, 1);  // identical clocks: lower id wins
  tb.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(RicartAgrawala, SingleNodeClusterDegenerate) {
  MutexCluster tb("ricart-agrawala", 1, no_params());
  tb.submit_at(0.0, 0);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent, 0u);
}

}  // namespace
}  // namespace dmx::baselines

// --- token ring (paper reference [15]) -----------------------------------------

namespace dmx::baselines {
namespace {

TEST(TokenRing, SaturationCostsOneHopPerCs) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "token-ring";
  cfg.n_nodes = 10;
  cfg.lambda = 5.0;
  cfg.total_requests = 10'000;
  cfg.seed = 2;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_LT(r.messages_per_cs, 1.5);  // ~1 token hop per CS
}

TEST(TokenRing, ParksAfterQuietRevolutionAndWakes) {
  testbed::MutexCluster tb("token-ring", 5, mutex::ParamSet{});
  tb.submit_at(0.0, 2);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  // The token must end up parked somewhere (the run drained).
  int parked = 0;
  for (std::size_t i = 0; i < tb.size(); ++i) {
    if (dynamic_cast<TokenRingMutex&>(tb.algorithm(i)).parked()) ++parked;
  }
  EXPECT_EQ(parked, 1);
  // A later request on the far side of the ring wakes it.
  tb.submit_at(100.0, 4);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

TEST(TokenRing, HolderOfParkedTokenEntersFree) {
  testbed::MutexCluster tb("token-ring", 5, mutex::ParamSet{});
  tb.submit_at(0.0, 0);  // token starts parked at node 0
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.network().stats().sent_by_type().get("RING-WAKEUP"), 0u);
}

}  // namespace
}  // namespace dmx::baselines

// --- tree quorums (paper reference [1], Agrawal–El Abbadi style) ---------------

namespace dmx::baselines {
namespace {

TEST(TreeQuorum, AllQuorumsShareTheRootAndIntersect) {
  for (std::size_t n : {3u, 7u, 10u, 15u, 31u}) {
    const auto quorums = build_tree_quorums(n);
    ASSERT_EQ(quorums.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Root membership and self membership.
      EXPECT_NE(std::find(quorums[i].begin(), quorums[i].end(), net::NodeId{0}),
                quorums[i].end());
      EXPECT_NE(std::find(quorums[i].begin(), quorums[i].end(),
                          net::NodeId{static_cast<std::int32_t>(i)}),
                quorums[i].end());
    }
  }
}

TEST(TreeQuorum, QuorumSizeIsLogarithmic) {
  const auto quorums = build_tree_quorums(31);  // complete tree, depth 5
  for (const auto& q : quorums) {
    EXPECT_LE(q.size(), 5u);
    EXPECT_GE(q.size(), 1u);
  }
}

TEST(TreeQuorum, CheaperThanGridAtScale) {
  harness::ExperimentConfig grid, tree;
  grid.algorithm = "maekawa";
  tree.algorithm = "tree-quorum";
  for (auto* cfg : {&grid, &tree}) {
    cfg->n_nodes = 15;
    cfg->lambda = 0.05;
    cfg->total_requests = 3'000;
    cfg->seed = 6;
  }
  const auto rg = harness::run_experiment(grid);
  const auto rt = harness::run_experiment(tree);
  EXPECT_TRUE(rg.drained);
  EXPECT_TRUE(rt.drained);
  EXPECT_EQ(rg.safety_violations + rt.safety_violations, 0u);
  // O(log N) quorums beat O(sqrt N) ones on message count.
  EXPECT_LT(rt.messages_per_cs, rg.messages_per_cs);
}

TEST(TreeQuorum, SafeUnderContention) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "tree-quorum";
  cfg.n_nodes = 7;
  cfg.lambda = 2.0;
  cfg.total_requests = 4'000;
  cfg.seed = 44;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
}

}  // namespace
}  // namespace dmx::baselines
