// Failure-recovery tests (§6): lost requests, lost tokens (dropped PRIVILEGE
// and crashed holders), the two-phase token invalidation protocol, spurious
// warnings (RESUME path), failed-arbiter takeover, and sustained random
// message loss.
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace dmx::core {
namespace {

using testbed::MutexCluster;

mutex::ParamSet recovery_params() {
  mutex::ParamSet p;
  p.set("recovery", 1.0)
      .set("token_timeout", 3.0)
      .set("enquiry_timeout", 1.0)
      .set("arbiter_timeout", 6.0)
      .set("probe_timeout", 1.0);
  return p;
}

TEST(Recovery, DroppedPrivilegeIsRegenerated) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  // The PRIVILEGE from the arbiter to the first requester vanishes.
  tb.network().faults().drop_next_of_type("PRIVILEGE");
  tb.submit_at(0.0, 1);
  tb.submit_at(0.1, 2);
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  const auto s = tb.protocol_stats();
  EXPECT_GE(s.tokens_regenerated, 1u);
  EXPECT_GE(s.enquiries_sent, 1u);
  EXPECT_GE(s.invalidates_sent, 1u);
}

TEST(Recovery, DroppedMidQueuePrivilegeRecovered) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(0.05, 2);
  tb.submit_at(0.1, 3);
  // Lose the hand-off between queue members (1 -> 2), after 1's CS.
  tb.network().faults().drop_next_of_type("PRIVILEGE", net::NodeId{1},
                                          net::NodeId{2});
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_GE(tb.protocol_stats().tokens_regenerated, 1u);
}

TEST(Recovery, CrashedTokenHolderExcludedOthersServed) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(0.05, 2);
  tb.submit_at(0.1, 3);
  // Node 1 receives the token at t=0.3 and dies inside its critical section
  // (CS spans [0.3, 0.4]).
  tb.crash_at(0.35, 1);
  tb.simulator().run_until(sim::SimTime::units(60.0));
  // Nodes 2 and 3 are served; node 1's request died with it.
  EXPECT_EQ(tb.driver(2).completed(), 1u);
  EXPECT_EQ(tb.driver(3).completed(), 1u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_GE(tb.protocol_stats().tokens_regenerated, 1u);
}

TEST(Recovery, SlowHolderTriggersResumeNotRegeneration) {
  // The token is alive but the CS is longer than the token timeout: the
  // waiting node sends WARNING, the arbiter enquires, the holder answers
  // "I have the token" and a RESUME keeps the run intact — no regeneration.
  mutex::ParamSet p = recovery_params();
  p.set("token_timeout", 1.0);
  MutexCluster tb("arbiter-tp", 5, p, /*t_msg=*/0.1, /*t_exec=*/2.5);
  tb.submit_at(0.0, 1);
  tb.submit_at(0.05, 2);
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  const auto s = tb.protocol_stats();
  EXPECT_GE(s.warnings_sent + s.enquiries_sent, 1u);
  EXPECT_GE(s.resumes_sent, 1u);
  EXPECT_EQ(s.tokens_regenerated, 0u);
}

TEST(Recovery, CrashedArbiterElectIsTakenOver) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.submit_at(0.0, 1);
  tb.submit_at(0.05, 2);
  // Node 2 is the tail of the batch {1, 2} and becomes the next arbiter.
  // It dies right after its own CS, before any further dispatch, holding
  // the token.  The previous arbiter (node 0) must take over.
  tb.crash_at(0.95, 2);
  tb.submit_at(2.0, 3);  // a request that only a recovered system can serve
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.driver(1).completed(), 1u);
  EXPECT_EQ(tb.driver(3).completed(), 1u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  const auto s = tb.protocol_stats();
  EXPECT_GE(s.probes_sent, 1u);
  EXPECT_GE(s.arbiter_takeovers, 1u);
  EXPECT_GE(s.tokens_regenerated, 1u);
}

TEST(Recovery, LostNewArbiterToElectIsCoveredByTokenProof) {
  // The NEW-ARBITER naming node 2 never reaches node 2; the token itself
  // proves arbitership when it arrives (§3.1's observation).
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.network().faults().drop_next_of_type("NEW-ARBITER", net::NodeId{},
                                          net::NodeId{2});
  tb.submit_at(0.0, 1);
  tb.submit_at(0.05, 2);
  tb.submit_at(3.0, 3);
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

TEST(Recovery, LostRequestRetransmitted) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.network().faults().drop_next_of_type("REQUEST", net::NodeId{3});
  tb.submit_at(0.0, 3);
  tb.submit_at(0.5, 1);  // traffic so NEW-ARBITER misses accumulate
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_GE(tb.protocol_stats().resubmissions, 1u);
}

TEST(Recovery, CrashedBystanderDoesNotBlockTheSystem) {
  // §6: failure of nodes not scheduled to receive the token does not impede
  // the algorithm — even without any recovery machinery.
  mutex::ParamSet p;  // recovery off
  MutexCluster tb("arbiter-tp", 6, p);
  tb.crash_at(0.0, 4);
  tb.crash_at(0.0, 5);
  tb.submit_at(0.1, 1);
  tb.submit_at(0.2, 2);
  tb.submit_at(5.0, 3);
  tb.simulator().run_until(sim::SimTime::units(60.0));
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

TEST(Recovery, RestartedNodeRejoins) {
  MutexCluster tb("arbiter-tp", 5, recovery_params());
  tb.submit_at(0.0, 1);
  tb.crash_at(1.5, 3);
  tb.restart_at(4.0, 3);
  tb.submit_at(6.0, 3);  // the restarted node requests again
  tb.submit_at(6.1, 2);
  tb.simulator().run_until(sim::SimTime::units(80.0));
  EXPECT_EQ(tb.driver(3).completed(), 1u);
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
}

class LossSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossSoak, SurvivesSustainedRandomLoss) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.params = recovery_params();
  cfg.params.set("resubmit_after_misses", 1.0).set("request_retry_timeout",
                                                   5.0);
  cfg.n_nodes = 8;
  cfg.lambda = 0.3;
  cfg.total_requests = 800;
  cfg.seed = GetParam();
  cfg.loss_by_type = {{"REQUEST", 0.05},
                      {"PRIVILEGE", 0.02},
                      {"NEW-ARBITER", 0.05}};
  cfg.max_sim_units = 50'000.0;
  const auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_TRUE(r.drained) << "completed " << r.completed << "/" << r.submitted;
  EXPECT_GT(r.protocol.tokens_regenerated + r.protocol.resumes_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSoak,
                         ::testing::Values<std::uint64_t>(101, 202, 303, 404,
                                                          505),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace dmx::core
