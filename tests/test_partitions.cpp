// Network-partition behaviour of the recovery machinery.
//
// The paper's §6 does not treat partitions.  These tests pin down what its
// mechanisms actually do when the network splits: the system heals and
// serves everybody (liveness restored), but token regeneration without a
// quorum admits a *split-brain* window while the partition lasts — an
// inherent limitation of §6's design that we document deterministically
// rather than hide (see DESIGN.md §5).
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace dmx::core {
namespace {

mutex::ParamSet partition_params() {
  mutex::ParamSet p;
  p.set("recovery", 1.0)
      .set("token_timeout", 2.0)
      .set("enquiry_timeout", 0.5)
      .set("arbiter_timeout", 4.0)
      .set("probe_timeout", 0.5)
      .set("resubmit_after_misses", 1.0)
      .set("request_retry_timeout", 3.0);
  return p;
}

void split_at(testbed::MutexCluster& tb, double t) {
  tb.simulator().schedule_at(sim::SimTime::units(t), [&tb] {
    tb.network().faults().set_partition(
        {{net::NodeId{0}, net::NodeId{1}, net::NodeId{2}},
         {net::NodeId{3}, net::NodeId{4}}});
  });
}

void heal_at(testbed::MutexCluster& tb, double t) {
  tb.simulator().schedule_at(
      sim::SimTime::units(t),
      [&tb] { tb.network().faults().heal_partition(); });
}

TEST(Partitions, HealRestoresLivenessForEveryone) {
  testbed::MutexCluster tb("arbiter-tp", 5, partition_params());
  tb.submit_at(0.0, 4);  // token ends up in the {3,4} side
  split_at(tb, 2.0);
  tb.submit_at(3.0, 0);  // majority demand during the partition
  tb.submit_at(3.5, 1);
  tb.submit_at(4.0, 3);  // minority keeps using the genuine token
  heal_at(tb, 30.0);
  tb.simulator().run_until(sim::SimTime::units(200.0));
  EXPECT_EQ(tb.total_completed(), tb.total_submitted());
  const auto s = tb.protocol_stats();
  // The majority took over arbitership and regenerated a token.
  EXPECT_GE(s.arbiter_takeovers, 1u);
  EXPECT_GE(s.tokens_regenerated, 1u);
}

TEST(Partitions, MinorityRequestersServedAfterHeal) {
  testbed::MutexCluster tb("arbiter-tp", 5, partition_params());
  tb.submit_at(0.0, 1);  // token + arbitership stay in the majority side
  split_at(tb, 2.0);
  tb.submit_at(3.0, 3);  // minority demand cannot reach the arbiter
  tb.submit_at(3.5, 4);
  heal_at(tb, 20.0);
  tb.simulator().run_until(sim::SimTime::units(200.0));
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);  // single token side never forked
}

// KNOWN LIMITATION (inherited from the paper's §6): regeneration is not
// quorum-guarded, so a majority that cannot reach the token-holding
// minority will regenerate while the original token is still in use —
// two tokens exist until the epochs reconcile after healing.  With a long
// critical section the two sides' CSs overlap.  This test *demonstrates*
// the hazard deterministically; a quorum check before regeneration (not in
// the paper) would remove it at the price of blocking minority-side
// recovery.
TEST(Partitions, SplitBrainHazardOfQuorumlessRegeneration) {
  testbed::MutexCluster tb("arbiter-tp", 5, partition_params(),
                           /*t_msg=*/0.1, /*t_exec=*/1.0);
  tb.submit_at(0.0, 4);   // token into the {3,4} side
  split_at(tb, 2.0);
  tb.submit_at(3.0, 0);   // majority demand -> takeover -> regeneration
  tb.submit_at(3.5, 1);
  tb.submit_at(4.0, 3);   // minority keeps the genuine token busy
  tb.submit_at(8.0, 3);
  tb.submit_at(9.2, 4);   // in CS exactly when the regenerated token grants
  heal_at(tb, 30.0);
  tb.simulator().run_until(sim::SimTime::units(200.0));
  EXPECT_EQ(tb.total_completed(), tb.total_submitted());  // liveness holds
  EXPECT_GE(tb.protocol_stats().tokens_regenerated, 1u);
  // The documented hazard: overlapping critical sections across the split.
  EXPECT_GE(tb.monitor().violations(), 1u)
      << "if this now passes with 0 violations, quorum-guarded regeneration "
         "was added - update DESIGN.md section 5 accordingly";
  // After healing, the epochs reconcile: the stale token is eventually
  // discarded and the run drains under a single token.
}

// Companion to the hazard above: the identical deterministic schedule with
// quorum-guarded regeneration (recovery_quorum=1) never mints the second
// token.  The majority side reaches a counting majority (3 of 5) during the
// cut, but the freshest dispatch views still name the isolated holder, so
// every invalidation round parks until the heal lets the holder answer.
// The price is availability — majority demand waits out the partition —
// which bench/table_partitions quantifies.
TEST(Partitions, QuorumGuardClosesTheSplitBrainWindow) {
  mutex::ParamSet params = partition_params();
  params.set("recovery_quorum", 1.0);
  testbed::MutexCluster tb("arbiter-tp", 5, params,
                           /*t_msg=*/0.1, /*t_exec=*/1.0);
  tb.submit_at(0.0, 4);   // token into the {3,4} side
  split_at(tb, 2.0);
  tb.submit_at(3.0, 0);   // majority demand -> takeover attempt -> parked
  tb.submit_at(3.5, 1);
  tb.submit_at(4.0, 3);   // minority keeps the genuine token busy
  tb.submit_at(8.0, 3);
  tb.submit_at(9.2, 4);   // overlapped with the second token in the hazard
  heal_at(tb, 30.0);
  tb.simulator().run_until(sim::SimTime::units(200.0));
  EXPECT_EQ(tb.total_completed(), tb.total_submitted());  // liveness holds
  EXPECT_EQ(tb.monitor().violations(), 0u);  // the hazard is gone
  const auto s = tb.protocol_stats();
  EXPECT_EQ(s.tokens_regenerated, 0u);  // the genuine token was never forked
  EXPECT_GE(s.quorum_blocked, 1u);      // the guard actually fired
  // After the heal the holder answers the candidate's ENQUIRY with a
  // NEW-ARBITER reassert, folding the majority back under its epoch.
  EXPECT_GE(s.quorum_reconciles, 1u);
}

}  // namespace
}  // namespace dmx::core
