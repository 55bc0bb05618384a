// Golden-trace test: the paper's §2.2 example must produce an exact,
// deterministic message sequence.  This pins the protocol's wire behaviour
// — any reordering, extra message or timing drift fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "testbed.hpp"

namespace dmx::core {
namespace {

std::string run_paper_example_trace() {
  mutex::ParamSet p;
  p.set("t_req", 1.0).set("t_fwd", 1.0);
  testbed::MutexCluster tb("arbiter-tp", 5, p, /*t_msg=*/1.0, /*t_exec=*/1.0);
  std::ostringstream os;
  tb.network().set_tap([&](const net::Envelope& env, bool dropped) {
    os << env.sent_at.to_units() << " " << env.src << "->" << env.dst << " "
       << env.payload->describe() << (dropped ? " DROPPED" : "") << "\n";
  });
  tb.submit_at(0.0, 1);
  tb.submit_at(0.2, 4);
  tb.submit_at(1.9, 3);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  return os.str();
}

TEST(GoldenTrace, PaperExampleMessageSequence) {
  const std::string expected =
      "0 1->0 REQUEST(node=1, seq=1, fwd=0)\n"
      "0.2 4->0 REQUEST(node=4, seq=1, fwd=0)\n"
      "1.9 3->0 REQUEST(node=3, seq=1, fwd=0)\n"
      // Collection window [1.0, 2.0] closes: dispatch of Q = {1,4}.  The
      // NEW-ARBITER broadcast and the token hand-off happen at the same
      // instant; the implementation broadcasts first.
      "2 0->1 NEW-ARBITER(4, Q={1,4}, c=1)\n"
      "2 0->2 NEW-ARBITER(4, Q={1,4}, c=1)\n"
      "2 0->3 NEW-ARBITER(4, Q={1,4}, c=1)\n"
      "2 0->4 NEW-ARBITER(4, Q={1,4}, c=1)\n"
      "2 0->1 PRIVILEGE(Q={1,4}, epoch=1)\n"
      // Node 3's request reached node 0 during the forwarding phase.
      "2.9 0->4 REQUEST(node=3, seq=1, fwd=1)\n"
      // Node 1's CS [3.0, 4.0], then the token moves to node 4.
      "4 1->4 PRIVILEGE(Q={4}, epoch=1)\n"
      // Node 4 (the arbiter) serves itself [5.0, 6.0], then collects and
      // dispatches Q = {3}.
      "7 4->0 NEW-ARBITER(3, Q={3}, c=2)\n"
      "7 4->1 NEW-ARBITER(3, Q={3}, c=2)\n"
      "7 4->2 NEW-ARBITER(3, Q={3}, c=2)\n"
      "7 4->3 NEW-ARBITER(3, Q={3}, c=2)\n"
      "7 4->3 PRIVILEGE(Q={3}, epoch=1)\n";
  EXPECT_EQ(run_paper_example_trace(), expected);
}

TEST(GoldenTrace, IsBitDeterministic) {
  EXPECT_EQ(run_paper_example_trace(), run_paper_example_trace());
}

std::string run_path_reversal_trace() {
  testbed::MutexCluster tb("path-reversal", 4, mutex::ParamSet{},
                           /*t_msg=*/1.0, /*t_exec=*/1.0);
  std::ostringstream os;
  tb.network().set_tap([&](const net::Envelope& env, bool dropped) {
    os << env.sent_at.to_units() << " " << env.src << "->" << env.dst << " "
       << env.payload->describe() << (dropped ? " DROPPED" : "") << "\n";
  });
  tb.submit_at(0.0, 1);
  tb.submit_at(0.5, 2);
  tb.submit_at(6.0, 3);
  tb.simulator().run();
  EXPECT_EQ(tb.total_completed(), 3u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  return os.str();
}

// The same wire-pinning for the Naimi–Trehel baseline: one direct
// hand-off, one REQUEST relayed through a reversed owner pointer into the
// busy root's next slot, and one late request that profits from the
// reversals (node 0 forwards straight to the current root).
TEST(GoldenTrace, PathReversalMessageSequence) {
  const std::string expected =
      // Node 1 and node 2 both climb toward node 0.
      "0 1->0 PR-REQUEST(from=1, req=1)\n"
      "0.5 2->0 PR-REQUEST(from=2, req=2)\n"
      // Idle root 0 hands the token to 1 and re-points at it ...
      "1 0->1 PR-TOKEN\n"
      // ... so node 2's request is relayed to node 1 (and 0 re-points
      // at 2), where it lands in the busy root's next slot.
      "1.5 0->1 PR-REQUEST(from=2, req=2)\n"
      // Node 1's CS [2,3]; release sends the token along next.
      "3 1->2 PR-TOKEN\n"
      // Node 3 still points at 0, but 0's pointer was reversed to 2 by
      // node 2's relay — the request takes exactly one interior hop.
      "6 3->0 PR-REQUEST(from=3, req=3)\n"
      "7 0->2 PR-REQUEST(from=3, req=3)\n"
      "8 2->3 PR-TOKEN\n";
  EXPECT_EQ(run_path_reversal_trace(), expected);
}

TEST(GoldenTrace, PathReversalIsBitDeterministic) {
  EXPECT_EQ(run_path_reversal_trace(), run_path_reversal_trace());
}

std::string run_fault_campaign_trace() {
  mutex::ParamSet p;
  p.set("recovery", 1.0)
      .set("token_timeout", 3.0)
      .set("enquiry_timeout", 1.0)
      .set("arbiter_timeout", 6.0)
      .set("probe_timeout", 1.0);
  testbed::MutexCluster tb("arbiter-tp", 5, p);
  std::ostringstream os;
  tb.network().set_tap([&](const net::Envelope& env, bool dropped) {
    os << env.sent_at.to_units() << " " << env.src << "->" << env.dst << " "
       << env.payload->describe() << (dropped ? " DROPPED" : "") << "\n";
  });
  fault::CampaignRunner campaign(
      tb.cluster(),
      fault::FaultPlan::parse(
          "t=0.25 lose-next PRIVILEGE; t=1.5 crash 3; t=5 restart 3"));
  campaign.start();
  tb.submit_at(0.0, 1);
  tb.submit_at(0.1, 2);
  tb.submit_at(6.0, 3);
  tb.simulator().run_until(sim::SimTime::units(80.0));
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_GE(tb.total_completed(), 3u);
  EXPECT_EQ(campaign.executed(), 3u);
  EXPECT_EQ(campaign.unfired_targeted_drops(), 0u);
  return os.str();
}

// Same seed + same fault plan => the same run, byte for byte.  The campaign
// engine (timed crash/restart, a targeted one-shot drop, recovery
// machinery) must not introduce any nondeterminism into the wire trace.
TEST(GoldenTrace, FaultCampaignIsBitDeterministic) {
  const std::string first = run_fault_campaign_trace();
  EXPECT_FALSE(first.empty());
  // The targeted drop is visible in the trace and the recovery machinery
  // actually engaged — this is a campaign trace, not a fair-weather one.
  EXPECT_NE(first.find(" DROPPED"), std::string::npos);
  EXPECT_NE(first.find("ENQUIRY"), std::string::npos);
  EXPECT_EQ(first, run_fault_campaign_trace());
  // Pinned as well, so a change to §6's wire behaviour fails here even
  // when it is deterministic.
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 24);
  EXPECT_EQ(testbed::fnv1a64(first), 0x4374780ff702a483ULL);
}

}  // namespace
}  // namespace dmx::core
