// Chaos campaign engine: fault-plan parsing, single-counted drop
// adjudication, one-shot observability and cancellation, campaign execution
// against a live cluster, recovery metrics, the progress/liveness monitor,
// and end-to-end campaign runs through the experiment harness.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "mutex/progress_monitor.hpp"
#include "net/network.hpp"
#include "stats/recovery_metrics.hpp"
#include "testbed.hpp"

namespace dmx {
namespace {

using fault::FaultAction;
using fault::FaultPlan;

// ---------------------------------------------------------------- parsing

TEST(FaultPlanParse, RoundTripsEveryVerb) {
  const std::string spec =
      "t=5 crash 3; t=9 restart 3; t=12 lose-next PRIVILEGE from=1 to=2; "
      "t=15 loss REQUEST=0.25 until=20; t=21 loss *=0.1; "
      "t=30 partition 0,1,2|3,4; t=40 heal";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.size(), 7u);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlanParse, FieldsOfEachAction) {
  const FaultPlan plan = FaultPlan::parse(
      "t=5 crash 3; t=12 lose-next PRIVILEGE from=1 to=2; "
      "t=15 loss REQUEST=0.25 until=20; t=30 partition 0,1|2");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kCrash);
  EXPECT_EQ(plan.actions[0].at, 5.0);
  EXPECT_EQ(plan.actions[0].node, 3);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kLoseNext);
  EXPECT_EQ(plan.actions[1].msg_type, "PRIVILEGE");
  EXPECT_EQ(plan.actions[1].src, 1);
  EXPECT_EQ(plan.actions[1].dst, 2);
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::kSetLoss);
  EXPECT_EQ(plan.actions[2].probability, 0.25);
  EXPECT_EQ(plan.actions[2].until, 20.0);
  EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::kPartition);
  ASSERT_EQ(plan.actions[3].groups.size(), 2u);
  EXPECT_EQ(plan.actions[3].groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.actions[3].groups[1], (std::vector<int>{2}));
}

TEST(FaultPlanParse, SortsByTimeStably) {
  const FaultPlan plan =
      FaultPlan::parse("t=9 restart 1; t=2 crash 1; t=9 heal");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kCrash);
  // Equal times keep spec order: restart before heal.
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kRestart);
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::kHeal);
}

TEST(FaultPlanParse, EmptySpecAndBlankSegments) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ;  ; ").empty());
  EXPECT_EQ(FaultPlan::parse("t=1 heal; ; t=2 heal").size(), 2u);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("crash 3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 explode 3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 crash"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 crash x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 loss REQUEST=1.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 loss REQUEST=0.1 until=5"),
               std::invalid_argument);  // window must end after it opens
  EXPECT_THROW(FaultPlan::parse("t=5 partition"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=5 crash 3 junk"), std::invalid_argument);
}

TEST(FaultPlanParse, RejectsNonFiniteNumbers) {
  // NaN and infinity are no times or probabilities: each is reported with
  // the action it came from, not accepted and left to fail (or silently do
  // nothing) mid-run.
  for (const std::string action :
       {"t=nan crash 1", "t=inf crash 1", "t=1 loss PRIVILEGE=nan",
        "t=1 loss REQUEST=0.1 until=nan", "t=1 loss REQUEST=0.1 until=inf",
        "reorder-window t=1..nan", "reorder-window t=nan..5"}) {
    try {
      (void)FaultPlan::parse(action);
      ADD_FAILURE() << "accepted '" << action << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("in action '" + action + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultPlanParse, UnknownMessageTypeIsNotAParseError) {
  // The registry may not be populated at parse time; validate() checks type
  // names against it.
  EXPECT_EQ(FaultPlan::parse("t=5 lose-next NO-SUCH-TYPE").size(), 1u);
}

TEST(FaultPlanValidate, ReportsEveryActionThatDoesNotFitTheCluster) {
  EXPECT_TRUE(FaultPlan::parse("t=1 crash 2; t=2 restart 2; t=3 lose-next * "
                               "from=0 to=2; t=4 dup-next REQUEST; t=5 loss "
                               "*=0.1; t=6 partition 0|1,2; t=7 heal")
                  .validate(3)
                  .empty());
  EXPECT_EQ(FaultPlan::parse("t=1 crash 3; t=2 lose-next PRIVILEGE from=9; "
                             "t=3 dup-next NOPE to=4; t=4 loss NOPE=0.5; "
                             "t=5 partition 0|1,3")
                .validate(3),
            (std::vector<std::string>{
                "fault plan: node 3 outside the 3-node cluster in action "
                "'t=1 crash 3'",
                "fault plan: node 9 outside the 3-node cluster in action "
                "'t=2 lose-next PRIVILEGE from=9'",
                "fault plan: unregistered message type \"NOPE\" in action "
                "'t=3 dup-next NOPE to=4'",
                "fault plan: node 4 outside the 3-node cluster in action "
                "'t=3 dup-next NOPE to=4'",
                "fault plan: unregistered message type \"NOPE\" in action "
                "'t=4 loss NOPE=0.5'",
                "fault plan: node 3 outside the 3-node cluster in action "
                "'t=5 partition 0|1,3'"}));
}

TEST(FaultPlanParse, DisruptiveClassification) {
  const FaultPlan plan = FaultPlan::parse(
      "t=1 crash 0; t=2 restart 0; t=3 lose-next PRIVILEGE; "
      "t=4 loss *=0.5; t=5 loss *=0; t=6 partition 0|1; t=7 heal");
  ASSERT_EQ(plan.size(), 7u);
  EXPECT_TRUE(plan.actions[0].disruptive());   // crash
  EXPECT_FALSE(plan.actions[1].disruptive());  // restart heals
  EXPECT_TRUE(plan.actions[2].disruptive());   // lose-next
  EXPECT_TRUE(plan.actions[3].disruptive());   // loss p > 0
  EXPECT_FALSE(plan.actions[4].disruptive());  // loss p == 0 heals
  EXPECT_TRUE(plan.actions[5].disruptive());   // partition
  EXPECT_FALSE(plan.actions[6].disruptive());  // heal
}

TEST(FaultPlanParse, DupNextRoundTripsAndClassifies) {
  const FaultPlan plan = FaultPlan::parse(
      "t=3 dup-next PRIVILEGE; t=7 dup-next REQUEST from=1 to=0");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kDupNext);
  EXPECT_EQ(plan.actions[0].msg_type, "PRIVILEGE");
  EXPECT_EQ(plan.actions[1].src, 1);
  EXPECT_EQ(plan.actions[1].dst, 0);
  // Duplication never opens a recovery window: the dedup layer (or an
  // idempotent handler) absorbs the extra copy without losing progress.
  EXPECT_FALSE(plan.actions[0].disruptive());
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
  EXPECT_THROW(FaultPlan::parse("t=3 dup-next"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("t=3 dup-next PRIVILEGE from=x"),
               std::invalid_argument);
}

TEST(FaultPlanParse, ReorderWindowRoundTripsAndValidates) {
  const FaultPlan plan =
      FaultPlan::parse("reorder-window t=2..8; t=1 loss *=0.1");
  ASSERT_EQ(plan.size(), 2u);
  // Sorted by start time: the loss action at t=1 comes first.
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kSetLoss);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kReorderWindow);
  EXPECT_EQ(plan.actions[1].at, 2.0);
  EXPECT_EQ(plan.actions[1].until, 8.0);
  EXPECT_TRUE(plan.actions[1].disruptive());
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());

  EXPECT_THROW(FaultPlan::parse("reorder-window"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reorder-window t=5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reorder-window t=8..2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reorder-window t=5..5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reorder-window t=-1..5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reorder-window t=2..8 junk"),
               std::invalid_argument);
}

// ------------------------------------------- drop adjudication / counting

struct ChaosPing final : net::Msg<ChaosPing> {
  DMX_REGISTER_MESSAGE(ChaosPing, "CHAOS-PING");
};
struct ChaosPong final : net::Msg<ChaosPong> {
  DMX_REGISTER_MESSAGE(ChaosPong, "CHAOS-PONG");
};

class Recorder final : public net::MessageHandler {
 public:
  void on_message(const net::Envelope& env) override {
    received.push_back(env);
  }
  std::vector<net::Envelope> received;
};

class DropCountingTest : public ::testing::Test {
 protected:
  void make_net(std::size_t n) {
    net_ = std::make_unique<net::Network>(
        sim_, n,
        std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 1);
    recorders_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      recorders_[i] = std::make_unique<Recorder>();
      net_->attach(net::NodeId{static_cast<std::int32_t>(i)},
                   recorders_[i].get());
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
};

TEST_F(DropCountingTest, DownNodeBehindPartitionCountsExactlyOnce) {
  make_net(3);
  auto& f = net_->faults();
  f.set_node_down(net::NodeId{1}, true);
  f.set_partition({{net::NodeId{0}, net::NodeId{2}}, {net::NodeId{1}}});
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  sim_.run();
  // One transmission, one drop, one cause — never double-counted even
  // though both the down node and the partition apply.
  EXPECT_EQ(f.dropped_count(), 1u);
  EXPECT_EQ(f.dropped_count(net::DropReason::kNodeDown), 1u);
  EXPECT_EQ(f.dropped_count(net::DropReason::kPartition), 0u);
  EXPECT_EQ(net_->stats().dropped, 1u);
  EXPECT_EQ(net_->stats().delivered, 0u);
}

TEST(NodeDownFlags, UnsetAndOutOfTableIdsAreUp) {
  net::FaultInjector f;
  EXPECT_FALSE(f.is_node_down(net::NodeId{0}));
  EXPECT_FALSE(f.is_node_down(net::NodeId{7}));
  f.set_node_down(net::NodeId{2}, true);
  EXPECT_TRUE(f.is_node_down(net::NodeId{2}));
  EXPECT_FALSE(f.is_node_down(net::NodeId{1}));
  // Past the end of the table that node 2 going down grew.
  EXPECT_FALSE(f.is_node_down(net::NodeId{3}));
  EXPECT_FALSE(f.is_node_down(net::NodeId{1000}));
  f.set_node_down(net::NodeId{9}, false);
  EXPECT_FALSE(f.is_node_down(net::NodeId{9}));
  f.set_node_down(net::NodeId{2}, false);
  EXPECT_FALSE(f.is_node_down(net::NodeId{2}));
  EXPECT_FALSE(f.is_node_down(net::NodeId{}));
  EXPECT_THROW(f.set_node_down(net::NodeId{}, true), std::invalid_argument);
}

TEST_F(DropCountingTest, PartitionAloneAttributedToPartition) {
  make_net(3);
  auto& f = net_->faults();
  f.set_partition({{net::NodeId{0}, net::NodeId{2}}, {net::NodeId{1}}});
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  net_->send(net::NodeId{0}, net::NodeId{2}, net::make_payload<ChaosPing>());
  sim_.run();
  EXPECT_EQ(f.dropped_count(), 1u);
  EXPECT_EQ(f.dropped_count(net::DropReason::kPartition), 1u);
  EXPECT_EQ(recorders_[2]->received.size(), 1u);  // same-group traffic flows
}

TEST_F(DropCountingTest, CrashWhileInFlightCountsOnceAsNodeDown) {
  make_net(2);
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  sim_.schedule_at(sim::SimTime::units(0.05), [this] {
    net_->faults().set_node_down(net::NodeId{1}, true);
  });
  sim_.run();
  // The send-time check passed; the delivery-time check catches the crash
  // and the injector's ledger still agrees with the network's.
  EXPECT_TRUE(recorders_[1]->received.empty());
  EXPECT_EQ(net_->faults().dropped_count(), 1u);
  EXPECT_EQ(net_->faults().dropped_count(net::DropReason::kNodeDown), 1u);
  EXPECT_EQ(net_->stats().dropped, 1u);
  EXPECT_EQ(net_->stats().delivered, 0u);
}

TEST_F(DropCountingTest, OneShotObservabilityFiredVersusPending) {
  make_net(2);
  auto& f = net_->faults();
  const auto ping_id = f.drop_next_of_type("CHAOS-PING");
  const auto pong_id = f.drop_next_of_type("CHAOS-PONG");
  EXPECT_EQ(f.one_shots_pending(), 2u);
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  sim_.run();
  EXPECT_EQ(f.one_shots_fired(), 1u);
  EXPECT_EQ(f.one_shots_pending(), 1u);
  EXPECT_FALSE(f.one_shot_pending(ping_id));  // retired by the first PING
  EXPECT_TRUE(f.one_shot_pending(pong_id));   // no PONG ever sent
  EXPECT_EQ(f.dropped_count(net::DropReason::kOneShot), 1u);
  EXPECT_EQ(recorders_[1]->received.size(), 1u);  // second PING delivered
}

TEST_F(DropCountingTest, PendingCountCoversDuplicateOneShots) {
  make_net(2);
  auto& f = net_->faults();
  const auto dup_id = f.duplicate_next_of_type("CHAOS-PING");
  f.drop_next_of_type("CHAOS-PONG");
  // Both flavours of one-shot count as pending until they fire.
  EXPECT_EQ(f.one_shots_pending(), 2u);
  EXPECT_TRUE(f.one_shot_pending(dup_id));
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  sim_.run();
  EXPECT_EQ(f.one_shots_pending(), 1u);  // The dup fired; the drop waits.
  EXPECT_FALSE(f.one_shot_pending(dup_id));
  EXPECT_EQ(f.duplicates_injected(), 1u);
  EXPECT_EQ(recorders_[1]->received.size(), 2u);  // Original + one copy.
}

TEST_F(DropCountingTest, DoomedMessageDoesNotConsumeOneShot) {
  make_net(2);
  auto& f = net_->faults();
  f.set_node_down(net::NodeId{1}, true);
  f.drop_next_of_type("CHAOS-PING");
  net_->send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChaosPing>());
  sim_.run();
  // The message was already dead (down destination); the targeted drop
  // stays armed for a message it could actually affect.
  EXPECT_EQ(f.dropped_count(net::DropReason::kNodeDown), 1u);
  EXPECT_EQ(f.one_shots_fired(), 0u);
  EXPECT_EQ(f.one_shots_pending(), 1u);
}

// --------------------------------------------------------- campaign runner

mutex::ParamSet recovery_params() {
  mutex::ParamSet p;
  p.set("recovery", 1.0)
      .set("token_timeout", 3.0)
      .set("enquiry_timeout", 1.0)
      .set("arbiter_timeout", 6.0)
      .set("probe_timeout", 1.0)
      .set("resubmit_after_misses", 1.0)
      .set("request_retry_timeout", 5.0);
  return p;
}

TEST(CampaignRunner, ExecutesActionsOnScheduleWithHooksAndLog) {
  testbed::MutexCluster tb("arbiter-tp", 5, recovery_params());
  fault::CampaignRunner campaign(
      tb.cluster(), FaultPlan::parse("t=1 crash 3; t=4 restart 3"));
  // Still outstanding at t=1: the crash reaches node 3's driver through its
  // algorithm and voids the demand, with no hook.
  tb.submit_at(0.9, 3);
  std::vector<double> observed_at;
  campaign.set_observer([&](sim::SimTime t, const FaultAction&) {
    observed_at.push_back(t.to_units());
  });
  campaign.start();
  EXPECT_EQ(campaign.pending_actions(), 2u);
  tb.simulator().run_until(sim::SimTime::units(2.0));
  EXPECT_TRUE(tb.network().faults().is_node_down(net::NodeId{3}));
  EXPECT_EQ(campaign.executed(), 1u);
  tb.simulator().run_until(sim::SimTime::units(10.0));
  EXPECT_FALSE(tb.network().faults().is_node_down(net::NodeId{3}));
  EXPECT_EQ(campaign.executed(), 2u);
  EXPECT_EQ(campaign.pending_actions(), 0u);
  EXPECT_EQ(tb.driver(3).aborted_by_crash(), 1u);
  EXPECT_EQ(tb.driver(3).completed(), 0u);
  EXPECT_EQ(observed_at, (std::vector<double>{1.0, 4.0}));
  ASSERT_EQ(campaign.log().size(), 2u);
  EXPECT_EQ(campaign.log()[0], "t=1 crash 3");
  EXPECT_EQ(campaign.log()[1], "t=4 restart 3");
}

TEST(CampaignRunner, ValidatesPlanAgainstClusterAndRegistry) {
  testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
  {
    fault::CampaignRunner bad_node(tb.cluster(),
                                   FaultPlan::parse("t=1 crash 7"));
    EXPECT_THROW(bad_node.start(), std::invalid_argument);
  }
  {
    fault::CampaignRunner bad_type(
        tb.cluster(), FaultPlan::parse("t=1 lose-next NO-SUCH-TYPE"));
    EXPECT_THROW(bad_type.start(), std::invalid_argument);
  }
  {
    fault::CampaignRunner bad_group(tb.cluster(),
                                    FaultPlan::parse("t=1 partition 0|1,5"));
    EXPECT_THROW(bad_group.start(), std::invalid_argument);
  }
  {
    tb.simulator().schedule_at(sim::SimTime::units(2.0), [] {});
    tb.simulator().run_until(sim::SimTime::units(3.0));
    fault::CampaignRunner in_past(tb.cluster(),
                                  FaultPlan::parse("t=1 crash 0"));
    EXPECT_THROW(in_past.start(), std::invalid_argument);
  }
}

TEST(CampaignRunner, CancelStopsPendingActions) {
  testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
  fault::CampaignRunner campaign(tb.cluster(),
                                 FaultPlan::parse("t=1 crash 1"));
  campaign.start();
  campaign.cancel();
  tb.simulator().run_until(sim::SimTime::units(5.0));
  EXPECT_EQ(campaign.executed(), 0u);
  EXPECT_FALSE(tb.network().faults().is_node_down(net::NodeId{1}));
}

TEST(CampaignRunner, ReportsUnfiredTargetedDrops) {
  testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
  // ENQUIRY is registered but never sent in a healthy idle run.
  fault::CampaignRunner campaign(tb.cluster(),
                                 FaultPlan::parse("t=1 lose-next ENQUIRY"));
  campaign.start();
  tb.submit_at(2.0, 1);
  tb.simulator().run_until(sim::SimTime::units(20.0));
  EXPECT_EQ(campaign.executed(), 1u);
  EXPECT_EQ(campaign.unfired_targeted_drops(), 1u);
  EXPECT_EQ(tb.total_completed(), 1u);
}

TEST(CampaignRunner, WildcardOneShotsMatchAnyType) {
  // '*' names no type, so the one-shot takes the next message of any type.
  for (const std::string verb : {"lose-next", "dup-next"}) {
    testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
    fault::CampaignRunner campaign(tb.cluster(),
                                   FaultPlan::parse("t=1 " + verb + " *"));
    campaign.start();
    tb.submit_at(2.0, 1);
    tb.simulator().run_until(sim::SimTime::units(20.0));
    const auto& f = tb.network().faults();
    const bool lose = verb == "lose-next";
    EXPECT_EQ(f.one_shots_fired(), lose ? 1u : 0u) << verb;
    EXPECT_EQ(f.duplicates_injected(), lose ? 0u : 1u) << verb;
    EXPECT_EQ(campaign.unfired_targeted_drops(), 0u) << verb;
  }
}

TEST(CampaignRunner, LossWindowRevertsAtUntil) {
  testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
  fault::CampaignRunner campaign(
      tb.cluster(),
      FaultPlan::parse("t=1 loss *=0.8 until=5; t=2 loss REQUEST=1 until=6"));
  campaign.start();
  auto& f = tb.network().faults();
  const auto request =
      net::MsgKindRegistry::instance().find("REQUEST");
  tb.simulator().run_until(sim::SimTime::units(3.0));
  EXPECT_EQ(f.global_loss_probability(), 0.8);
  EXPECT_EQ(f.loss_probability(request), 1.0);  // per-kind overrides global
  tb.simulator().run_until(sim::SimTime::units(5.5));
  EXPECT_EQ(f.global_loss_probability(), 0.0);  // window closed
  EXPECT_EQ(f.loss_probability(request), 1.0);  // per-kind window still open
  tb.simulator().run_until(sim::SimTime::units(7.0));
  EXPECT_EQ(f.loss_probability(request), 0.0);  // reverted to global
}

// -------------------------------------------------------- recovery metrics

TEST(RecoveryMetrics, OverlappingWindowsAreSingleBilled) {
  stats::RecoveryMetrics m;
  m.on_fault(1.0, "a");
  m.on_fault(2.0, "b");
  m.on_progress(5.0);
  m.end_run(10.0);
  EXPECT_EQ(m.faults(), 2u);
  EXPECT_EQ(m.recovered(), 2u);
  EXPECT_EQ(m.unrecovered(), 0u);
  // One TTR sample per fault (4 and 3), but the union window is billed once.
  EXPECT_EQ(m.ttr().count(), 2u);
  EXPECT_DOUBLE_EQ(m.ttr().max(), 4.0);
  EXPECT_DOUBLE_EQ(m.unavailability(), 4.0);
}

TEST(RecoveryMetrics, UnrecoveredFaultIsCensoredNotSampled) {
  stats::RecoveryMetrics m;
  m.on_progress(0.5);  // progress with no open window is a no-op
  m.on_fault(1.0, "crash");
  m.end_run(4.0);
  EXPECT_EQ(m.faults(), 1u);
  EXPECT_EQ(m.recovered(), 0u);
  EXPECT_EQ(m.unrecovered(), 1u);
  EXPECT_EQ(m.ttr().count(), 0u);  // censored: no sample
  EXPECT_DOUBLE_EQ(m.unavailability(), 3.0);  // but the downtime is billed
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_FALSE(m.records()[0].recovered);
  EXPECT_EQ(m.records()[0].label, "crash");
}

// -------------------------------------------------------- progress monitor

TEST(ProgressMonitor, HealthyRunNeverStallsAndStopsPolling) {
  testbed::MutexCluster tb("arbiter-tp", 3, recovery_params());
  mutex::ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(10.0);
  mutex::ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.submit_at(0.5, 1);
  tb.submit_at(1.0, 2);
  tb.simulator().run();  // monitor stops polling once quiet: run() terminates
  EXPECT_FALSE(monitor.stalled());
  EXPECT_GE(monitor.checks_performed(), 1u);
  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_LT(tb.simulator().now().to_units(), 100.0);
}

TEST(ProgressMonitor, CrashedArbiterWithoutRecoveryIsDiagnosed) {
  // The deliberately broken plan: with recovery machinery off, nobody
  // monitors the epoch-1 arbiter.  The monitor must catch the stall and
  // name the dead node — instead of the run burning its backstop.
  mutex::ParamSet p;  // recovery off
  testbed::MutexCluster tb("arbiter-tp", 3, p);
  mutex::ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(8.0);
  mutex::ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.crash_at(0.05, 0);
  tb.submit_at(0.5, 1);
  tb.simulator().run_until(sim::SimTime::units(1'000.0));
  EXPECT_TRUE(monitor.stalled());
  // The simulator was stopped at the stall, far before the horizon.
  EXPECT_LT(tb.simulator().now().to_units(), 100.0);
  EXPECT_NE(monitor.diagnosis().find("node 0: CRASHED"), std::string::npos);
  EXPECT_NE(monitor.diagnosis().find("demand-pending"), std::string::npos);
  EXPECT_NE(monitor.diagnosis().find("believes arbiter=0"),
            std::string::npos);
}

TEST(ProgressMonitor, StallIsDatedFromTheLastCompletion) {
  // Node 1's CS completes near t=0.9 and leaves node 1 arbiter with the
  // token; then node 1 dies with recovery off, and node 2's demand can
  // never be served.  The diagnosis dates the stall from that completion,
  // not from the t=5 poll that first saw it, so the stall is declared at
  // the t=10 poll (a threshold after the completion), not at t=15.
  mutex::ParamSet p;  // recovery off
  testbed::MutexCluster tb("arbiter-tp", 3, p);
  mutex::ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(8.0);
  cfg.check_interval = sim::SimTime::units(5.0);
  mutex::ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.submit_at(0.5, 1);
  tb.crash_at(3.0, 1);
  tb.submit_at(4.0, 2);
  tb.simulator().run_until(sim::SimTime::units(1'000.0));
  const sim::SimTime done = tb.driver(1).last_completion();
  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_GT(done, sim::SimTime::units(0.5));
  EXPECT_LT(done, sim::SimTime::units(3.0));
  ASSERT_TRUE(monitor.stalled());
  EXPECT_EQ(monitor.stall_time(), sim::SimTime::units(10.0));
  EXPECT_NE(monitor.diagnosis().find("(no CS completion since t=" +
                                     std::to_string(done.to_units()) + ")"),
            std::string::npos)
      << monitor.diagnosis();
}

TEST(ProgressMonitor, DryEventQueueWithDemandIsAnImmediateStall) {
  // Centralized mutex, coordinator crashed: the client's demand can never
  // be served and no timer will ever fire — the event queue goes dry and
  // the monitor proves the stall at its next check without waiting out the
  // threshold.
  mutex::ParamSet p;
  testbed::MutexCluster tb("centralized", 3, p);
  mutex::ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(1'000.0);
  cfg.check_interval = sim::SimTime::units(5.0);
  mutex::ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.crash_at(0.05, 0);  // the coordinator
  tb.submit_at(1.0, 2);
  tb.simulator().run_until(sim::SimTime::units(10'000.0));
  EXPECT_TRUE(monitor.stalled());
  // Declared at a poll tick, orders of magnitude before the threshold.
  EXPECT_LT(monitor.stall_time().to_units(), 100.0);
}

// ------------------------------------------------- harness end-to-end

harness::ExperimentConfig campaign_config(const std::string& plan) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.n_nodes = 5;
  cfg.lambda = 0.3;
  cfg.seed = 42;
  cfg.total_requests = 300;
  cfg.params = recovery_params();
  cfg.fault_plan = plan;
  return cfg;
}

TEST(CampaignEndToEnd, CrashRestartCampaignRecoversAndMeasuresTtr) {
  const auto r =
      harness::run_experiment(campaign_config("t=20 crash 2; t=40 restart 2"));
  EXPECT_EQ(r.faults_injected, 1u);  // restart is a healing action
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_EQ(r.time_to_recovery.count(), 1u);
  EXPECT_GT(r.time_to_recovery.mean(), 0.0);
  EXPECT_GT(r.unavailability, 0.0);
  EXPECT_FALSE(r.stalled);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_EQ(r.fault_log.size(), 2u);
  EXPECT_EQ(r.fault_log[0], "t=20 crash 2");
}

TEST(CampaignEndToEnd, TargetedDropCampaignFiresItsOneShot) {
  const auto r =
      harness::run_experiment(campaign_config("t=20 lose-next PRIVILEGE"));
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_recovered, 1u);
  EXPECT_EQ(r.unfired_targeted_drops, 0u);  // the drop actually hit
  EXPECT_TRUE(r.drained);
  EXPECT_GE(r.protocol.tokens_regenerated, 1u);
}

TEST(CampaignEndToEnd, BrokenPlanIsCaughtByTheMonitorNotTheBackstop) {
  auto cfg = campaign_config("t=0.05 crash 0");
  cfg.params = mutex::ParamSet{};  // recovery off: the plan is unsurvivable
  cfg.total_requests = 100;
  cfg.max_sim_units = 1e6;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.faults_recovered, 0u);
  EXPECT_GT(r.unavailability, 0.0);  // censored downtime is still billed
  // Stopped by the monitor's diagnosis, not the 1e6-unit backstop.
  EXPECT_LT(r.sim_duration_units, 1'000.0);
  EXPECT_NE(r.stall_diagnosis.find("node 0: CRASHED"), std::string::npos);
}

TEST(CampaignEndToEnd, SameSeedSamePlanIsIdentical) {
  const auto cfg =
      campaign_config("t=20 crash 2; t=30 lose-next REQUEST; t=40 restart 2");
  const auto a = harness::run_experiment(cfg);
  const auto b = harness::run_experiment(cfg);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.sim_duration_units, b.sim_duration_units);
  EXPECT_EQ(a.time_to_recovery.mean(), b.time_to_recovery.mean());
  EXPECT_EQ(a.unavailability, b.unavailability);
  EXPECT_EQ(a.fault_log, b.fault_log);
}

}  // namespace
}  // namespace dmx
