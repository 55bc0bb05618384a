#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace dmx::net {
namespace {

struct PingMsg final : Msg<PingMsg> {
  DMX_REGISTER_MESSAGE(PingMsg, "PING");
  int value;
  explicit PingMsg(int v) : value(v) {}
};

struct PongMsg final : Msg<PongMsg> {
  DMX_REGISTER_MESSAGE(PongMsg, "PONG");
};

/// Records every delivered envelope.
class Recorder final : public MessageHandler {
 public:
  void on_message(const Envelope& env) override { received.push_back(env); }
  std::vector<Envelope> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  void attach_all(std::size_t n) {
    recorders_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      recorders_[i] = std::make_unique<Recorder>();
      net_->attach(NodeId{static_cast<std::int32_t>(i)}, recorders_[i].get());
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
};

TEST_F(NetworkTest, DeliversAfterConstantDelay) {
  net_ = std::make_unique<Network>(
      sim_, 3, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(3);
  net_->send(NodeId{0}, NodeId{2}, make_payload<PingMsg>(7));
  sim_.run();
  ASSERT_EQ(recorders_[2]->received.size(), 1u);
  const Envelope& env = recorders_[2]->received[0];
  EXPECT_EQ(env.src, NodeId{0});
  EXPECT_EQ(env.dst, NodeId{2});
  EXPECT_EQ(env.sent_at, sim::SimTime::zero());
  EXPECT_EQ(sim_.now(), sim::SimTime::units(0.1));
  ASSERT_NE(env.as<PingMsg>(), nullptr);
  EXPECT_EQ(env.as<PingMsg>()->value, 7);
  EXPECT_EQ(env.as<PongMsg>(), nullptr);
}

TEST_F(NetworkTest, SelfSendIsNearInstant) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.5)), 1);
  attach_all(2);
  net_->send(NodeId{1}, NodeId{1}, make_payload<PongMsg>());
  sim_.run();
  ASSERT_EQ(recorders_[1]->received.size(), 1u);
  EXPECT_EQ(sim_.now(), sim::SimTime::ticks(1));
}

TEST_F(NetworkTest, BroadcastReachesAllButSender) {
  net_ = std::make_unique<Network>(
      sim_, 5, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(5);
  net_->broadcast(NodeId{2}, make_payload<PongMsg>());
  sim_.run();
  EXPECT_TRUE(recorders_[2]->received.empty());
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(recorders_[i]->received.size(), 1u) << "node " << i;
  }
  EXPECT_EQ(net_->stats().sent, 4u);
  EXPECT_EQ(net_->stats().delivered, 4u);
}

TEST_F(NetworkTest, PerTypeStatsCountTransmissions) {
  net_ = std::make_unique<Network>(
      sim_, 3, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(3);
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  net_->broadcast(NodeId{0}, make_payload<PongMsg>());
  sim_.run();
  EXPECT_EQ(net_->stats().sent_by_type().get("PING"), 1u);
  EXPECT_EQ(net_->stats().sent_by_type().get("PONG"), 2u);
  EXPECT_EQ(net_->stats().sent_by_kind.get(PingMsg::message_kind().index()),
            1u);
  EXPECT_EQ(net_->stats().sent_by_kind.get(PongMsg::message_kind().index()),
            2u);
}

TEST_F(NetworkTest, ProbabilisticLossDropsEverythingAtP1) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(2);
  net_->faults().set_loss_probability(1.0);
  for (int i = 0; i < 10; ++i) {
    net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(i));
  }
  sim_.run();
  EXPECT_TRUE(recorders_[1]->received.empty());
  EXPECT_EQ(net_->stats().sent, 10u);     // generated messages still counted
  EXPECT_EQ(net_->stats().dropped, 10u);
  EXPECT_EQ(net_->stats().delivered, 0u);
}

TEST_F(NetworkTest, PerTypeLossOverridesGlobal) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(2);
  net_->faults().set_loss_probability(0.0);
  net_->faults().set_loss_probability("PING", 1.0);
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  net_->send(NodeId{0}, NodeId{1}, make_payload<PongMsg>());
  sim_.run();
  ASSERT_EQ(recorders_[1]->received.size(), 1u);
  EXPECT_EQ(recorders_[1]->received[0].payload->type_name(), "PONG");
}

TEST_F(NetworkTest, OneShotDropHitsFirstMatchOnly) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(2);
  net_->faults().drop_next_of_type("PING");
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(2));
  sim_.run();
  ASSERT_EQ(recorders_[1]->received.size(), 1u);
  EXPECT_EQ(recorders_[1]->received[0].as<PingMsg>()->value, 2);
}

TEST_F(NetworkTest, OneShotDropFiltersSrcAndDst) {
  net_ = std::make_unique<Network>(
      sim_, 3, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(3);
  net_->faults().drop_next_of_type("PING", NodeId{0}, NodeId{2});
  net_->send(NodeId{1}, NodeId{2}, make_payload<PingMsg>(1));  // src mismatch
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(2));  // dst mismatch
  net_->send(NodeId{0}, NodeId{2}, make_payload<PingMsg>(3));  // match: drop
  net_->send(NodeId{0}, NodeId{2}, make_payload<PingMsg>(4));  // passes
  sim_.run();
  EXPECT_EQ(recorders_[2]->received.size(), 2u);
  EXPECT_EQ(recorders_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, DownNodeReceivesAndSendsNothing) {
  net_ = std::make_unique<Network>(
      sim_, 3, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(3);
  net_->faults().set_node_down(NodeId{1}, true);
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  net_->send(NodeId{1}, NodeId{2}, make_payload<PingMsg>(2));
  sim_.run();
  EXPECT_TRUE(recorders_[1]->received.empty());
  EXPECT_TRUE(recorders_[2]->received.empty());
  net_->faults().set_node_down(NodeId{1}, false);
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(3));
  sim_.run();
  EXPECT_EQ(recorders_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, CrashWhileMessageInFlightDropsIt) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(1.0)), 1);
  attach_all(2);
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  sim_.schedule_at(sim::SimTime::units(0.5), [this] {
    net_->faults().set_node_down(NodeId{1}, true);
  });
  sim_.run();
  EXPECT_TRUE(recorders_[1]->received.empty());
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  net_ = std::make_unique<Network>(
      sim_, 4, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(4);
  net_->faults().set_partition({{NodeId{0}, NodeId{1}}, {NodeId{2}, NodeId{3}}});
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));  // same group
  net_->send(NodeId{0}, NodeId{2}, make_payload<PingMsg>(2));  // cross
  sim_.run();
  EXPECT_EQ(recorders_[1]->received.size(), 1u);
  EXPECT_TRUE(recorders_[2]->received.empty());
  net_->faults().heal_partition();
  net_->send(NodeId{0}, NodeId{2}, make_payload<PingMsg>(3));
  sim_.run();
  EXPECT_EQ(recorders_[2]->received.size(), 1u);
}

TEST_F(NetworkTest, TapSeesDropsAndPasses) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(2);
  int passed = 0, dropped = 0;
  net_->set_tap([&](const Envelope&, bool drop) {
    (drop ? dropped : passed)++;
  });
  net_->faults().drop_next_of_type("PING");
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(1));
  net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(2));
  sim_.run();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(dropped, 1);
}

TEST_F(NetworkTest, UniformDelayWithinBounds) {
  net_ = std::make_unique<Network>(
      sim_, 2,
      std::make_unique<UniformDelay>(sim::SimTime::units(0.1),
                                     sim::SimTime::units(0.2)),
      7);
  attach_all(2);
  for (int i = 0; i < 200; ++i) {
    net_->send(NodeId{0}, NodeId{1}, make_payload<PingMsg>(i));
  }
  sim_.run();
  ASSERT_EQ(recorders_[1]->received.size(), 200u);
  for (const auto& env : recorders_[1]->received) {
    const double d = (env.delivered_at - env.sent_at).to_units();
    EXPECT_GE(d, 0.1);
    EXPECT_LT(d, 0.3);
  }
}

TEST_F(NetworkTest, ValidationErrors) {
  net_ = std::make_unique<Network>(
      sim_, 2, std::make_unique<ConstantDelay>(sim::SimTime::units(0.1)), 1);
  attach_all(2);
  EXPECT_THROW(net_->send(NodeId{0}, NodeId{5}, make_payload<PongMsg>()),
               std::out_of_range);
  EXPECT_THROW(net_->send(NodeId{0}, NodeId{1}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(net_->attach(NodeId{9}, recorders_[0].get()),
               std::out_of_range);
  EXPECT_THROW(net_->attach(NodeId{0}, nullptr), std::invalid_argument);
  EXPECT_THROW(net_->faults().set_loss_probability(1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmx::net
