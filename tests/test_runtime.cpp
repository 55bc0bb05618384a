#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/delay_model.hpp"
#include "runtime/cluster.hpp"
#include "runtime/process.hpp"

namespace dmx::runtime {
namespace {

struct NoteMsg final : net::Msg<NoteMsg> {
  DMX_REGISTER_MESSAGE(NoteMsg, "NOTE");
  int value;
  explicit NoteMsg(int v) : value(v) {}
};

/// Minimal process recording lifecycle and message events.
class Probe final : public Process {
 public:
  std::vector<int> notes;
  int starts = 0;
  int crashes = 0;
  int restarts = 0;
  int timer_fires = 0;

  using Process::broadcast;
  using Process::cancel_timer;
  using Process::send;
  using Process::set_timer;
  using Process::timer_pending;

 protected:
  void handle(const net::Envelope& env) override {
    if (const auto* n = env.as<NoteMsg>()) notes.push_back(n->value);
  }
  void on_start() override { ++starts; }
  void on_crash() override { ++crashes; }
  void on_restart() override { ++restarts; }
};

std::unique_ptr<net::DelayModel> delay01() {
  return std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1));
}

class ClusterTest : public ::testing::Test {
 protected:
  void make(std::size_t n) {
    cluster_ = std::make_unique<Cluster>(n, delay01(), 1);
    probes_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      probes_.push_back(cluster_->process_as<Probe>(
          cluster_->install(net::NodeId{static_cast<std::int32_t>(i)},
                            std::make_unique<Probe>())
              ->id()));
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<Probe*> probes_;
};

TEST_F(ClusterTest, StartCallsEveryProcessOnce) {
  make(3);
  cluster_->start();
  for (auto* p : probes_) EXPECT_EQ(p->starts, 1);
  EXPECT_THROW(cluster_->start(), std::logic_error);
}

TEST_F(ClusterTest, StartRequiresAllSlotsFilled) {
  Cluster c(2, delay01(), 1);
  c.install(net::NodeId{0}, std::make_unique<Probe>());
  EXPECT_THROW(c.start(), std::logic_error);
}

TEST_F(ClusterTest, InstallValidation) {
  Cluster c(2, delay01(), 1);
  EXPECT_THROW(c.install(net::NodeId{5}, std::make_unique<Probe>()),
               std::out_of_range);
  EXPECT_THROW(c.install(net::NodeId{0}, nullptr), std::invalid_argument);
  c.install(net::NodeId{0}, std::make_unique<Probe>());
  EXPECT_THROW(c.install(net::NodeId{0}, std::make_unique<Probe>()),
               std::logic_error);
}

TEST_F(ClusterTest, ProcessAsChecksType) {
  make(1);
  EXPECT_NE(cluster_->process_as<Probe>(net::NodeId{0}), nullptr);
  EXPECT_NO_THROW((void)cluster_->process(net::NodeId{0}));
  EXPECT_THROW((void)cluster_->process(net::NodeId{7}), std::out_of_range);
}

TEST_F(ClusterTest, MessagesFlowBetweenProcesses) {
  make(2);
  cluster_->start();
  probes_[0]->send(net::NodeId{1}, net::make_payload<NoteMsg>(42));
  cluster_->simulator().run();
  ASSERT_EQ(probes_[1]->notes.size(), 1u);
  EXPECT_EQ(probes_[1]->notes[0], 42);
}

TEST_F(ClusterTest, BroadcastSkipsSelf) {
  make(3);
  cluster_->start();
  probes_[1]->broadcast(net::make_payload<NoteMsg>(9));
  cluster_->simulator().run();
  EXPECT_TRUE(probes_[1]->notes.empty());
  EXPECT_EQ(probes_[0]->notes.size(), 1u);
  EXPECT_EQ(probes_[2]->notes.size(), 1u);
}

TEST_F(ClusterTest, TimerFiresOnceAndDeregisters) {
  make(1);
  cluster_->start();
  auto* p = probes_[0];
  const TimerId t =
      p->set_timer(sim::SimTime::units(1.0), [p] { ++p->timer_fires; });
  EXPECT_TRUE(p->timer_pending(t));
  cluster_->simulator().run();
  EXPECT_EQ(p->timer_fires, 1);
  EXPECT_FALSE(p->timer_pending(t));
}

TEST_F(ClusterTest, TimerTakesAMoveOnlyCallable) {
  make(1);
  cluster_->start();
  auto* p = probes_[0];
  p->set_timer(sim::SimTime::units(1.0),
               [p, box = std::make_unique<int>(7)] {
                 p->notes.push_back(*box);
                 ++p->timer_fires;
               });
  cluster_->simulator().run();
  EXPECT_EQ(p->timer_fires, 1);
  EXPECT_EQ(p->notes, std::vector<int>{7});
}

TEST_F(ClusterTest, EmptyTimerCallbackThrows) {
  make(1);
  cluster_->start();
  EXPECT_THROW(probes_[0]->set_timer(sim::SimTime::units(1.0),
                                     std::function<void()>{}),
               std::invalid_argument);
  EXPECT_EQ(cluster_->simulator().pending_count(), 0u);
}

TEST_F(ClusterTest, CancelledTimerDoesNotFire) {
  make(1);
  cluster_->start();
  auto* p = probes_[0];
  TimerId t = p->set_timer(sim::SimTime::units(1.0), [p] { ++p->timer_fires; });
  p->cancel_timer(t);
  EXPECT_FALSE(t.valid());
  cluster_->simulator().run();
  EXPECT_EQ(p->timer_fires, 0);
}

TEST_F(ClusterTest, CrashSuppressesTimersAndMessages) {
  make(2);
  cluster_->start();
  auto* p = probes_[0];
  p->set_timer(sim::SimTime::units(1.0), [p] { ++p->timer_fires; });
  probes_[1]->send(net::NodeId{0}, net::make_payload<NoteMsg>(1));
  cluster_->crash_node(net::NodeId{0});
  EXPECT_TRUE(p->crashed());
  EXPECT_EQ(p->crashes, 1);
  cluster_->simulator().run();
  EXPECT_EQ(p->timer_fires, 0);
  EXPECT_TRUE(p->notes.empty());
}

TEST_F(ClusterTest, RestartRestoresDelivery) {
  make(2);
  cluster_->start();
  cluster_->crash_node(net::NodeId{0});
  cluster_->restart_node(net::NodeId{0});
  EXPECT_FALSE(probes_[0]->crashed());
  EXPECT_EQ(probes_[0]->restarts, 1);
  probes_[1]->send(net::NodeId{0}, net::make_payload<NoteMsg>(5));
  cluster_->simulator().run();
  EXPECT_EQ(probes_[0]->notes.size(), 1u);
}

TEST_F(ClusterTest, CrashedNodeSendsAreDropped) {
  make(2);
  cluster_->start();
  cluster_->crash_node(net::NodeId{0});
  // A crashed process does not execute, but even if some stale closure sent
  // on its behalf, the network drops traffic from a down node.
  probes_[0]->send(net::NodeId{1}, net::make_payload<NoteMsg>(3));
  cluster_->simulator().run();
  EXPECT_TRUE(probes_[1]->notes.empty());
}

TEST_F(ClusterTest, DoubleCrashAndRestartAreIdempotent) {
  make(1);
  cluster_->start();
  cluster_->crash_node(net::NodeId{0});
  cluster_->crash_node(net::NodeId{0});
  EXPECT_EQ(probes_[0]->crashes, 1);
  cluster_->restart_node(net::NodeId{0});
  cluster_->restart_node(net::NodeId{0});
  EXPECT_EQ(probes_[0]->restarts, 1);
}

TEST_F(ClusterTest, TimersSetAfterRestartWork) {
  make(1);
  cluster_->start();
  auto* p = probes_[0];
  cluster_->crash_node(net::NodeId{0});
  cluster_->restart_node(net::NodeId{0});
  p->set_timer(sim::SimTime::units(0.5), [p] { ++p->timer_fires; });
  cluster_->simulator().run();
  EXPECT_EQ(p->timer_fires, 1);
}

}  // namespace
}  // namespace dmx::runtime
