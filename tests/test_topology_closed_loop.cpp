// Tests for the multi-hop topology delay model and the closed-loop workload.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/topology.hpp"
#include "workload/closed_loop.hpp"

namespace dmx {
namespace {

TEST(Topology, CannedShapes) {
  EXPECT_EQ(net::Topology::ring(6).diameter(), 3u);
  EXPECT_EQ(net::Topology::line(6).diameter(), 5u);
  EXPECT_EQ(net::Topology::star(6).diameter(), 2u);
  EXPECT_EQ(net::Topology::full_mesh(6).diameter(), 1u);
  EXPECT_EQ(net::Topology::binary_tree(7).diameter(), 4u);
  for (auto make : {net::Topology::ring, net::Topology::star,
                    net::Topology::line, net::Topology::full_mesh,
                    net::Topology::binary_tree}) {
    EXPECT_TRUE(make(9).connected());
  }
}

TEST(Topology, HopsFromBfs) {
  const auto t = net::Topology::line(5);
  const auto d = t.hops_from(net::NodeId{0});
  EXPECT_EQ(d, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Topology, Validation) {
  EXPECT_THROW(net::Topology t(0), std::invalid_argument);
  net::Topology t(3);
  EXPECT_THROW(t.add_edge(net::NodeId{0}, net::NodeId{0}),
               std::invalid_argument);
  EXPECT_THROW(t.add_edge(net::NodeId{0}, net::NodeId{9}), std::out_of_range);
  t.add_edge(net::NodeId{0}, net::NodeId{1});
  EXPECT_TRUE(t.has_edge(net::NodeId{1}, net::NodeId{0}));  // undirected
  EXPECT_FALSE(t.connected());                              // node 2 isolated
  EXPECT_THROW(net::HopDelay(t, sim::SimTime::units(0.1)),
               std::invalid_argument);
}

TEST(Topology, HopDelayScalesWithDistance) {
  net::HopDelay d(net::Topology::line(4), sim::SimTime::units(0.1));
  sim::Rng rng(1);
  EXPECT_EQ(d.delay(net::NodeId{0}, net::NodeId{1}, 0, rng),
            sim::SimTime::units(0.1));
  EXPECT_EQ(d.delay(net::NodeId{0}, net::NodeId{3}, 0, rng),
            sim::SimTime::units(0.3));
  EXPECT_EQ(d.delay(net::NodeId{2}, net::NodeId{2}, 0, rng),
            sim::SimTime::ticks(1));
}

TEST(Topology, ArbiterSafeAndLiveOnRingTopology) {
  // The paper claims topology independence: run the algorithm over a ring
  // where broadcast costs scale with hop distance.
  harness::register_builtin_algorithms();
  mutex::ParamSet params;
  params.set("t_fwd", 0.5).set("resubmit_after_misses", 1.0);
  mutex::MutexCluster mc(
      "arbiter-tp", 8, params, sim::SimTime::units(0.1),
      std::make_unique<net::HopDelay>(net::Topology::ring(8),
                                      sim::SimTime::units(0.05)),
      3);
  sim::Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const double when = rng.uniform(0.0, 60.0);
    mc.simulator().schedule_at(sim::SimTime::units(when),
                               [&mc, node] { mc.driver(node).submit(); });
  }
  mc.simulator().run();
  EXPECT_EQ(mc.total_completed(), 200u);
  EXPECT_EQ(mc.monitor().violations(), 0u);
}

/// An n-node arbiter-tp cluster for the closed-loop tests.
mutex::MutexCluster closed_loop_cluster(std::size_t n) {
  harness::register_builtin_algorithms();
  return mutex::MutexCluster(
      "arbiter-tp", n, mutex::ParamSet{}, sim::SimTime::units(0.1),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 2);
}

TEST(ClosedLoop, ZeroThinkTimeSaturatesAtHeavyLoadBound) {
  // Think time ~ 0 reproduces the paper's heavy-load regime exactly: every
  // node always has a pending request, so messages/CS -> 3 - 2/N.
  mutex::MutexCluster mc = closed_loop_cluster(10);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  for (int i = 0; i < 10; ++i) {
    think.push_back(std::make_unique<workload::DeterministicArrivals>(
        sim::SimTime::ticks(1)));
  }
  workload::ClosedLoopGenerator gen(mc.simulator(), mc.drivers(),
                                    std::move(think), 10'000, 4);
  gen.start();
  mc.simulator().run();
  const std::uint64_t done = mc.total_completed();
  EXPECT_EQ(done, 10'000u);
  EXPECT_EQ(mc.monitor().violations(), 0u);
  const double mpc = static_cast<double>(mc.network().stats().sent) /
                     static_cast<double>(done);
  EXPECT_NEAR(mpc, 2.8, 0.15);
}

TEST(ClosedLoop, BoundedPopulation) {
  // A closed loop never queues locally: at most one outstanding demand per
  // node at any time.
  mutex::MutexCluster mc = closed_loop_cluster(4);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  for (int i = 0; i < 4; ++i) {
    think.push_back(std::make_unique<workload::PoissonArrivals>(2.0));
  }
  workload::ClosedLoopGenerator gen(mc.simulator(), mc.drivers(),
                                    std::move(think), 500, 4);
  gen.start();
  mc.simulator().run();
  for (const mutex::CsDriver* d : mc.drivers()) {
    EXPECT_TRUE(d->idle());
    // Sojourn equals service when there is no local queueing.
    EXPECT_NEAR(d->sojourn_time().mean(), d->service_time().mean(), 1e-9);
  }
  EXPECT_EQ(gen.submitted(), 500u);
}

}  // namespace
}  // namespace dmx
