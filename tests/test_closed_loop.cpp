// Tests for the closed-loop workload.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "workload/closed_loop.hpp"

namespace dmx {
namespace {

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
