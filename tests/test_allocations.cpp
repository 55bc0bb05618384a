// Zero-allocation regression tests for the pooled message plane.
//
// These tests pin the contract of net/pool.hpp: once a cluster is warmed up
// (pool slabs stocked, per-node containers at steady-state capacity), the
// send -> deliver -> dispatch path performs no global heap allocations, and
// a broadcast costs exactly one pooled payload no matter the fan-out.  The
// reliable transport's in-order frame (send, deliver, delayed ack, retire)
// and its warm broadcast are held to the same zero.  PRIVILEGE QList copies are out of scope: a privilege transfer carries a
// std::vector batch by design, so the full-cycle test asserts that the pool
// absorbs all *payload* allocations (heap_served stays zero) rather than
// that vectors never allocate.
//
// All tests skip under the std::allocator fallback (ASan/TSan builds): the
// fallback intentionally routes every payload through the global heap so
// sanitizers see each object.
#include "allocation_guard.hpp"  // must precede any allocation (one TU only)

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/cs_driver.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "net/payload.hpp"
#include "net/pool.hpp"
#include "net/reliable_transport.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx {
namespace {

/// Minimal registered payload for pure network-layer tests.
struct PingMsg final : net::Msg<PingMsg> {
  DMX_REGISTER_MESSAGE(PingMsg, "TEST-PING");
};

/// Counting sink for raw Network tests.
struct CountingHandler final : net::MessageHandler {
  int delivered = 0;
  void on_message(const net::Envelope&) override { ++delivered; }
};

/// A cluster of `algorithm` nodes with per-node drivers and no tracing (a
/// trace sink would allocate per event and mask the property under test).
struct QuietCluster {
  runtime::Cluster cluster;
  mutex::RequestIdSource ids;
  std::vector<mutex::MutexAlgorithm*> algos;
  std::vector<std::unique_ptr<mutex::CsDriver>> drivers;

  QuietCluster(const std::string& algorithm, std::size_t n,
               const std::vector<double>& t_exec)
      : cluster(n,
                std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
                /*seed=*/1, obs::Tracer{}) {
    harness::register_builtin_algorithms();
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId nid{static_cast<std::int32_t>(i)};
      mutex::FactoryContext ctx{nid, n, mutex::ParamSet{}};
      auto algo = mutex::Registry::instance().create(algorithm, ctx);
      algos.push_back(algo.get());
      cluster.install(nid, std::move(algo));
      drivers.push_back(std::make_unique<mutex::CsDriver>(
          cluster.simulator(), *algos.back(),
          sim::SimTime::units(t_exec[i % t_exec.size()]), nullptr, &ids));
    }
    cluster.start();
  }

  sim::Simulator& sim() { return cluster.simulator(); }

  /// Serial warm-up: each node runs `rounds` solo critical sections, widely
  /// spaced, so every node has held the token/arbiter role and every
  /// container (pool buckets, simulator slots, arbiter queues, timers) is at
  /// steady-state capacity.
  void warm_up(int rounds) {
    double t = sim().now().to_units() + 1.0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < drivers.size(); ++i) {
        sim().schedule_at(sim::SimTime::units(t),
                          [this, i] { drivers[i]->submit(); });
        t += 2.0;
      }
    }
    sim().run_until(sim::SimTime::units(t + 5.0));
  }

  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t c = 0;
    for (const auto& d : drivers) c += d->completed();
    return c;
  }
};

TEST(Allocations, NetworkBroadcastIsOnePooledPayload) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // A small cluster, and a real fan-out whose 999 deliveries share one
  // delay and so queue in a simulator lane ring rather than the heap.
  for (const std::size_t n : {std::size_t{8}, std::size_t{1000}}) {
    SCOPED_TRACE(n);
    sim::Simulator sim;
    net::Network net(
        sim, n, std::make_unique<net::ConstantDelay>(sim::SimTime::units(1)),
        /*seed=*/7);
    std::vector<CountingHandler> sinks(n);
    for (std::size_t i = 0; i < n; ++i) {
      net.attach(net::NodeId{static_cast<std::int32_t>(i)}, &sinks[i]);
    }
    // Warm-up round: stocks the pool bucket and grows the simulator's slot
    // vectors and lane ring to broadcast capacity.
    net.broadcast(net::NodeId{0}, net::make_payload<PingMsg>());
    sim.run();

    const auto before = net::payload_alloc_stats();
    testutil::AllocationGuard guard;
    net.broadcast(net::NodeId{0}, net::make_payload<PingMsg>());
    sim.run();
    const auto after = net::payload_alloc_stats();

    EXPECT_EQ(guard.count(), 0u) << "broadcast hit the global heap";
    EXPECT_EQ(after.pool_served - before.pool_served, 1u)
        << "broadcast should cost exactly one pooled payload";
    EXPECT_EQ(after.live, before.live) << "payload leaked after delivery";
    for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(sinks[i].delivered, 2);
    EXPECT_EQ(sinks[0].delivered, 0) << "self-delivery is not expected";
  }
}

TEST(Allocations, ArbiterRequestPathIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  QuietCluster tb("arbiter-tp", 5, {0.1});
  tb.warm_up(3);
  const std::uint64_t warm_completed = tb.completed();
  ASSERT_EQ(warm_completed, 15u);

  // Pick any node that is not the current arbiter: its submit sends one
  // REQUEST message to the arbiter.  We stop the clock right after delivery
  // (t_msg = 0.1, collection window t_req = 0.1), so the measured segment is
  // exactly send -> deliver -> enqueue-at-arbiter.
  std::size_t requester = tb.algos.size();
  for (std::size_t i = 0; i < tb.algos.size(); ++i) {
    if (!dynamic_cast<core::ArbiterMutex*>(tb.algos[i])->is_arbiter()) {
      requester = i;
      break;
    }
  }
  ASSERT_LT(requester, tb.algos.size());

  const double t0 = tb.sim().now().to_units();
  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  tb.drivers[requester]->submit();
  tb.sim().run_until(sim::SimTime::units(t0 + 0.15));
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u)
      << "steady-state REQUEST send/deliver/dispatch allocated";
  EXPECT_EQ(after.pool_served - before.pool_served, 1u);
  EXPECT_EQ(after.heap_served, before.heap_served);

  tb.sim().run();  // drain: privilege transfer, CS, new-arbiter broadcast
  EXPECT_EQ(tb.completed(), warm_completed + 1);
}

TEST(Allocations, SuzukiKasamiRequestBroadcastIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // Node 0 runs a long critical section; node 2 broadcasts SK-REQUEST into
  // it.  Every receiver only bumps its request counter, so the measured
  // segment is the pure broadcast fan-out.
  constexpr std::size_t kN = 6;
  QuietCluster tb("suzuki-kasami", kN, {50.0, 0.1, 0.1, 0.1, 0.1, 0.1});
  // Warm-up: one remote acquisition (node 1) exercises the full message
  // path once — broadcast, token transfer, and the lazily-built static
  // dispatch table — then hands the token back to node 0.
  tb.sim().schedule_at(sim::SimTime::units(1.0),
                       [&tb] { tb.drivers[1]->submit(); });
  tb.sim().schedule_at(sim::SimTime::units(2.0),
                       [&tb] { tb.drivers[0]->submit(); });
  tb.sim().run_until(sim::SimTime::units(4.0));  // node 0 now inside its CS
  ASSERT_EQ(tb.completed(), 1u);  // node 1 done; node 0 holds the CS

  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  tb.drivers[2]->submit();
  tb.sim().run_until(sim::SimTime::units(5.0));  // all N-1 deliveries done
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u) << "SK-REQUEST broadcast allocated";
  EXPECT_EQ(after.pool_served - before.pool_served, 1u)
      << "broadcast to N-1 nodes should cost one pooled payload";
  EXPECT_EQ(after.live, before.live);

  tb.sim().run();  // drain: node 0 exits, token travels to node 2
  EXPECT_EQ(tb.completed(), 3u);
}

TEST(Allocations, ReliableInOrderFrameIsZeroAlloc) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // Two endpoints on a lossless network: one in-order frame costs the
  // RT-DATA send, its RTO timer, the delivery upcall, the delayed-ack timer,
  // the standalone RT-ACK, and the retirement of the frame from the window.
  sim::Simulator sim;
  net::Network net(sim, 2,
                   std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
                   /*seed=*/7);
  CountingHandler up0, up1;
  const auto cfg =
      net::ReliableTransportConfig::scaled_to(sim::SimTime::units(0.1));
  net::ReliableEndpoint ep0(net, net::NodeId{0}, up0, cfg, 11);
  net::ReliableEndpoint ep1(net, net::NodeId{1}, up1, cfg, 22);
  net.attach(net::NodeId{0}, &ep0);
  net.attach(net::NodeId{1}, &ep1);
  // Warm-up: materializes both peer states, stocks the pool buckets and
  // grows the window and simulator slots to steady-state capacity.
  for (int i = 0; i < 3; ++i) {
    ep0.send(net::NodeId{0}, net::NodeId{1}, net::make_payload<PingMsg>());
    sim.run();
  }

  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  ep0.send(net::NodeId{0}, net::NodeId{1}, net::make_payload<PingMsg>());
  sim.run();
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u) << "in-order reliable frame allocated";
  EXPECT_EQ(up1.delivered, 4);
  EXPECT_EQ(ep1.stats().acks_sent, 4u) << "the frame was not acked";
  EXPECT_EQ(sim.pending_count(), 0u) << "the frame was not retired";
  EXPECT_EQ(after.live, before.live) << "payload leaked after retirement";
}

TEST(Allocations, ReliableBroadcastIsZeroAllocOnceWarm) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // One endpoint broadcasting to 63 peer endpoints, the path every
  // NEW-ARBITER broadcast takes behind the reliable transport: 63 RT-DATA
  // frames and RTO timers, 63 deliveries, 63 delayed acks and standalone
  // RT-ACKs, 63 retirements.  Once every peer state exists, the peer index
  // and the frame pool are at size and the simulator's slots are stocked,
  // a broadcast run to drain allocates nothing, however often it repeats.
  constexpr std::size_t kN = 64;
  sim::Simulator sim;
  net::Network net(sim, kN,
                   std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
                   /*seed=*/7);
  const auto cfg =
      net::ReliableTransportConfig::scaled_to(sim::SimTime::units(0.1));
  std::vector<CountingHandler> ups(kN);
  std::vector<std::unique_ptr<net::ReliableEndpoint>> eps;
  for (std::size_t i = 0; i < kN; ++i) {
    const net::NodeId id{static_cast<std::int32_t>(i)};
    eps.push_back(std::make_unique<net::ReliableEndpoint>(net, id, ups[i],
                                                          cfg, 100 + i));
    net.attach(id, eps.back().get());
  }
  const net::NodeId src{0};
  for (int round = 0; round < 2; ++round) {
    eps[0]->broadcast(src, net::make_payload<PingMsg>());
    sim.run();
  }

  const auto before = net::payload_alloc_stats();
  testutil::AllocationGuard guard;
  for (int round = 0; round < 2; ++round) {
    eps[0]->broadcast(src, net::make_payload<PingMsg>());
    sim.run();
  }
  const auto after = net::payload_alloc_stats();

  EXPECT_EQ(guard.count(), 0u) << "warm reliable broadcast allocated";
  EXPECT_EQ(sim.pending_count(), 0u) << "a frame was not retired";
  EXPECT_EQ(after.live, before.live) << "payload leaked after retirement";
  EXPECT_EQ(ups[0].delivered, 0);
  for (std::size_t i = 1; i < kN; ++i) {
    EXPECT_EQ(ups[i].delivered, 4) << "peer " << i;
    EXPECT_EQ(eps[i]->stats().acks_sent, 4u) << "peer " << i;
  }
  EXPECT_EQ(eps[0]->stats().retransmits, 0u);
}

TEST(Allocations, PoolAbsorbsAllPayloadChurn) {
  if (!net::payload_pool_enabled()) {
    GTEST_SKIP() << "std::allocator fallback active (sanitizer build)";
  }
  // Full protocol cycles, including PRIVILEGE transfers and NEW-ARBITER
  // broadcasts: every payload must come from the pool (heap_served frozen)
  // and every payload must go back (live returns to baseline).
  QuietCluster tb("arbiter-tp", 5, {0.1});
  tb.warm_up(2);

  const auto before = net::payload_alloc_stats();
  tb.warm_up(4);
  const auto after = net::payload_alloc_stats();

  EXPECT_GT(after.pool_served, before.pool_served);
  EXPECT_EQ(after.heap_served, before.heap_served)
      << "a payload bypassed the pool";
  EXPECT_EQ(after.live, before.live) << "payloads leaked across cycles";
  EXPECT_EQ(tb.completed(), 30u);
}

}  // namespace
}  // namespace dmx
