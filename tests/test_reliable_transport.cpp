// Reliable transport layer: sliding-window sequencing, dedup (exactly-once
// delivery), retransmission under loss, reorder resequencing, crash-epoch
// fencing, and byte-determinism of lossy runs.  Raw-transport bit-identity
// is pinned separately by test_golden_trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include <memory>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "net/msg_kind.hpp"
#include "net/network.hpp"
#include "net/reliable_transport.hpp"
#include "testbed.hpp"

namespace dmx {
namespace {

using fault::FaultPlan;

// Bare payload for driving a pair of endpoints directly, outside any mutex
// algorithm.
struct ChirpMsg final : net::Msg<ChirpMsg> {
  DMX_REGISTER_MESSAGE(ChirpMsg, "CHIRP");
  int value;
  explicit ChirpMsg(int v) : value(v) {}
};

/// Records every payload an endpoint delivers upward.
class UpperRecorder final : public net::MessageHandler {
 public:
  void on_message(const net::Envelope& env) override {
    received.push_back(env);
  }
  [[nodiscard]] std::size_t count(int value) const {
    std::size_t n = 0;
    for (const auto& env : received) {
      if (const auto* c = env.as<ChirpMsg>(); c != nullptr && c->value == value) ++n;
    }
    return n;
  }
  std::vector<net::Envelope> received;
};

/// Two ReliableEndpoints wired directly onto a raw Network: lets tests
/// script exact frame fates without a mutex algorithm in the way.
struct EndpointPair {
  explicit EndpointPair(net::ReliableTransportConfig cfg, double t_msg = 0.1)
      : net(sim, 2,
            std::make_unique<net::ConstantDelay>(sim::SimTime::units(t_msg)),
            /*rng_seed=*/1),
        ep0(net, net::NodeId{0}, up0, cfg, 11),
        ep1(net, net::NodeId{1}, up1, cfg, 22) {
    net.attach(net::NodeId{0}, &ep0);
    net.attach(net::NodeId{1}, &ep1);
  }

  sim::Simulator sim;
  net::Network net;
  UpperRecorder up0, up1;
  net::ReliableEndpoint ep0, ep1;
};

mutex::ParamSet arbiter_params() {
  mutex::ParamSet p;
  p.set("t_req", 1.0).set("t_fwd", 1.0);
  return p;
}

net::ReliableTransportConfig test_config(double t_msg = 0.1) {
  return net::ReliableTransportConfig::scaled_to(sim::SimTime::units(t_msg));
}

// ------------------------------------------------------------ exactly-once

// The ISSUE's acceptance unit test: inject N wire-duplicates of the frame
// carrying a PRIVILEGE payload; the algorithm must observe it exactly once
// and the endpoint must count exactly N suppressed duplicates.
TEST(ReliableTransport, DuplicatedPrivilegeDeliversExactlyOnce) {
  constexpr std::size_t kDups = 3;
  testbed::MutexCluster tb("arbiter-tp", 5, arbiter_params(), /*t_msg=*/1.0,
                           /*t_exec=*/1.0, /*seed=*/1, test_config(1.0));
  for (std::size_t i = 0; i < kDups; ++i) {
    tb.network().faults().duplicate_next_of_type("PRIVILEGE");
  }
  tb.submit_at(0.0, 1);
  tb.simulator().run();

  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_EQ(tb.network().faults().duplicates_injected(), kDups);
  const net::TransportStats ts = tb.cluster().transport_stats();
  EXPECT_EQ(ts.dup_dropped, kDups);
  const net::MsgKind priv = net::MsgKindRegistry::instance().find("PRIVILEGE");
  ASSERT_TRUE(priv.valid());
  EXPECT_EQ(ts.dup_dropped_by_kind.get(priv.index()), kDups);
}

// A duplicated baseline GRANT behaves the same way: the centralized server's
// grant is delivered once however many copies hit the wire.
TEST(ReliableTransport, DuplicatedGrantDeliversExactlyOnce) {
  constexpr std::size_t kDups = 5;
  testbed::MutexCluster tb("centralized", 4, mutex::ParamSet{}, /*t_msg=*/0.1,
                           /*t_exec=*/0.1, /*seed=*/1, test_config());
  for (std::size_t i = 0; i < kDups; ++i) {
    tb.network().faults().duplicate_next_of_type("C-GRANT");
  }
  tb.submit_at(0.0, 2);
  tb.simulator().run();

  EXPECT_EQ(tb.total_completed(), 1u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_EQ(tb.cluster().transport_stats().dup_dropped, kDups);
}

// ---------------------------------------------------------- loss repair

TEST(ReliableTransport, RetransmissionRepairsTargetedTokenLoss) {
  testbed::MutexCluster tb("suzuki-kasami", 4, mutex::ParamSet{},
                           /*t_msg=*/0.1, /*t_exec=*/0.1, /*seed=*/1,
                           test_config());
  // Without the reliable layer a lost SK-TOKEN wedges the run forever.
  tb.network().faults().drop_next_of_type("SK-TOKEN");
  tb.submit_at(0.0, 1);
  tb.submit_at(0.1, 2);
  tb.simulator().run();

  EXPECT_EQ(tb.total_completed(), 2u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  EXPECT_GE(tb.cluster().transport_stats().retransmits, 1u);
}

TEST(ReliableTransport, SurvivesSustainedLossWindowWithBackoff) {
  testbed::MutexCluster tb("ricart-agrawala", 4, mutex::ParamSet{},
                           /*t_msg=*/0.1, /*t_exec=*/0.1, /*seed=*/7,
                           test_config());
  fault::CampaignRunner campaign(tb.cluster(),
                                 FaultPlan::parse("t=0 loss *=0.4 until=30"));
  campaign.start();
  for (std::size_t i = 0; i < 20; ++i) {
    tb.submit_at(0.2 * static_cast<double>(i), i % 4);
  }
  tb.simulator().run();

  EXPECT_EQ(tb.total_completed(), 20u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  const net::TransportStats ts = tb.cluster().transport_stats();
  EXPECT_GT(ts.retransmits, 0u);
  // 40% loss also eats acks, so some delivered frames are resent and must
  // be suppressed as duplicates on the receive side.
  EXPECT_GT(ts.dup_dropped, 0u);
}

// ------------------------------------------------------------- reordering

TEST(ReliableTransport, ResequencesReorderedFrames) {
  testbed::MutexCluster tb("lamport", 4, mutex::ParamSet{}, /*t_msg=*/0.1,
                           /*t_exec=*/0.1, /*seed=*/3, test_config());
  fault::CampaignRunner campaign(
      tb.cluster(), FaultPlan::parse("reorder-window t=0..20"));
  campaign.start();
  for (std::size_t i = 0; i < 12; ++i) {
    tb.submit_at(0.15 * static_cast<double>(i), i % 4);
  }
  tb.simulator().run();

  EXPECT_EQ(tb.total_completed(), 12u);
  EXPECT_EQ(tb.monitor().violations(), 0u);
  // The reorder fault delays alternate frames past their successors, so the
  // receive side must have parked at least one out-of-order frame.
  EXPECT_GT(tb.cluster().transport_stats().reorder_buffered, 0u);
}

// ------------------------------------------------------------ crash fencing

// A restarted node bumps its epoch: retransmissions addressed to the old
// incarnation are fenced (stale_dropped), never replayed, and the sender
// abandons the dead window instead of retrying forever.
TEST(ReliableTransport, EpochFencesStaleRetransmissionsAcrossRestart) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.n_nodes = 5;
  cfg.lambda = 0.4;
  cfg.total_requests = 120;
  cfg.seed = 11;
  cfg.transport = harness::TransportKind::kReliable;
  cfg.params.set("recovery", 1.0)
      .set("token_timeout", 3.0)
      .set("enquiry_timeout", 1.0)
      .set("arbiter_timeout", 6.0)
      .set("probe_timeout", 1.0)
      .set("resubmit_after_misses", 1.0)
      .set("request_retry_timeout", 5.0);
  cfg.fault_plan = "t=4 loss *=0.5 until=12; t=6 crash 2; t=10 restart 2";
  const harness::ExperimentResult r = harness::run_experiment(cfg);

  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_FALSE(r.stalled) << r.stall_diagnosis;
  EXPECT_TRUE(r.drained);
  // Heavy loss guarantees unacked frames to node 2 at crash time; their
  // retransmissions arrive in the new incarnation and must be fenced.
  EXPECT_GT(r.transport.stale_dropped, 0u);
  EXPECT_GT(r.transport.abandoned, 0u);
}

// A sender that learns of a peer's restart through a fence ack (no data
// from the new incarnation yet) must discard its rx state for the dead
// incarnation immediately: otherwise its next data frame piggybacks the old
// cum into the new epoch and falsely retires fresh frames the restarted
// peer has in flight — permanent loss if those frames were dropped.
TEST(ReliableTransport, FenceDiscardsStaleRxStateSoFreshFramesSurvive) {
  EndpointPair tp(test_config());

  // Three delivered messages leave ep0 holding cum=3 for ep1's stream.
  for (int v = 1; v <= 3; ++v) {
    tp.ep1.send(net::NodeId{1}, net::NodeId{0}, net::make_payload<ChirpMsg>(v));
  }
  tp.sim.run();
  ASSERT_EQ(tp.up0.received.size(), 3u);

  // ep1 restarts; its first fresh frame (seq 1 of epoch 2) and the next two
  // retransmissions are lost in flight.
  tp.ep1.on_crash();
  tp.ep1.on_restart();
  for (int i = 0; i < 3; ++i) {
    tp.net.faults().drop_next_of_type("CHIRP", net::NodeId{1}, net::NodeId{0});
  }
  tp.ep1.send(net::NodeId{1}, net::NodeId{0}, net::make_payload<ChirpMsg>(99));

  // ep0's frame to the dead incarnation provokes the fence ack that teaches
  // it epoch 2 (and abandons this payload — fencing never replays).
  tp.ep0.send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChirpMsg>(7));
  // A later new-epoch frame from ep0 must not carry cum=3 as a valid ack:
  // that would retire ep1's undelivered seq 1 and cancel its retransmission.
  tp.sim.schedule_at(sim::SimTime::units(1.5), [&tp] {
    tp.ep0.send(net::NodeId{0}, net::NodeId{1}, net::make_payload<ChirpMsg>(8));
  });
  tp.sim.run();

  // ep1's surviving retransmission repairs the loss: exactly-once delivery
  // of the post-restart message, and the new-epoch frame from ep0 arrives.
  EXPECT_EQ(tp.up0.count(99), 1u);
  EXPECT_EQ(tp.up1.count(8), 1u);
  EXPECT_EQ(tp.up1.count(7), 0u);  // Fenced old-world payload is abandoned.
  EXPECT_GE(tp.ep0.stats().abandoned, 1u);
  EXPECT_GT(tp.ep1.stats().stale_dropped, 0u);
}

// Retry-cap abandonment against a peer that was merely unreachable (not
// dead) must not wedge the link: abandonment restarts the stream under a
// new generation, so once loss heals the receiver adopts the fresh sequence
// space instead of waiting forever for the abandoned frames to fill a gap.
TEST(ReliableTransport, RetryCapAbandonmentResyncsLiveLinkAfterLossHeals) {
  net::ReliableTransportConfig cfg = test_config();
  cfg.max_retries = 3;  // Hit the cap quickly.
  EndpointPair tp(cfg);

  // A message delivered before the outage pins the receiver's cum at 1.
  tp.ep0.send(net::NodeId{0}, net::NodeId{1},
              net::make_payload<ChirpMsg>(1));
  tp.sim.run();
  ASSERT_EQ(tp.up1.count(1), 1u);

  // Total loss: the next message exhausts its retries and is abandoned.
  tp.net.faults().set_loss_probability(1.0);
  tp.ep0.send(net::NodeId{0}, net::NodeId{1},
              net::make_payload<ChirpMsg>(2));
  tp.sim.run();
  EXPECT_EQ(tp.ep0.stats().abandoned, 1u);
  EXPECT_EQ(tp.up1.count(2), 0u);

  // Loss heals.  Without the generation bump the receiver would park this
  // frame behind the never-arriving abandoned seq and deliver nothing.
  tp.net.faults().set_loss_probability(0.0);
  tp.ep0.send(net::NodeId{0}, net::NodeId{1},
              net::make_payload<ChirpMsg>(3));
  tp.sim.run();
  EXPECT_EQ(tp.up1.count(3), 1u);
  EXPECT_EQ(tp.up1.received.size(), 2u);  // Exactly-once for 1 and 3 only.
}

// ----------------------------------------------------------- determinism

/// FNV-1a-64 of a trace: a compact pin for a long byte string.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A lossy reliable run is a pure function of (seed, config): two identical
// runs produce byte-identical wire traces, timers and jitter included.  The
// trace and the transport counters are also pinned to fixed values, so a
// change to the transport's internals cannot move the event schedule
// unnoticed.
TEST(ReliableTransport, LossyRunIsByteDeterministic) {
  auto run_trace = [](net::TransportStats& stats) {
    testbed::MutexCluster tb("arbiter-tp", 5, arbiter_params(),
                             /*t_msg=*/1.0, /*t_exec=*/1.0, /*seed=*/42,
                             test_config(1.0));
    std::ostringstream os;
    tb.network().set_tap([&](const net::Envelope& env, bool dropped) {
      os << env.sent_at.to_units() << " " << env.src << "->" << env.dst
         << " " << env.payload->describe() << (dropped ? " DROPPED" : "")
         << "\n";
    });
    fault::CampaignRunner campaign(
        tb.cluster(),
        FaultPlan::parse("t=1 loss *=0.2 until=25; reorder-window t=5..15; "
                         "t=3 dup-next REQUEST"));
    campaign.start();
    for (std::size_t i = 0; i < 8; ++i) {
      tb.submit_at(0.7 * static_cast<double>(i), (i * 2) % 5);
    }
    tb.simulator().run();
    EXPECT_EQ(tb.total_completed(), 8u);
    EXPECT_EQ(tb.monitor().violations(), 0u);
    stats = tb.cluster().transport_stats();
    return os.str();
  };
  net::TransportStats stats, rerun_stats;
  const std::string first = run_trace(stats);
  const std::string second = run_trace(rerun_stats);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 93);
  EXPECT_EQ(fnv1a64(first), 0xc75cff1be13f3799ULL);
  EXPECT_EQ(stats.data_sent, 38u);
  EXPECT_EQ(stats.retransmits, 18u);
  EXPECT_EQ(stats.acks_sent, 37u);
  EXPECT_EQ(stats.dup_dropped, 7u);
  EXPECT_EQ(stats.reorder_buffered, 4u);
}

// ------------------------------------------------- every algorithm, lossy

// The ISSUE's headline acceptance: every registered algorithm finishes a
// seeded loss + duplication + reordering campaign with the reliable
// transport — zero stalls, safety intact, all live demand served.
TEST(ReliableTransport, EveryAlgorithmCompletesLossyCampaign) {
  harness::register_builtin_algorithms();
  for (const std::string& name : mutex::Registry::instance().names()) {
    harness::ExperimentConfig cfg;
    cfg.algorithm = name;
    cfg.n_nodes = 5;
    cfg.lambda = 0.3;
    cfg.total_requests = 60;
    cfg.seed = 5;
    cfg.transport = harness::TransportKind::kReliable;
    cfg.fault_plan =
        "t=5 loss *=0.2 until=40; reorder-window t=10..25; "
        "t=12 dup-next RT-ACK";
    const harness::ExperimentResult r = harness::run_experiment(cfg);
    EXPECT_EQ(r.safety_violations, 0u) << name;
    EXPECT_FALSE(r.stalled) << name << ": " << r.stall_diagnosis;
    EXPECT_TRUE(r.drained) << name;
    EXPECT_EQ(r.completed, r.submitted) << name;
  }
}

// The path-reversal baseline keeps exactly one token in flight and has no
// retransmission of its own, so heavy targeted loss of its two message
// types is the worst case the transport must absorb for it.
TEST(ReliableTransport, PathReversalSurvivesTargetedTokenLoss) {
  harness::register_builtin_algorithms();
  harness::ExperimentConfig cfg;
  cfg.algorithm = "path-reversal";
  cfg.n_nodes = 8;
  cfg.lambda = 0.4;
  cfg.total_requests = 120;
  cfg.seed = 9;
  cfg.transport = harness::TransportKind::kReliable;
  cfg.fault_plan =
      "t=2 loss PR-TOKEN=0.4 until=60; t=2 loss PR-REQUEST=0.3 until=60";
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_FALSE(r.stalled) << r.stall_diagnosis;
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.completed, r.submitted);
}

// Raw transport must not grow any reliability state: same run, raw
// transport, all transport counters stay zero.
TEST(ReliableTransport, RawTransportKeepsCountersZero) {
  harness::ExperimentConfig cfg;
  cfg.algorithm = "arbiter-tp";
  cfg.n_nodes = 5;
  cfg.lambda = 0.5;
  cfg.total_requests = 50;
  cfg.seed = 5;
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_EQ(r.transport.data_sent, 0u);
  EXPECT_EQ(r.transport.retransmits, 0u);
  EXPECT_EQ(r.transport.acks_sent, 0u);
  EXPECT_EQ(r.transport.dup_dropped, 0u);
}

}  // namespace
}  // namespace dmx
