// Simulated message-passing network.
//
// A Network connects N attached MessageHandlers over a full mesh.  Sends are
// asynchronous: the payload is enqueued as a simulator event that fires after
// the DelayModel's latency and invokes the destination handler — unless the
// FaultInjector drops it.  The network never reorders two messages between
// the same (src, dst) pair under a constant delay model, but can under
// jittered models, which is exactly the behaviour distributed algorithms must
// tolerate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/delay_model.hpp"
#include "net/fault_injector.hpp"
#include "net/msg_kind.hpp"
#include "net/payload.hpp"
#include "net/transport.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/counter_map.hpp"
#include "stats/kind_counter.hpp"

namespace dmx::net {

/// Aggregate traffic statistics.  "sent" counts message transmissions (a
/// broadcast to N-1 destinations counts N-1), matching how the paper counts
/// messages per critical-section invocation.  Per-type counts are kept as a
/// dense kind-indexed vector on the send path; name-keyed views are built on
/// demand at table-output time.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< Extra copies injected by the fault layer.
  std::uint64_t bytes_sent = 0;  ///< Sum of payload size_hint()s.
  stats::KindCounter sent_by_kind;

  /// Name-keyed translation of sent_by_kind (cold path; only kinds with a
  /// nonzero count appear, matching the old CounterMap behaviour).
  [[nodiscard]] stats::CounterMap sent_by_type() const;

  void reset() {
    sent = delivered = dropped = duplicated = bytes_sent = 0;
    sent_by_kind.reset();
  }
};

class Network : public Transport {
 public:
  /// Observes every send (after fault adjudication; `dropped` tells the fate).
  using Tap = std::function<void(const Envelope&, bool dropped)>;

  Network(sim::Simulator& sim, std::size_t n_nodes,
          std::unique_ptr<DelayModel> delay, std::uint64_t rng_seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return handlers_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Attach the handler for a node id (must be in range, previously empty).
  void attach(NodeId node, MessageHandler* handler);

  /// Send a payload from src to dst.  Counted even if dropped in flight
  /// (it was "generated"); drops are also counted separately.
  void send(NodeId src, NodeId dst, PayloadPtr payload) override;

  /// Send to every attached node except src.  N-1 transmissions.
  void broadcast(NodeId src, const PayloadPtr& payload) override;

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  NetworkStats& mutable_stats() { return stats_; }

  FaultInjector& faults() { return faults_; }
  sim::Rng& rng() { return rng_; }

  /// Install a tap observing all traffic (tests, message-trace tooling).
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  void deliver(Envelope env);

  sim::Simulator& sim_;
  std::unique_ptr<DelayModel> delay_;
  sim::Rng rng_;
  std::vector<MessageHandler*> handlers_;
  FaultInjector faults_;
  NetworkStats stats_;
  Tap tap_;
  std::uint64_t next_msg_id_ = 1;
};

}  // namespace dmx::net
