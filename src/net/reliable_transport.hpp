// Per-peer sliding-window reliability layer between Process and Network.
//
// The raw network is a fair-weather datagram service: the FaultInjector may
// drop, duplicate or reorder any frame.  The paper handles that inside the
// arbiter protocol itself (Section 6 timeouts and NEW-ARBITER enquiry); the
// other baselines assume lossless FIFO channels and simply stall when a
// PRIVILEGE or REPLY evaporates.  A ReliableEndpoint gives every algorithm
// the transport those papers assume:
//
//   * monotonic per-(src,dst) sequence numbers on RT-DATA frames;
//   * cumulative + selective acks, piggybacked on reverse-path data and
//     otherwise sent standalone after a delayed-ack timer;
//   * retransmission on a per-peer timer with exponential backoff, seeded
//     deterministic jitter, and a retry cap (the peer is presumed dead and
//     the window abandoned under a fresh stream generation — see below);
//   * receive-side dedup and reorder buffering, so the algorithm above
//     observes exactly-once, in-order delivery per peer.
//
// Crash fencing.  Sequence numbers only mean something within one
// incarnation of each endpoint, so every frame carries an epoch pair:
// src_epoch (the sender's incarnation) and dst_epoch (the sender's view of
// the receiver's).  A restarted node bumps its epoch; frames addressed to a
// previous incarnation are counted stale_dropped and answered with a
// standalone RT-ACK announcing the new epoch, which makes the sender fence:
// abandon its window, restart its sequence space, and drop every piece of
// rx state it holds for the dead incarnation (so a piggybacked ack can
// never carry the old incarnation's cum/sack into the new one and falsely
// retire fresh frames).  Acks are likewise only applied when they describe
// the exact stream the current window belongs to.
//
// Stream generations.  Retry-cap abandonment clears the window; against a
// peer that was merely unreachable (a long loss window) rather than dead,
// the receiver would then hold a sequence gap nothing will ever fill and
// every later frame would buffer forever.  So each (src, dst, epoch) stream
// carries a generation number: abandonment bumps the sender's generation
// and restarts its sequence space, and a receiver seeing a newer generation
// adopts a fresh sequence space (the abandoned payloads are lost — that is
// what the retry cap means — but the link resynchronises by itself the
// moment loss heals).  Acks name the generation they describe and are
// ignored by a sender that has since moved on.
//
// Everything is deterministic: timers run on the simulation clock and
// retransmit jitter comes from a seeded per-endpoint Rng, so a (seed,
// config) pair fully determines a lossy run — golden traces hold.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/payload.hpp"
#include "net/transport.hpp"
#include "obs/tracer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/kind_counter.hpp"

namespace dmx::net {

/// Reliability-layer tuning.  Defaults suit the paper's T_msg = 0.1 units;
/// scaled_to() derives the same proportions for any message delay.
struct ReliableTransportConfig {
  sim::SimTime ack_delay = sim::SimTime::units(0.05);    ///< Delayed-ack wait.
  sim::SimTime rto_initial = sim::SimTime::units(0.3);   ///< First timeout.
  sim::SimTime rto_max = sim::SimTime::units(4.8);       ///< Backoff ceiling.
  double backoff_factor = 2.0;   ///< RTO multiplier per consecutive timeout.
  double jitter_frac = 0.1;      ///< RTO *= 1 + jitter_frac * U[0,1).
  int max_retries = 12;          ///< Retransmissions per frame before abandon.

  /// Proportional defaults for a given one-way message delay: half a delay
  /// of ack batching, an RTO of three delays (one round trip plus slack),
  /// and a ceiling that keeps a dead peer from being probed forever.
  [[nodiscard]] static ReliableTransportConfig scaled_to(sim::SimTime t_msg);
};

/// Reliability-plane counters for one endpoint (merged per cluster for the
/// sweep tables).  Per-kind counters are indexed by the *inner* payload kind,
/// so "retransmits of PRIVILEGE" is a first-class statistic.
struct TransportStats {
  /// Pre-sizes the per-kind tables to every registered kind (same policy as
  /// NetworkStats): the growth branch in increment() never fires mid-run.
  TransportStats() {
    const std::size_t n = MsgKindRegistry::instance().size();
    retrans_by_kind.ensure(n);
    dup_dropped_by_kind.ensure(n);
  }

  std::uint64_t data_sent = 0;     ///< Fresh RT-DATA frames.
  std::uint64_t retransmits = 0;   ///< RT-DATA frames resent on timeout.
  std::uint64_t acks_sent = 0;     ///< Standalone RT-ACK frames.
  std::uint64_t dup_dropped = 0;   ///< Frames suppressed as duplicates.
  std::uint64_t reorder_buffered = 0;  ///< Out-of-order frames parked.
  std::uint64_t stale_dropped = 0;     ///< Wrong-epoch frames fenced.
  std::uint64_t abandoned = 0;     ///< Payloads given up at the retry cap
                                   ///< or fenced by an epoch change.
  stats::KindCounter retrans_by_kind;      ///< By inner payload kind.
  stats::KindCounter dup_dropped_by_kind;  ///< By inner payload kind.

  void merge(const TransportStats& o);
};

/// Sequenced data frame.  Wraps one algorithm payload; fault configuration
/// keyed by message type matches the inner payload (fault_target()).
struct RtData final : Msg<RtData> {
  DMX_REGISTER_MESSAGE(RtData, "RT-DATA");

  RtData(std::uint32_t se, std::uint32_t de, std::uint32_t g,
         std::uint64_t sequence, std::uint64_t cum, std::uint64_t sack,
         std::uint32_t ag, bool rtx, PayloadPtr payload)
      : src_epoch(se), dst_epoch(de), gen(g), seq(sequence), cum_ack(cum),
        sack_mask(sack), ack_gen(ag), is_retransmit(rtx),
        inner(std::move(payload)) {}

  std::uint32_t src_epoch;
  std::uint32_t dst_epoch;
  std::uint32_t gen;        ///< Sender's stream generation for seq.
  std::uint64_t seq;
  std::uint64_t cum_ack;    ///< Reverse path: all peer seqs <= this received.
  std::uint64_t sack_mask;  ///< Bit i: peer seq cum_ack+1+i received.
  std::uint32_t ack_gen;    ///< Generation of the reverse-path stream that
                            ///< cum_ack/sack_mask describe.
  bool is_retransmit;
  PayloadPtr inner;

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t size_hint() const override {
    return 36 + inner->size_hint();  // epochs + gens + seq + cum/sack + flag.
  }
  [[nodiscard]] const Payload& fault_target() const override { return *inner; }
};

/// Standalone acknowledgement (delayed-ack timer fired, or an epoch
/// announcement in reply to a stale frame).
struct RtAck final : Msg<RtAck> {
  DMX_REGISTER_MESSAGE(RtAck, "RT-ACK");

  RtAck(std::uint32_t se, std::uint32_t de, std::uint32_t ag,
        std::uint64_t cum, std::uint64_t sack)
      : src_epoch(se), dst_epoch(de), ack_gen(ag), cum_ack(cum),
        sack_mask(sack) {}

  std::uint32_t src_epoch;
  std::uint32_t dst_epoch;
  std::uint32_t ack_gen;  ///< Generation of the stream cum_ack describes.
  std::uint64_t cum_ack;
  std::uint64_t sack_mask;

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::size_t size_hint() const override { return 28; }
};

/// One node's end of the reliability layer.  Implements Transport for the
/// Process above it and MessageHandler for the Network below it; the Cluster
/// attaches it to the network in place of the Process and points the
/// Process's transport at it.
class ReliableEndpoint final : public Transport, public MessageHandler {
 public:
  /// `tracer` (optional) receives transport.retransmit / .abandon / .fence
  /// events so retransmission storms and fencing show up on run timelines.
  ReliableEndpoint(Network& net, NodeId self, MessageHandler& upper,
                   ReliableTransportConfig cfg, std::uint64_t rng_seed,
                   obs::Tracer tracer = {});
  // Pending timers hold `this` and PeerState addresses.
  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  // Transport: downcalls from the Process.  src must equal the owning node.
  void send(NodeId src, NodeId dst, PayloadPtr payload) override;
  void broadcast(NodeId src, const PayloadPtr& payload) override;

  // MessageHandler: raw frames up from the Network.
  void on_message(const Envelope& env) override;

  /// Crash lifecycle, driven by the Cluster in lockstep with the Process.
  /// on_restart() bumps the epoch and must run before the Process's own
  /// restart hook, so rejoin traffic already carries the new incarnation.
  void on_crash();
  void on_restart();

  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

 private:
  static constexpr std::uint32_t kNoFrame = UINT32_MAX;

  /// One unacked frame in the endpoint's frame pool: either on exactly one
  /// peer's window, linked in seq order through `next`, or on the free list.
  struct Frame {
    std::uint64_t seq = 0;
    PayloadPtr inner;
    std::int32_t retries = 0;
    std::uint32_t next = kNoFrame;
  };
  struct Buffered {
    PayloadPtr inner;
    sim::SimTime sent_at;
    std::uint64_t msg_id;
  };
  /// What a loss-free frame to or from one peer touches, in one cache
  /// line.  The window is a run of frames_ from head to tail, the reorder
  /// buffer is the peer's run of parked_, and the current timeout is
  /// rto(ps).
  struct alignas(64) PeerState {
    NodeId peer;
    // --- transmit side.
    std::uint32_t peer_epoch = 1;  ///< Our view of the peer's incarnation.
    std::uint32_t tx_gen = 1;  ///< Our stream generation (bumps on abandon).
    std::uint32_t head = kNoFrame;  ///< Oldest unacked frame, or kNoFrame.
    std::uint32_t tail = kNoFrame;  ///< Newest unacked frame, or kNoFrame.
    std::uint32_t backoffs = 0;  ///< Timeouts since the RTO last reset.
    std::uint64_t next_seq = 1;
    sim::EventId rto_event;
    // --- receive side.
    std::uint32_t rx_epoch = 0;  ///< Incarnation this rx state belongs to.
    std::uint32_t rx_gen = 0;    ///< Generation of the peer stream we track.
    std::uint64_t cum = 0;       ///< Highest contiguously delivered seq.
    sim::EventId ack_event;      ///< Pending delayed-ack timer.
  };
  static_assert(sizeof(PeerState) == 64, "one peer, one cache line");
  struct IndexSlot {
    std::int32_t peer = -1;  ///< -1 marks an empty slot.
    std::uint32_t pos = 0;   ///< First-contact position of the PeerState.
  };
  /// Parked frames are keyed by (peer id, seq): one peer's buffer is a
  /// contiguous run of the map, in seq order.
  using ParkKey = std::pair<std::int32_t, std::uint64_t>;
  using Parked = std::map<ParkKey, Buffered>;

  void handle_data(const Envelope& env, const RtData& d);
  void handle_ack(NodeId peer, const RtAck& a);

  /// Record a newly observed peer incarnation; if it is newer than the one
  /// our window addresses, fence: abandon the window, restart the sequence
  /// space (the new incarnation's rx state starts from zero), and discard
  /// our own rx state for the dead incarnation so no stale cum/sack is ever
  /// piggybacked — or acked standalone — into the new one.  Returns the
  /// peer's state, so each frame costs one peer lookup.
  PeerState& note_peer_epoch(NodeId peer, std::uint32_t e);

  /// Retire window entries covered by (cum, sack); on progress the RTO
  /// resets to its initial value.
  void apply_ack(PeerState& ps, std::uint64_t cum, std::uint64_t sack);

  /// Hand one frame's payload to the protocol above.
  void deliver(const PeerState& ps, PayloadPtr inner, sim::SimTime sent_at,
               std::uint64_t msg_id);
  /// Deliver the parked frames that have become contiguous.
  void deliver_ready(PeerState& ps);
  void transmit(PeerState& ps, std::uint64_t seq, const PayloadPtr& inner,
                bool is_retransmit);
  void schedule_ack(PeerState& ps);
  void send_standalone_ack(PeerState& ps);
  void arm_rto(PeerState& ps);
  void on_rto(PeerState& ps);
  void emit(obs::EventKind kind, NodeId peer, double value) const;
  [[nodiscard]] std::uint64_t sack_mask(const PeerState& ps) const;

  /// Window operations on the frame pool.  clear_window returns the number
  /// of frames it dropped.
  void push_frame(PeerState& ps, std::uint64_t seq, PayloadPtr inner);
  void release_frame(std::uint32_t f);
  std::size_t clear_window(PeerState& ps);
  [[nodiscard]] std::size_t window_size(const PeerState& ps) const;

  /// The first frame parked for `peer`, or parked_.end().
  [[nodiscard]] Parked::const_iterator first_parked(NodeId peer) const;
  void drop_parked(NodeId peer);

  /// The peer's current timeout: rto_initial, or the rung of rto_ladder_
  /// its consecutive timeouts have climbed to.
  [[nodiscard]] sim::SimTime rto(const PeerState& ps) const {
    return ps.backoffs == 0 ? cfg_.rto_initial : rto_ladder_[ps.backoffs - 1];
  }

  /// Per-peer state materializes on first contact: a node talks to O(active
  /// peers), not O(N), so a 100k-node cluster is not forced into N^2
  /// PeerStates at construction.
  PeerState& peer_state(NodeId peer);
  PeerState& add_peer(NodeId peer);
  PeerState& state_at(std::uint32_t pos) {
    return blocks_[pos >> kBlockShift][pos & (kBlockSize - 1)];
  }
  /// The index slot holding `peer`, or the empty slot where it belongs.
  /// index_ must be non-empty.
  IndexSlot& find_slot(NodeId peer);

  Network& net_;
  sim::Simulator& sim_;
  NodeId self_;
  MessageHandler& upper_;
  ReliableTransportConfig cfg_;
  sim::Rng rng_;
  obs::Tracer tracer_;
  std::uint32_t epoch_ = 1;
  bool down_ = false;
  /// PeerStates in first-contact order, kBlockSize to a block.  A block
  /// never moves, so a PeerState& (and the timer callbacks that hold one)
  /// stays valid while the table grows, even across an upcall that
  /// contacts a new peer.
  static constexpr std::uint32_t kBlockShift = 4;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  std::vector<std::unique_ptr<PeerState[]>> blocks_;
  std::uint32_t peer_count_ = 0;
  /// Open-addressing index into the blocks, keyed by peer id: linear
  /// probing over a power-of-two table kept at most 3/4 full.  Peers are
  /// never removed, so there are no tombstones.
  std::vector<IndexSlot> index_;
  int index_shift_ = 64;  ///< 64 - log2(index_.size()), for hashing.
  /// Every peer's unacked frames, recycled through a free list: the pool
  /// is as large as the most frames ever outstanding at once, not the sum
  /// of every peer's deepest window.  Frames are named by index, so growth
  /// may move them.
  std::vector<Frame> frames_;
  std::uint32_t free_frame_ = kNoFrame;
  /// Out-of-order frames only: an in-order frame goes straight up, so a
  /// loss-free run never touches this.
  Parked parked_;
  /// rto_ladder_[k - 1] is the timeout after k consecutive timeouts,
  /// min(previous * backoff_factor, rto_max), multiplied out one step at a
  /// time exactly as a running value would be.  Shared by every peer and
  /// grown by the first peer to climb a rung; a retry cap bounds it.
  std::vector<sim::SimTime> rto_ladder_;
  TransportStats stats_;
  /// Timer identity for controlled scheduling (src/verify/): ack and RTO
  /// timers are tagged kTimer like process timers, but in a disjoint detail
  /// namespace so transport and protocol timers can never share a choice
  /// key on the same node.
  static constexpr std::uint64_t kTimerIdBase = 1u << 20;
  std::uint64_t next_timer_id_ = kTimerIdBase;
};

}  // namespace dmx::net
