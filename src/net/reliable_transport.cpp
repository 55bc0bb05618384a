#include "net/reliable_transport.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "net/events.hpp"

namespace dmx::net {

ReliableTransportConfig ReliableTransportConfig::scaled_to(sim::SimTime t_msg) {
  ReliableTransportConfig cfg;
  cfg.ack_delay = t_msg.scaled(0.5);
  cfg.rto_initial = t_msg.scaled(3.0);
  cfg.rto_max = t_msg.scaled(48.0);
  return cfg;
}

void TransportStats::merge(const TransportStats& o) {
  data_sent += o.data_sent;
  retransmits += o.retransmits;
  acks_sent += o.acks_sent;
  dup_dropped += o.dup_dropped;
  reorder_buffered += o.reorder_buffered;
  stale_dropped += o.stale_dropped;
  abandoned += o.abandoned;
  retrans_by_kind.merge(o.retrans_by_kind);
  dup_dropped_by_kind.merge(o.dup_dropped_by_kind);
}

std::string RtData::describe() const {
  std::ostringstream os;
  os << "RT-DATA seq=" << seq << " g=" << gen << " e=" << src_epoch << ">"
     << dst_epoch << " cum=" << cum_ack << "/g" << ack_gen;
  if (sack_mask != 0) os << " sack=0x" << std::hex << sack_mask << std::dec;
  if (is_retransmit) os << " rtx";
  os << " [" << inner->describe() << "]";
  return os.str();
}

std::string RtAck::describe() const {
  std::ostringstream os;
  os << "RT-ACK e=" << src_epoch << ">" << dst_epoch << " cum=" << cum_ack
     << "/g" << ack_gen;
  if (sack_mask != 0) os << " sack=0x" << std::hex << sack_mask << std::dec;
  return os.str();
}

ReliableEndpoint::ReliableEndpoint(Network& net, NodeId self,
                                   MessageHandler& upper,
                                   ReliableTransportConfig cfg,
                                   std::uint64_t rng_seed, obs::Tracer tracer)
    : net_(net), sim_(net.simulator()), self_(self), upper_(upper), cfg_(cfg),
      rng_(rng_seed), tracer_(std::move(tracer)) {
  if (!self.valid() || self.index() >= net.size()) {
    throw std::out_of_range("ReliableEndpoint: node id out of range");
  }
  // The peer table stays empty until first contact (see peer_state()):
  // endpoints are O(1) to build regardless of cluster size.
}

ReliableEndpoint::PeerState& ReliableEndpoint::peer_state(NodeId peer) {
  if (!index_.empty()) {
    const IndexSlot& slot = find_slot(peer);
    if (slot.peer == peer.value()) return state_at(slot.pos);
  }
  return add_peer(peer);
}

ReliableEndpoint::IndexSlot& ReliableEndpoint::find_slot(NodeId peer) {
  // Fibonacci hashing: the top bits of id * 2^64/phi spread dense and
  // strided ids alike.
  const std::uint64_t key = static_cast<std::uint32_t>(peer.value());
  const std::size_t mask = index_.size() - 1;
  for (auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                         index_shift_);
       ; i = (i + 1) & mask) {
    IndexSlot& slot = index_[i];
    if (slot.peer == peer.value() || slot.peer < 0) return slot;
  }
}

ReliableEndpoint::PeerState& ReliableEndpoint::add_peer(NodeId peer) {
  const std::uint32_t pos = peer_count_;
  if (pos == blocks_.size() * kBlockSize) {
    blocks_.push_back(std::make_unique<PeerState[]>(kBlockSize));
  }
  if (4 * (std::size_t{pos} + 1) > 3 * index_.size()) {
    // Rebuild at twice the size (8 slots at first) from the old slots.
    std::vector<IndexSlot> old(std::max<std::size_t>(8, 2 * index_.size()));
    old.swap(index_);
    index_shift_ = 64 - std::countr_zero(index_.size());
    for (const IndexSlot& slot : old) {
      if (slot.peer >= 0) find_slot(NodeId{slot.peer}) = slot;
    }
  }
  find_slot(peer) = IndexSlot{peer.value(), pos};
  ++peer_count_;
  PeerState& ps = state_at(pos);
  ps.peer = peer;
  return ps;
}

void ReliableEndpoint::push_frame(PeerState& ps, std::uint64_t seq,
                                  PayloadPtr inner) {
  std::uint32_t f = free_frame_;
  if (f != kNoFrame) {
    free_frame_ = frames_[f].next;
  } else {
    f = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  Frame& frame = frames_[f];
  frame.seq = seq;
  frame.inner = std::move(inner);
  frame.retries = 0;
  frame.next = kNoFrame;
  (ps.tail == kNoFrame ? ps.head : frames_[ps.tail].next) = f;
  ps.tail = f;
}

void ReliableEndpoint::release_frame(std::uint32_t f) {
  frames_[f].inner.reset();
  frames_[f].next = free_frame_;
  free_frame_ = f;
}

std::size_t ReliableEndpoint::clear_window(PeerState& ps) {
  std::size_t n = 0;
  for (std::uint32_t f = ps.head; f != kNoFrame; ++n) {
    const std::uint32_t next = frames_[f].next;
    release_frame(f);
    f = next;
  }
  ps.head = kNoFrame;
  ps.tail = kNoFrame;
  return n;
}

std::size_t ReliableEndpoint::window_size(const PeerState& ps) const {
  std::size_t n = 0;
  for (std::uint32_t f = ps.head; f != kNoFrame; f = frames_[f].next) ++n;
  return n;
}

ReliableEndpoint::Parked::const_iterator ReliableEndpoint::first_parked(
    NodeId peer) const {
  const auto it = parked_.lower_bound(ParkKey{peer.value(), 0});
  return it != parked_.end() && it->first.first == peer.value()
             ? it
             : parked_.end();
}

void ReliableEndpoint::drop_parked(NodeId peer) {
  if (parked_.empty()) return;
  parked_.erase(parked_.lower_bound(ParkKey{peer.value(), 0}),
                parked_.upper_bound(ParkKey{peer.value(), UINT64_MAX}));
}

void ReliableEndpoint::emit(obs::EventKind kind, NodeId peer,
                            double value) const {
  if (!tracer_.enabled()) return;
  tracer_.write(obs::Event{sim_.now(), kind, self_.value(), 0,
                           static_cast<std::int64_t>(peer.value()), value});
}

void ReliableEndpoint::send(NodeId src, NodeId dst, PayloadPtr payload) {
  if (src != self_) {
    throw std::invalid_argument("ReliableEndpoint::send: src is not owner");
  }
  if (dst == self_) {
    // Self-traffic needs no reliability machinery (the network never drops
    // or reorders a node's messages to itself); forward raw so delivery
    // timing matches the raw transport exactly.
    net_.send(src, dst, std::move(payload));
    return;
  }
  PeerState& ps = peer_state(dst);
  const std::uint64_t seq = ps.next_seq++;
  push_frame(ps, seq, std::move(payload));
  ++stats_.data_sent;
  transmit(ps, seq, frames_[ps.tail].inner, /*is_retransmit=*/false);
  if (!ps.rto_event.valid() || !sim_.pending(ps.rto_event)) arm_rto(ps);
}

void ReliableEndpoint::broadcast(NodeId src, const PayloadPtr& payload) {
  for (std::size_t i = 0; i < net_.size(); ++i) {
    const NodeId dst{static_cast<std::int32_t>(i)};
    if (dst == src) continue;
    send(src, dst, payload);
  }
}

void ReliableEndpoint::transmit(PeerState& ps, std::uint64_t seq,
                                const PayloadPtr& inner, bool is_retransmit) {
  // Piggyback the reverse-path ack state; a pending delayed ack becomes
  // redundant the moment this frame leaves.
  if (ps.ack_event.valid()) {
    sim_.cancel(ps.ack_event);
    ps.ack_event = sim::EventId{};
  }
  net_.send(self_, ps.peer,
            make_payload<RtData>(epoch_, ps.peer_epoch, ps.tx_gen, seq,
                                 ps.cum, sack_mask(ps), ps.rx_gen,
                                 is_retransmit, inner));
}

void ReliableEndpoint::on_message(const Envelope& env) {
  if (down_) return;
  if (const auto* d = env.as<RtData>()) {
    handle_data(env, *d);
  } else if (const auto* a = env.as<RtAck>()) {
    handle_ack(env.src, *a);
  } else {
    // Unwrapped traffic (self-sends bypass the layer); pass straight up.
    upper_.on_message(env);
  }
}

ReliableEndpoint::PeerState& ReliableEndpoint::note_peer_epoch(
    NodeId peer, std::uint32_t e) {
  PeerState& ps = peer_state(peer);
  if (e <= ps.peer_epoch) return ps;
  // The peer restarted: every unacked frame in the window addresses an
  // incarnation that no longer exists.  Fence — abandon, never replay — and
  // restart the sequence space, matching the fresh rx state the new
  // incarnation holds for us.
  const std::size_t fenced = clear_window(ps);
  emit(kEvRtFence, peer, static_cast<double>(fenced));
  stats_.abandoned += fenced;
  ps.next_seq = 1;
  ps.tx_gen = 1;
  ps.backoffs = 0;
  if (ps.rto_event.valid()) {
    sim_.cancel(ps.rto_event);
    ps.rto_event = sim::EventId{};
  }
  ps.peer_epoch = e;
  // The rx state likewise describes the dead incarnation.  Adopt the new
  // epoch with an empty stream immediately — not at the first data frame
  // from it — because until then every frame we transmit piggybacks
  // cum/sack, and the old incarnation's values would pass the receiver's
  // epoch checks and falsely retire fresh frames it has yet to deliver.
  // Pointing rx_epoch at the new incarnation also fences old-incarnation
  // stragglers still in flight (d.src_epoch < rx_epoch drops them) instead
  // of re-adopting their dead stream.
  ps.rx_epoch = e;
  ps.rx_gen = 0;
  ps.cum = 0;
  drop_parked(peer);
  if (ps.ack_event.valid()) {
    sim_.cancel(ps.ack_event);
    ps.ack_event = sim::EventId{};
  }
  return ps;
}

void ReliableEndpoint::handle_data(const Envelope& env, const RtData& d) {
  // Frames addressed to a previous incarnation of this node are fenced, and
  // the sender is told the current epoch so it stops retransmitting them.
  if (d.dst_epoch != epoch_) {
    ++stats_.stale_dropped;
    ++stats_.acks_sent;
    // Epoch announcement; ack_gen 0 never matches a live stream, so the
    // zero cum/sack can never be applied — only the fence matters.
    net_.send(self_, env.src,
              make_payload<RtAck>(epoch_, d.src_epoch, std::uint32_t{0},
                                  std::uint64_t{0}, std::uint64_t{0}));
    return;
  }
  PeerState& ps = note_peer_epoch(env.src, d.src_epoch);

  if (d.src_epoch < ps.rx_epoch) {  // Old incarnation of the peer.
    ++stats_.stale_dropped;
    return;
  }
  if (d.src_epoch > ps.rx_epoch) {  // New incarnation: fresh sequence space.
    ps.rx_epoch = d.src_epoch;
    ps.rx_gen = d.gen;
    ps.cum = 0;
    drop_parked(ps.peer);
  } else if (d.gen != ps.rx_gen) {
    if (d.gen < ps.rx_gen) {  // Pre-abandonment straggler: dead stream.
      ++stats_.stale_dropped;
      return;
    }
    // The peer hit its retry cap, abandoned its window and restarted its
    // stream under a new generation; adopt the fresh sequence space (any
    // buffered frames belong to the abandoned stream and will never become
    // deliverable).
    ps.rx_gen = d.gen;
    ps.cum = 0;
    drop_parked(ps.peer);
  }

  // Piggybacked ack, valid only for the exact stream our window belongs to:
  // the incarnation it addresses and the generation it numbers.
  if (d.src_epoch == ps.peer_epoch && d.ack_gen == ps.tx_gen) {
    apply_ack(ps, d.cum_ack, d.sack_mask);
  }

  if (d.seq <= ps.cum ||
      (!parked_.empty() && parked_.contains(ParkKey{ps.peer.value(), d.seq}))) {
    // Duplicate (fault-injected copy, or a retransmission whose original
    // got through).  Suppress, but still ack: the sender may be resending
    // precisely because our ack was lost.
    ++stats_.dup_dropped;
    stats_.dup_dropped_by_kind.increment(d.inner->kind().index());
    schedule_ack(ps);
    return;
  }

  if (d.seq != ps.cum + 1) {
    // Out of order: park the frame behind the gap.
    ++stats_.reorder_buffered;
    parked_.emplace(ParkKey{ps.peer.value(), d.seq},
                    Buffered{d.inner, env.sent_at, env.msg_id});
  } else {
    // In order: straight up, then whatever was parked behind the gap this
    // frame filled.  The common case never touches the reorder buffer.
    ++ps.cum;
    deliver(ps, d.inner, env.sent_at, env.msg_id);
    deliver_ready(ps);
  }
  if (down_) return;  // The upcall may have crashed us: no new timers.
  schedule_ack(ps);
}

void ReliableEndpoint::deliver(const PeerState& ps, PayloadPtr inner,
                               sim::SimTime sent_at, std::uint64_t msg_id) {
  Envelope up;
  up.src = ps.peer;
  up.dst = self_;
  up.sent_at = sent_at;
  up.delivered_at = sim_.now();
  up.msg_id = msg_id;
  up.payload = std::move(inner);
  upper_.on_message(up);
}

void ReliableEndpoint::deliver_ready(PeerState& ps) {
  // down_: the upcall may have crashed us (test harnesses).
  while (!down_ && !parked_.empty()) {
    const auto it = first_parked(ps.peer);
    if (it == parked_.end() || it->first.second != ps.cum + 1) return;
    Buffered b = std::move(parked_.extract(it).mapped());
    ++ps.cum;
    deliver(ps, std::move(b.inner), b.sent_at, b.msg_id);
  }
}

void ReliableEndpoint::handle_ack(NodeId peer, const RtAck& a) {
  if (a.dst_epoch != epoch_) {
    ++stats_.stale_dropped;
    return;
  }
  PeerState& ps = note_peer_epoch(peer, a.src_epoch);
  // Acks describing an older incarnation or a pre-abandonment generation
  // number a dead sequence space; applying one could wrongly retire fresh
  // frames that happen to reuse the same seqs.
  if (a.src_epoch == ps.peer_epoch && a.ack_gen == ps.tx_gen) {
    apply_ack(ps, a.cum_ack, a.sack_mask);
  }
}

void ReliableEndpoint::apply_ack(PeerState& ps, std::uint64_t cum,
                                 std::uint64_t sack) {
  // The window is in seq order: retire the cumulatively acked prefix.
  bool progress = false;
  while (ps.head != kNoFrame && frames_[ps.head].seq <= cum) {
    const std::uint32_t f = ps.head;
    ps.head = frames_[f].next;
    release_frame(f);
    progress = true;
  }
  if (ps.head == kNoFrame) ps.tail = kNoFrame;
  if (sack != 0) {
    // Unlink the selectively acked frames; the last one kept is the tail.
    std::uint32_t kept = kNoFrame;
    for (std::uint32_t f = ps.head; f != kNoFrame;) {
      const std::uint64_t seq = frames_[f].seq;
      const std::uint32_t next = frames_[f].next;
      if (seq > cum && seq <= cum + 64 &&
          ((sack >> (seq - cum - 1)) & 1) != 0) {
        (kept == kNoFrame ? ps.head : frames_[kept].next) = next;
        release_frame(f);
        progress = true;
      } else {
        kept = f;
      }
      f = next;
    }
    ps.tail = kept;
  }
  if (!progress) return;
  ps.backoffs = 0;
  if (ps.rto_event.valid()) {
    sim_.cancel(ps.rto_event);
    ps.rto_event = sim::EventId{};
  }
  if (ps.head != kNoFrame) arm_rto(ps);
}

std::uint64_t ReliableEndpoint::sack_mask(const PeerState& ps) const {
  std::uint64_t mask = 0;
  if (parked_.empty()) return mask;
  for (auto it = first_parked(ps.peer);
       it != parked_.end() && it->first.first == ps.peer.value(); ++it) {
    const std::uint64_t seq = it->first.second;
    if (seq > ps.cum + 64) break;  // Map iterates in seq order.
    mask |= 1ULL << (seq - ps.cum - 1);
  }
  return mask;
}

void ReliableEndpoint::schedule_ack(PeerState& ps) {
  if (down_) return;  // Never arm a timer on a crashed endpoint.
  if (ps.ack_event.valid() && sim_.pending(ps.ack_event)) return;
  // Timer callbacks hold the PeerState itself: blocks_ never move it.
  ps.ack_event = sim_.schedule_after(
      cfg_.ack_delay, [this, &ps] { send_standalone_ack(ps); },
      sim::EventTag{self_.value(), sim::EventClass::kTimer,
                    next_timer_id_++});
}

void ReliableEndpoint::send_standalone_ack(PeerState& ps) {
  if (down_) return;
  ps.ack_event = sim::EventId{};
  ++stats_.acks_sent;
  net_.send(self_, ps.peer,
            make_payload<RtAck>(epoch_, ps.rx_epoch, ps.rx_gen, ps.cum,
                                sack_mask(ps)));
}

void ReliableEndpoint::arm_rto(PeerState& ps) {
  // Seeded jitter decorrelates retransmit bursts across endpoints without
  // breaking determinism (each endpoint owns a forked Rng).
  const sim::SimTime delay =
      rto(ps).scaled(1.0 + cfg_.jitter_frac * rng_.uniform01());
  ps.rto_event = sim_.schedule_after(
      delay, [this, &ps] { on_rto(ps); },
      sim::EventTag{self_.value(), sim::EventClass::kTimer, next_timer_id_++});
}

void ReliableEndpoint::on_rto(PeerState& ps) {
  if (down_) return;
  ps.rto_event = sim::EventId{};
  if (ps.head == kNoFrame) return;

  if (frames_[ps.head].retries >= cfg_.max_retries) {
    // Retry cap: presume the peer dead and abandon everything outstanding,
    // restarting the stream under a new generation.  If the peer was in
    // fact alive behind a long loss window, its rx state holds a sequence
    // gap the abandoned frames will never fill; the generation bump makes
    // it adopt a fresh sequence space, so the link resynchronises by
    // itself once loss heals instead of buffering every later frame
    // forever.  If the peer really is dead, the eventual epoch exchange
    // resynchronises as before.
    const std::size_t abandoned = clear_window(ps);
    emit(kEvRtAbandon, ps.peer, static_cast<double>(abandoned));
    stats_.abandoned += abandoned;
    ++ps.tx_gen;
    ps.next_seq = 1;
    ps.backoffs = 0;
    return;
  }
  emit(kEvRtRetransmit, ps.peer, static_cast<double>(window_size(ps)));
  for (std::uint32_t f = ps.head; f != kNoFrame; f = frames_[f].next) {
    Frame& u = frames_[f];
    ++u.retries;
    ++stats_.retransmits;
    stats_.retrans_by_kind.increment(u.inner->kind().index());
    transmit(ps, u.seq, u.inner, /*is_retransmit=*/true);
  }
  if (ps.backoffs == rto_ladder_.size()) {
    rto_ladder_.push_back(
        std::min(rto(ps).scaled(cfg_.backoff_factor), cfg_.rto_max));
  }
  ++ps.backoffs;
  arm_rto(ps);
}

void ReliableEndpoint::on_crash() {
  down_ = true;
  for (std::uint32_t pos = 0; pos < peer_count_; ++pos) {
    PeerState& ps = state_at(pos);
    if (ps.rto_event.valid()) sim_.cancel(ps.rto_event);
    if (ps.ack_event.valid()) sim_.cancel(ps.ack_event);
    ps.rto_event = sim::EventId{};
    ps.ack_event = sim::EventId{};
  }
}

void ReliableEndpoint::on_restart() {
  ++epoch_;
  for (std::uint32_t pos = 0; pos < peer_count_; ++pos) {
    PeerState& ps = state_at(pos);
    // The old incarnation's outbound state dies with it...
    stats_.abandoned += clear_window(ps);
    ps.next_seq = 1;
    ps.tx_gen = 1;
    ps.backoffs = 0;
    // ...and so does its receive state: rx_epoch 0 re-adopts whatever the
    // peer sends next.  peer_epoch survives — it is knowledge about the
    // *peer*, and keeping it avoids a gratuitous fence round-trip.
    ps.rx_epoch = 0;
    ps.rx_gen = 0;
    ps.cum = 0;
  }
  parked_.clear();
  down_ = false;
}

}  // namespace dmx::net
