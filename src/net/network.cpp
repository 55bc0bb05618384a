#include "net/network.hpp"

#include <stdexcept>
#include <string>

namespace dmx::net {

stats::CounterMap NetworkStats::sent_by_type() const {
  return counts_by_name(sent_by_kind);
}

Network::Network(sim::Simulator& sim, std::size_t n_nodes,
                 std::unique_ptr<DelayModel> delay, std::uint64_t rng_seed)
    : sim_(sim), delay_(std::move(delay)), rng_(rng_seed),
      handlers_(n_nodes, nullptr) {
  if (!delay_) throw std::invalid_argument("Network: null delay model");
  if (n_nodes == 0) throw std::invalid_argument("Network: zero nodes");
  // Pre-size the per-kind table to every kind registered so far; the growth
  // branch in increment() then never fires for the common case.
  stats_.sent_by_kind.ensure(MsgKindRegistry::instance().size());
}

void Network::attach(NodeId node, MessageHandler* handler) {
  if (!node.valid() || node.index() >= handlers_.size()) {
    throw std::out_of_range("Network::attach: node id out of range");
  }
  if (!handler) throw std::invalid_argument("Network::attach: null handler");
  handlers_[node.index()] = handler;
}

void Network::send(NodeId src, NodeId dst, PayloadPtr payload) {
  if (!payload) throw std::invalid_argument("Network::send: null payload");
  if (!dst.valid() || dst.index() >= handlers_.size()) {
    throw std::out_of_range("Network::send: destination out of range");
  }
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.sent_at = sim_.now();
  env.msg_id = next_msg_id_++;
  env.payload = std::move(payload);

  const std::size_t bytes = env.payload->size_hint();
  ++stats_.sent;
  stats_.bytes_sent += bytes;
  stats_.sent_by_kind.increment(env.payload->kind().index());

  const bool drop = faults_.should_drop(env, rng_);
  if (tap_) tap_(env, drop);
  if (drop) {
    ++stats_.dropped;
    return;
  }

  const sim::SimTime base = delay_->delay(src, dst, bytes, rng_);
  // An active reorder window routes alternate frames over a 2x-slower path,
  // making them overtake later sends on the same link; zero when inactive.
  const sim::SimTime latency = base + faults_.reorder_penalty(base);
  env.delivered_at = sim_.now() + latency;

  // Fault-layer duplication: each retired duplication one-shot injects one
  // extra copy of this very frame (same msg_id), arriving at the same instant
  // but after the original (FIFO tie-break) — the classic duplicated datagram
  // a reliable transport must suppress.  No-op (and no state touched) when no
  // duplicate one-shots are pending.
  const std::size_t copies = faults_.duplicate_copies(env);
  stats_.duplicated += copies;
  // Deliveries are tagged with (dst, msg_id) so a scheduling controller can
  // identify which in-flight message each pending event carries.
  const sim::EventTag tag{env.dst.value(), sim::EventClass::kDelivery,
                          env.msg_id};
  for (std::size_t c = 0; c < copies; ++c) {
    Envelope copy = env;
    sim_.schedule_after(
        latency,
        [this, copy = std::move(copy)]() mutable { deliver(std::move(copy)); },
        tag);
  }
  // The original goes last among same-instant copies, but identical frames
  // are interchangeable, so delivery order (and every trace) is unchanged —
  // and the common copies==0 case moves instead of copying the envelope.
  sim_.schedule_after(
      latency,
      [this, env = std::move(env)]() mutable { deliver(std::move(env)); },
      tag);
}

void Network::broadcast(NodeId src, const PayloadPtr& payload) {
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    const NodeId dst{static_cast<std::int32_t>(i)};
    if (dst == src) continue;
    send(src, dst, payload);
  }
}

void Network::deliver(Envelope env) {
  // Re-check fate at delivery time: the destination may have crashed while
  // the message was in flight.  The injector counts this drop; a message
  // already dropped at send time never gets here, so each transmission is
  // adjudicated and counted at most once.
  if (faults_.should_drop_at_delivery(env)) {
    ++stats_.dropped;
    return;
  }
  MessageHandler* h = handlers_[env.dst.index()];
  if (h == nullptr) {
    ++stats_.dropped;
    return;
  }
  ++stats_.delivered;
  h->on_message(env);
}

}  // namespace dmx::net
