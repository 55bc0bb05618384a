#include "baselines/token_ring.hpp"

#include <stdexcept>

namespace dmx::baselines {

namespace {

struct RingTokenMsg final : net::Msg<RingTokenMsg> {
  DMX_REGISTER_MESSAGE(RingTokenMsg, "RING-TOKEN");
  std::uint32_t idle_hops;  ///< Consecutive hops without serving a CS.
  explicit RingTokenMsg(std::uint32_t h) : idle_hops(h) {}
};

/// Travels the ring looking for a parked token.
struct RingWakeupMsg final : net::Msg<RingWakeupMsg> {
  DMX_REGISTER_MESSAGE(RingWakeupMsg, "RING-WAKEUP");
  std::uint32_t hops;
  explicit RingWakeupMsg(std::uint32_t h) : hops(h) {}
};

/// The dwell time at an uninterested node before passing the token on.
constexpr sim::SimTime kHopDwell = sim::SimTime::ticks(20'000);  // 0.02 units

}  // namespace

TokenRingMutex::TokenRingMutex(std::size_t n_nodes) : n_(n_nodes) {
  if (n_nodes == 0) throw std::invalid_argument("TokenRing: zero nodes");
}

std::string TokenRingMutex::debug_state() const {
  std::string out = "token-ring: token=";
  out += have_token_ ? (parked_ ? "parked-here" : "held") : "no";
  if (in_cs_) out += " in-cs";
  if (pending_) out += " pending(req " + std::to_string(pending_->request_id) + ")";
  return out;
}

void TokenRingMutex::on_start() {
  if (id().value() == 0) {
    // The token starts parked at node 0 (no demand yet).
    have_token_ = true;
    parked_ = true;
  }
}

void TokenRingMutex::request(const mutex::CsRequest& req) {
  if (pending_.has_value()) {
    throw std::logic_error("TokenRing::request: already pending");
  }
  pending_ = req;
  if (have_token_ && !in_cs_) {
    cancel_timer(dwell_timer_);
    parked_ = false;
    in_cs_ = true;
    grant(*pending_);
    return;
  }
  // The token may be parked somewhere after a quiet revolution: wait one
  // revolution for a circulating token, then chase a parked one with a
  // wakeup that forwards along the ring until it finds the holder.  Keep
  // re-sending each revolution until served: a wakeup can race past the
  // token just before it parks.
  arm_wakeup_timer();
}

void TokenRingMutex::arm_wakeup_timer() {
  const sim::SimTime revolution =
      (kHopDwell + sim::SimTime::units(0.2)) * static_cast<std::int64_t>(n_);
  wakeup_timer_ = set_timer(revolution, [this] { send_wakeup(); });
}

void TokenRingMutex::send_wakeup() {
  if (!pending_.has_value() || have_token_) return;
  send(next_node(), net::make_payload<RingWakeupMsg>(0u));
  arm_wakeup_timer();
}

void TokenRingMutex::release() {
  in_cs_ = false;
  pending_.reset();
  pass_token(0);
}

void TokenRingMutex::pass_token(std::uint32_t idle_hops) {
  have_token_ = false;
  parked_ = false;
  send(next_node(), net::make_payload<RingTokenMsg>(idle_hops));
}

void TokenRingMutex::token_arrived(std::uint32_t idle_hops) {
  have_token_ = true;
  cancel_timer(wakeup_timer_);
  if (pending_.has_value() && !in_cs_) {
    in_cs_ = true;
    grant(*pending_);
    return;  // release() passes the token on with idle_hops = 0
  }
  if (idle_hops + 1 >= n_) {
    // A full revolution with no demand: park here until a wakeup arrives.
    parked_ = true;
    return;
  }
  dwell_timer_ =
      set_timer(kHopDwell, [this, idle_hops] { pass_token(idle_hops + 1); });
}

const runtime::MsgDispatcher<TokenRingMutex>&
TokenRingMutex::dispatch_table() {
  static const auto kTable = [] {
    runtime::MsgDispatcher<TokenRingMutex> t;
    t.set(RingTokenMsg::message_kind(),
          [](TokenRingMutex& self, const net::Envelope& env) {
            const auto& tok = static_cast<const RingTokenMsg&>(*env.payload);
            self.token_arrived(tok.idle_hops);
          });
    t.set(RingWakeupMsg::message_kind(),
          [](TokenRingMutex& self, const net::Envelope& env) {
            const auto& wake =
                static_cast<const RingWakeupMsg&>(*env.payload);
            if (self.have_token_) {
              if (self.parked_ && !self.in_cs_) {
                self.parked_ = false;
                self.pass_token(0);  // resume circulation toward the requester
              }
              return;  // the token is moving or busy: the wakeup is moot
            }
            if (wake.hops + 1 < self.n_) {
              self.send(self.next_node(),
                        net::make_payload<RingWakeupMsg>(wake.hops + 1));
            }
          });
    return t;
  }();
  return kTable;
}

void TokenRingMutex::handle(const net::Envelope& env) {
  if (!dispatch_table().dispatch(*this, env)) {
    throw std::logic_error("TokenRing: unknown message");
  }
}

}  // namespace dmx::baselines
