#include "baselines/suzuki_kasami.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmx::baselines {

namespace {

struct SkRequestMsg final : net::Msg<SkRequestMsg> {
  DMX_REGISTER_MESSAGE(SkRequestMsg, "SK-REQUEST");
  net::NodeId node;
  std::uint64_t n;
  SkRequestMsg(net::NodeId j, std::uint64_t seq) : node(j), n(seq) {}
};

struct SkTokenMsg final : net::Msg<SkTokenMsg> {
  DMX_REGISTER_MESSAGE(SkTokenMsg, "SK-TOKEN");
  std::vector<std::uint64_t> ln;
  std::deque<net::NodeId> queue;
  [[nodiscard]] std::size_t size_hint() const override {
    return ln.size() * 8 + queue.size() * 4;
  }
};

}  // namespace

SuzukiKasamiMutex::SuzukiKasamiMutex(std::size_t n_nodes)
    : n_(n_nodes), rn_(n_nodes, 0), ln_(n_nodes, 0) {}

void SuzukiKasamiMutex::on_start() {
  if (id().value() == 0) have_token_ = true;  // Node 0 starts with the token.
}

std::string SuzukiKasamiMutex::debug_state() const {
  std::string out = "suzuki-kasami: token=";
  out += have_token_ ? "held" : "no";
  if (in_cs_) out += " in-cs";
  if (pending_) {
    out += " pending(req " + std::to_string(pending_->request_id) + ", seq " +
           std::to_string(rn_[id().index()]) + ")";
  }
  if (have_token_) {
    out += " token-queue={";
    for (std::size_t i = 0; i < token_queue_.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(token_queue_[i].value());
    }
    out += "}";
  }
  return out;
}

void SuzukiKasamiMutex::request(const mutex::CsRequest& req) {
  if (pending_.has_value()) {
    throw std::logic_error("SuzukiKasami::request: already pending");
  }
  pending_ = req;
  ++rn_[id().index()];
  if (have_token_ && !in_cs_) {
    in_cs_ = true;
    grant(*pending_);
    return;  // zero messages: idle token holder re-enters directly
  }
  auto msg = net::make_payload<SkRequestMsg>(id(), rn_[id().index()]);
  broadcast(msg);
}

void SuzukiKasamiMutex::release() {
  in_cs_ = false;
  pending_.reset();
  ln_[id().index()] = rn_[id().index()];
  // Append every node whose latest request is not yet granted and not
  // already queued.
  for (std::size_t j = 0; j < n_; ++j) {
    const net::NodeId nj{static_cast<std::int32_t>(j)};
    if (nj == id()) continue;
    if (rn_[j] == ln_[j] + 1 &&
        std::find(token_queue_.begin(), token_queue_.end(), nj) ==
            token_queue_.end()) {
      token_queue_.push_back(nj);
    }
  }
  try_pass_token();
}

void SuzukiKasamiMutex::try_pass_token() {
  if (!have_token_ || in_cs_ || token_queue_.empty()) return;
  const net::NodeId next = token_queue_.front();
  token_queue_.pop_front();
  auto tok = net::make_payload_mut<SkTokenMsg>();
  tok->ln = ln_;
  tok->queue = token_queue_;
  have_token_ = false;
  token_queue_.clear();
  send(next, std::move(tok));
}

const runtime::MsgDispatcher<SuzukiKasamiMutex>&
SuzukiKasamiMutex::dispatch_table() {
  static const auto kTable = [] {
    runtime::MsgDispatcher<SuzukiKasamiMutex> t;
    t.set(SkRequestMsg::message_kind(),
          [](SuzukiKasamiMutex& self, const net::Envelope& env) {
            const auto& req = static_cast<const SkRequestMsg&>(*env.payload);
            auto& rn = self.rn_[req.node.index()];
            rn = std::max(rn, req.n);
            if (self.have_token_ && !self.in_cs_ &&
                rn == self.ln_[req.node.index()] + 1) {
              self.token_queue_.push_back(req.node);
              self.try_pass_token();
            }
          });
    t.set(SkTokenMsg::message_kind(),
          [](SuzukiKasamiMutex& self, const net::Envelope& env) {
            const auto& tok = static_cast<const SkTokenMsg&>(*env.payload);
            self.have_token_ = true;
            self.ln_ = tok.ln;
            self.token_queue_ = tok.queue;
            if (self.pending_.has_value() && !self.in_cs_) {
              self.in_cs_ = true;
              self.grant(*self.pending_);
            } else {
              // Spurious token arrival (cannot normally happen): pass it on.
              self.try_pass_token();
            }
          });
    return t;
  }();
  return kTable;
}

void SuzukiKasamiMutex::handle(const net::Envelope& env) {
  if (!dispatch_table().dispatch(*this, env)) {
    throw std::logic_error("SuzukiKasami: unknown message");
  }
}

}  // namespace dmx::baselines
