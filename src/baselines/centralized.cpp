#include "baselines/centralized.hpp"

#include <stdexcept>

namespace dmx::baselines {

namespace {

struct CRequestMsg final : net::Msg<CRequestMsg> {
  DMX_REGISTER_MESSAGE(CRequestMsg, "C-REQUEST");
  std::uint64_t request_id;
  explicit CRequestMsg(std::uint64_t id) : request_id(id) {}
};

struct CGrantMsg final : net::Msg<CGrantMsg> {
  DMX_REGISTER_MESSAGE(CGrantMsg, "C-GRANT");
  std::uint64_t request_id;
  explicit CGrantMsg(std::uint64_t id) : request_id(id) {}
};

struct CReleaseMsg final : net::Msg<CReleaseMsg> {
  DMX_REGISTER_MESSAGE(CReleaseMsg, "C-RELEASE");
};

}  // namespace

std::string CentralizedMutex::debug_state() const {
  std::string out = "centralized: ";
  out += id() == kCoordinator ? "coordinator" : "client";
  if (pending_) out += " pending(req " + std::to_string(pending_->request_id) + ")";
  if (id() == kCoordinator) {
    out += resource_busy_ ? " busy" : " free";
    out += " queue={";
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(queue_[i].node.value());
    }
    out += "}";
  }
  return out;
}

void CentralizedMutex::request(const mutex::CsRequest& req) {
  if (pending_.has_value()) {
    throw std::logic_error("CentralizedMutex::request: already pending");
  }
  pending_ = req;
  if (id() == kCoordinator) {
    queue_.push_back(Waiting{id(), req.request_id});
    coordinator_grant_next();
    return;
  }
  send(kCoordinator, net::make_payload<CRequestMsg>(req.request_id));
}

void CentralizedMutex::release() {
  pending_.reset();
  if (id() == kCoordinator) {
    resource_busy_ = false;
    coordinator_grant_next();
    return;
  }
  send(kCoordinator, net::make_payload<CReleaseMsg>());
}

void CentralizedMutex::coordinator_grant_next() {
  if (resource_busy_ || queue_.empty()) return;
  const Waiting w = queue_.front();
  queue_.pop_front();
  resource_busy_ = true;
  if (w.node == id()) {
    grant(*pending_);
    return;
  }
  send(w.node, net::make_payload<CGrantMsg>(w.request_id));
}

const runtime::MsgDispatcher<CentralizedMutex>&
CentralizedMutex::dispatch_table() {
  static const auto kTable = [] {
    runtime::MsgDispatcher<CentralizedMutex> t;
    t.set(CRequestMsg::message_kind(),
          [](CentralizedMutex& self, const net::Envelope& env) {
            const auto& req = static_cast<const CRequestMsg&>(*env.payload);
            self.queue_.push_back(Waiting{env.src, req.request_id});
            self.coordinator_grant_next();
          });
    t.set(CReleaseMsg::message_kind(),
          [](CentralizedMutex& self, const net::Envelope&) {
            self.resource_busy_ = false;
            self.coordinator_grant_next();
          });
    t.set(CGrantMsg::message_kind(),
          [](CentralizedMutex& self, const net::Envelope& env) {
            const auto& g = static_cast<const CGrantMsg&>(*env.payload);
            if (self.pending_.has_value() &&
                self.pending_->request_id == g.request_id) {
              self.grant(*self.pending_);
            }
          });
    return t;
  }();
  return kTable;
}

void CentralizedMutex::handle(const net::Envelope& env) {
  if (!dispatch_table().dispatch(*this, env)) {
    throw std::logic_error("CentralizedMutex: unknown message");
  }
}

}  // namespace dmx::baselines
