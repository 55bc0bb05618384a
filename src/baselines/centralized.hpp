// Centralized coordinator mutual exclusion.
//
// The classic 3-messages-per-CS reference point (REQUEST -> GRANT ->
// RELEASE) that the paper's "approximately 3 messages at high load" is
// implicitly measured against.  Node 0, the coordinator, queues requests FCFS
// and grants one at a time; its own requests are free.
#pragma once

#include <deque>
#include <optional>

#include "mutex/api.hpp"
#include "runtime/dispatch.hpp"

namespace dmx::baselines {

class CentralizedMutex final : public mutex::MutexAlgorithm {
 public:
  void request(const mutex::CsRequest& req) override;
  void release() override;
  [[nodiscard]] std::string_view algorithm_name() const override {
    return "centralized";
  }
  [[nodiscard]] std::string debug_state() const override;

 protected:
  void handle(const net::Envelope& env) override;

 private:
  struct Waiting {
    net::NodeId node;
    std::uint64_t request_id;
  };

  // Built in the .cpp, where the protocol's message types live.
  static const runtime::MsgDispatcher<CentralizedMutex>& dispatch_table();

  void coordinator_grant_next();

  static constexpr net::NodeId kCoordinator{0};

  std::optional<mutex::CsRequest> pending_;

  // Coordinator state.
  std::deque<Waiting> queue_;
  bool resource_busy_ = false;
};

}  // namespace dmx::baselines
