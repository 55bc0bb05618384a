// Perpetual token ring (the paper's reference [15], Stallings) — the
// simplest token-based scheme: the token circulates node 0 -> 1 -> ... ->
// N-1 -> 0 forever; a node holding the token may enter its critical
// section.  Message cost is striking at the extremes: unbounded messages
// per CS at light load (the token keeps circling with nobody to serve) and
// exactly 1 message per CS at full saturation — a useful contrast to the
// arbiter algorithm's 3.
//
// Two idle policies:
//  * perpetual (paper-faithful ring): the token hops every T_hop even when
//    idle; we cap accounting noise by stopping circulation after the run
//    drains (the simulator would otherwise never terminate) via an idle
//    shutdown hook the harness drives implicitly — the token parks when a
//    full revolution sees no demand and restarts on the next request
//    (REQUEST-to-parker wakeup, 1 extra message).
#pragma once

#include <optional>

#include "mutex/api.hpp"
#include "runtime/dispatch.hpp"

namespace dmx::baselines {

class TokenRingMutex final : public mutex::MutexAlgorithm {
 public:
  explicit TokenRingMutex(std::size_t n_nodes);

  void request(const mutex::CsRequest& req) override;
  void release() override;
  [[nodiscard]] std::string_view algorithm_name() const override {
    return "token-ring";
  }
  [[nodiscard]] std::string debug_state() const override;

  [[nodiscard]] bool has_token() const { return have_token_; }
  [[nodiscard]] bool parked() const { return have_token_ && parked_; }
  [[nodiscard]] std::optional<bool> holds_token() const override {
    return have_token_;
  }

 protected:
  void on_start() override;
  void handle(const net::Envelope& env) override;

 private:
  // Built in the .cpp, where the protocol's message types live.
  static const runtime::MsgDispatcher<TokenRingMutex>& dispatch_table();

  [[nodiscard]] net::NodeId next_node() const {
    return net::NodeId{
        static_cast<std::int32_t>((id().index() + 1) % n_)};
  }
  void token_arrived(std::uint32_t idle_hops);
  void pass_token(std::uint32_t idle_hops);
  void send_wakeup();
  void arm_wakeup_timer();

  std::size_t n_;
  std::optional<mutex::CsRequest> pending_;
  bool have_token_ = false;
  bool in_cs_ = false;
  bool parked_ = false;  ///< Idle token parked here after a quiet revolution.
  runtime::TimerId dwell_timer_;
  runtime::TimerId wakeup_timer_;
};

}  // namespace dmx::baselines
