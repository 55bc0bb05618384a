// Suzuki–Kasami broadcast token algorithm (TOCS 1985).
//
// The direct ancestor of the paper's algorithm ("a reverse Suzuki-Kasami"):
// a requester broadcasts REQUEST(j, n) to everyone (N-1 messages) and the
// token — carrying the last-granted array LN and a FIFO queue — moves
// directly to the next requester (1 message), giving N messages per CS
// versus the paper's ~3.  A node holding the idle token re-enters for free.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mutex/api.hpp"
#include "runtime/dispatch.hpp"

namespace dmx::baselines {

class SuzukiKasamiMutex final : public mutex::MutexAlgorithm {
 public:
  explicit SuzukiKasamiMutex(std::size_t n_nodes);

  void request(const mutex::CsRequest& req) override;
  void release() override;
  [[nodiscard]] std::string_view algorithm_name() const override {
    return "suzuki-kasami";
  }
  [[nodiscard]] std::string debug_state() const override;

  [[nodiscard]] bool has_token() const { return have_token_; }
  [[nodiscard]] std::optional<bool> holds_token() const override {
    return have_token_;
  }

 protected:
  void on_start() override;
  void handle(const net::Envelope& env) override;

 private:
  // Built in the .cpp, where the protocol's message types live.
  static const runtime::MsgDispatcher<SuzukiKasamiMutex>& dispatch_table();

  void try_pass_token();

  std::size_t n_;
  std::vector<std::uint64_t> rn_;  ///< Highest request number seen per node.
  std::optional<mutex::CsRequest> pending_;
  bool have_token_ = false;
  bool in_cs_ = false;

  // Token contents (meaningful while have_token_).
  std::vector<std::uint64_t> ln_;  ///< Last granted request number per node.
  std::deque<net::NodeId> token_queue_;
};

}  // namespace dmx::baselines
