// Message-delay models.
//
// The paper's analysis assumes a constant delay T_msg between any two nodes;
// its simulation uses the same.  For robustness experiments we also provide
// uniform and exponential jitter.
#pragma once

#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dmx::net {

/// Computes the in-flight latency for a message from src to dst.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  [[nodiscard]] virtual sim::SimTime delay(NodeId src, NodeId dst,
                                           std::size_t size_hint,
                                           sim::Rng& rng) = 0;
};

/// Constant delay between every pair (the paper's T_msg).  Local delivery
/// (src == dst) is instantaneous-but-asynchronous: one tick, preserving the
/// "never call a handler re-entrantly" rule.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(sim::SimTime d) : delay_(d) {}
  sim::SimTime delay(NodeId src, NodeId dst, std::size_t, sim::Rng&) override {
    return src == dst ? sim::SimTime::ticks(1) : delay_;
  }

 private:
  sim::SimTime delay_;
};

/// Uniformly jittered delay in [base, base + jitter).
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(sim::SimTime base, sim::SimTime jitter)
      : base_(base), jitter_(jitter) {}
  sim::SimTime delay(NodeId src, NodeId dst, std::size_t,
                     sim::Rng& rng) override {
    if (src == dst) return sim::SimTime::ticks(1);
    return base_ + rng.uniform_time(sim::SimTime::zero(), jitter_);
  }

 private:
  sim::SimTime base_;
  sim::SimTime jitter_;
};

/// base + Exp(mean) delay — heavy-tailed-ish variability for stress tests
/// (the paper notes real transmission times "depend on the current network
/// and processor loads").
class ExponentialDelay final : public DelayModel {
 public:
  ExponentialDelay(sim::SimTime base, sim::SimTime mean_extra)
      : base_(base), mean_extra_(mean_extra) {}
  sim::SimTime delay(NodeId src, NodeId dst, std::size_t,
                     sim::Rng& rng) override {
    if (src == dst) return sim::SimTime::ticks(1);
    return base_ + rng.exponential_time(mean_extra_);
  }

 private:
  sim::SimTime base_;
  sim::SimTime mean_extra_;
};

}  // namespace dmx::net
