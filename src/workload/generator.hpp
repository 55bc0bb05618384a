// Open-loop workload generator.
//
// Drives each node's CsDriver with an independent arrival process (each
// node gets a forked RNG stream) until a global submission budget is
// exhausted.  The simulation then drains: every submitted request is served
// before the run ends, which doubles as a liveness check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mutex/cs_driver.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"

namespace dmx::workload {

class OpenLoopGenerator {
 public:
  /// Maps a (node, per-node submission index) to a request priority.
  using PriorityFn = std::function<int(std::size_t node, std::uint64_t k)>;

  /// One arrival process per node; `total_requests` is the global budget.
  OpenLoopGenerator(sim::Simulator& sim,
                    std::vector<mutex::CsDriver*> drivers,
                    std::vector<std::unique_ptr<ArrivalProcess>> processes,
                    std::uint64_t total_requests, std::uint64_t seed);

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void set_priority_fn(PriorityFn fn) { priority_fn_ = std::move(fn); }

  /// Schedule the first arrival of every node.  Call before Simulator::run.
  void start();

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }

 private:
  void schedule_next(std::size_t node);

  sim::Simulator& sim_;
  std::vector<mutex::CsDriver*> drivers_;
  std::vector<std::unique_ptr<ArrivalProcess>> processes_;
  std::vector<sim::Rng> rngs_;
  std::vector<std::uint64_t> per_node_count_;
  PriorityFn priority_fn_;
  std::uint64_t total_requests_;
  std::uint64_t submitted_ = 0;
};

}  // namespace dmx::workload
