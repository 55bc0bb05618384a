// Closed-loop workload: each client thinks, requests, executes, thinks again.
//
// The open-loop Poisson model (the paper's) keeps submitting regardless of
// backlog; a closed-loop model — each client cycles think -> request -> CS —
// is the classic alternative (machine-repairman style) and keeps the system
// at a bounded population of at most one pending request per client, which
// matches the paper's heavy-load analysis ("all nodes will have at least
// one pending request") exactly when think time is zero.
//
// Each mutex::CsDriver is one client: the generator owns the drivers'
// completion callbacks and starts the client's next think period from
// there.  The sharded lock service (harness/lock_service.hpp) runs every
// shard's MutexCluster under this generator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mutex/cs_driver.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/arrivals.hpp"

namespace dmx::workload {

class ClosedLoopGenerator {
 public:
  /// Each driver is one client; a client resubmits `think` after each CS
  /// completion.  Stops after `total_requests` global submissions.
  ClosedLoopGenerator(sim::Simulator& sim,
                      std::vector<mutex::CsDriver*> drivers,
                      std::vector<std::unique_ptr<ArrivalProcess>> think,
                      std::uint64_t total_requests, std::uint64_t seed);

  ClosedLoopGenerator(const ClosedLoopGenerator&) = delete;
  ClosedLoopGenerator& operator=(const ClosedLoopGenerator&) = delete;

  void start();

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }

 private:
  void think_then_submit(std::size_t node);

  sim::Simulator& sim_;
  std::vector<mutex::CsDriver*> drivers_;
  std::vector<std::unique_ptr<ArrivalProcess>> think_;
  std::vector<sim::Rng> rngs_;
  std::uint64_t total_requests_;
  std::uint64_t submitted_ = 0;
};

}  // namespace dmx::workload
