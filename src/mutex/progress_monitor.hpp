// Global liveness watchdog.
//
// Liveness — pending demand among live nodes eventually becomes a CS entry —
// is, like safety, a global predicate: no single node can distinguish "my
// request is queued behind others" from "the token died and nobody will ever
// be served".  The monitor polls the grant stream on the virtual clock: if
// there is pending demand at live nodes but no critical-section completion
// for a configurable threshold, it declares a stall, dumps a per-node
// diagnosis (each algorithm's debug_state()) and stops the simulator, so a
// dead run fails in simulated seconds instead of silently burning the
// experiment harness's generous wall-clock backstop.
//
// Two detection paths:
//  * threshold stall — demand pending, no completion for stall_threshold.
//  * dry stall — demand pending and the event queue is empty: nothing can
//    ever fire again, so the stall is provable immediately.
//
// The monitor's own polling events stop rescheduling once the system is
// quiet (no pending demand and no other pending events), so it never keeps
// an otherwise-finished simulation alive.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mutex/cs_driver.hpp"
#include "mutex/violation.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dmx::mutex {

class ProgressMonitor {
 public:
  struct Config {
    /// Declare a stall after this long with pending live demand and no
    /// completion.  Must exceed the longest legitimate recovery pause
    /// (token timeout + invalidation rounds) or healthy runs misfire.
    sim::SimTime stall_threshold = sim::SimTime::units(30.0);
    /// Polling period; defaults (when zero) to stall_threshold / 4.
    sim::SimTime check_interval = sim::SimTime::zero();
  };

  ProgressMonitor(sim::Simulator& sim, Config cfg);
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;
  ~ProgressMonitor();

  /// Register one node's driver and algorithm.  Call for every node before
  /// start(); the pointers must outlive the monitor's polling.
  void watch(const CsDriver* driver, const MutexAlgorithm* algo);

  /// Begin polling.  Call after the cluster starts.
  void start();

  /// Stop polling (idempotent; the destructor also cancels).
  void stop();

  [[nodiscard]] bool stalled() const { return stalled_; }
  /// Time the stall was declared.
  [[nodiscard]] sim::SimTime stall_time() const { return stall_time_; }
  /// Multi-line per-node diagnosis captured at the stall instant.
  [[nodiscard]] const std::string& diagnosis() const { return diagnosis_; }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }

  /// Structured report of the declared stall (kStarvation), if any; the
  /// nodes listed are the live nodes whose demand was pending.
  [[nodiscard]] const std::optional<Violation>& violation() const {
    return violation_;
  }

 private:
  struct Watched {
    const CsDriver* driver;
    const MutexAlgorithm* algo;
  };

  void check();
  void schedule_next();
  void declare_stall(bool event_queue_dry);
  /// When the last critical section of any watched driver ended.
  [[nodiscard]] sim::SimTime last_completion() const;
  [[nodiscard]] bool pending_live_demand() const;

  sim::Simulator& sim_;
  Config cfg_;
  std::vector<Watched> watched_;
  bool running_ = false;
  bool stalled_ = false;
  std::uint64_t checks_ = 0;
  /// The last CS completion, or the last poll that found no live demand.
  sim::SimTime last_progress_;
  sim::SimTime stall_time_;
  std::string diagnosis_;
  std::optional<Violation> violation_;
  sim::EventId next_check_;
};

}  // namespace dmx::mutex
