// Global safety invariant checker.
//
// Mutual exclusion's safety property — at most one node inside the critical
// section at any instant — is a *global* predicate that cannot be soundly
// checked from inside any single node.  The deterministic simulator lets us
// check it exactly: drivers report every CS entry/exit and the monitor
// tracks concurrency.
//
// Violations become structured Violation reports (mutex/violation.hpp).
// Policy decides what happens when one fires: kCollect records it and keeps
// going (the explorer and chaos campaigns read reports() afterwards);
// kFailFast additionally throws, turning the first violation into an
// immediate test failure with the full description in the exception.
#pragma once

#include <cstdint>
#include <vector>

#include "mutex/violation.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace dmx::mutex {

class SafetyMonitor {
 public:
  enum class Policy : std::uint8_t {
    kCollect,   ///< Record violations; callers assert on reports() later.
    kFailFast,  ///< Record, then throw std::logic_error immediately.
  };

  /// Cap on stored reports: a badly broken algorithm can violate on every
  /// entry, and the count is what matters beyond the first few examples.
  static constexpr std::size_t kMaxReports = 64;

  explicit SafetyMonitor(Policy policy = Policy::kCollect) : policy_(policy) {}

  void on_enter(net::NodeId node, sim::SimTime t);
  void on_exit(net::NodeId node, sim::SimTime t);

  [[nodiscard]] std::uint64_t entries() const { return entries_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] int current_occupancy() const { return occupancy_; }
  [[nodiscard]] int max_occupancy() const { return max_occupancy_; }

  /// Structured reports, in detection order (first kMaxReports kept).
  [[nodiscard]] const std::vector<Violation>& reports() const {
    return reports_;
  }

 private:
  void record_violation(Violation v);

  Policy policy_;
  int occupancy_ = 0;
  int max_occupancy_ = 0;
  net::NodeId occupant_;
  std::uint64_t entries_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<Violation> reports_;
};

}  // namespace dmx::mutex
