// Configuration of one exhaustive small-N verification run.
//
// A VerifyConfig describes a *closed* system: every node submits its whole
// demand at t=0 (no stochastic arrivals, no seeds — the explorer itself is
// the only source of nondeterminism), message delay and CS execution time
// are constants, and an optional fault plan contributes crash / restart /
// lose-next *choices* rather than timed actions.  The explorer then owns
// every remaining decision: which pending delivery, timer or CS exit fires
// next, and when each fault choice strikes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mutex/params.hpp"

namespace dmx::verify {

struct VerifyConfig {
  std::string algorithm = "arbiter-tp";
  std::size_t n_nodes = 3;            ///< Exhaustive exploration: keep <= 4.
  std::uint64_t requests_per_node = 1;
  double t_msg = 0.1;                 ///< Constant network delay (units).
  double t_exec = 0.1;                ///< Constant CS hold time (units).
  mutex::ParamSet params;             ///< Algorithm parameters.

  /// Fault-plan spec (fault/fault_plan.hpp grammar).  Only the crash,
  /// restart, lose-next, partition and heal verbs are allowed; the t= times
  /// are parsed but ignored — each action becomes an always-available
  /// *choice* the explorer may take at any reachable state (or never; a
  /// heal choice is enabled only while a cut is in force).
  std::string fault_plan;

  /// Time-window abstraction: a pending event is an enabled choice iff its
  /// scheduled time is within `time_slack` units of the earliest pending
  /// event.  0 explores only same-instant races (pure FIFO tie-breaks),
  /// negative values explore full asynchrony (any pending event may fire
  /// next, as if every delay were arbitrary).  The default covers one
  /// message delay plus scheduling jitter around it.
  double time_slack = 0.25;

  /// Model links as FIFO: only the oldest in-flight message per (src, dst)
  /// link is an enabled choice.  Matches the constant-delay network the
  /// harness runs (which never reorders a link); turn off to explore
  /// per-link reordering too.
  bool fifo_links = true;

  /// Run every node behind the reliable transport (acks, retransmission,
  /// exactly-once in-order delivery) with jitter disabled, so lose-next
  /// choices attack transport frames and the explorer proves the
  /// reliability layer itself — not the protocol's own loss tolerance.
  bool reliable = false;

  std::size_t max_depth = 48;         ///< Truncate schedules beyond this.
  std::uint64_t max_schedules = 2'000'000;  ///< Exploration budget.

  /// Empty when well-formed; one message per problem otherwise.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// validate(), throwing std::invalid_argument on any problem.  Returns
  /// the fault plan's actions, parsed by the same pass, so a caller that
  /// builds many worlds from one config parses the plan once.
  std::vector<fault::FaultAction> check() const;
};

}  // namespace dmx::verify
