// Exhaustive schedule exploration with sleep-set partial-order reduction.
//
// The explorer enumerates every schedule of a VerifyConfig world up to
// max_depth: at each state it takes the enabled choice set (deliveries,
// timers, CS exits, crash / restart / lose-next fault choices), explores
// each in depth-first order, and re-checks the invariants after every
// transition — mutual exclusion and phantom exits via the SafetyMonitor,
// global token uniqueness via MutexAlgorithm::holds_token(), and starvation
// as "pending live demand in a state with no enabled transition".
//
// Pruning is Godefroid-style sleep sets: after exploring choice c at state
// s, every sibling branch inherits c in its sleep set as long as the
// executed transitions stay independent of c (only same-node events
// conflict), so commuting permutations — e.g. deliveries to different nodes
// — are explored once instead of factorially.  States are never stored:
// backtracking replays the committed prefix's stored choices in a fresh
// World (World::replay), each checked against the rebuilt enabled set for
// the same identity, event and time, which keeps the explorer trivially
// correct against any hidden protocol state and turns a nondeterministic
// world into an error instead of a wrong search.
//
// The search stops at the first violation and reports the exact choice-key
// path as a counterexample (see verify/counterexample.hpp for the replay
// file format).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mutex/violation.hpp"
#include "verify/config.hpp"

namespace dmx::verify {

struct ExploreStats {
  std::uint64_t schedules = 0;    ///< Maximal paths examined.
  std::uint64_t transitions = 0;  ///< Fresh transitions executed.
  std::uint64_t replayed = 0;     ///< Prefix transitions re-executed by DFS.
  std::uint64_t sleep_pruned = 0;  ///< Branches skipped via sleep sets.
  std::uint64_t terminal = 0;     ///< Paths ending in a dry / quiescent state.
  std::uint64_t truncated = 0;    ///< Paths cut at max_depth.
  std::uint64_t sleep_blocked = 0;  ///< States whose whole frontier slept.
  std::size_t max_frontier = 0;   ///< Largest enabled set seen.
  std::size_t max_depth_reached = 0;
  bool complete = false;  ///< False if max_schedules capped the search.
};

struct VerifyResult {
  ExploreStats stats;
  /// First invariant violation found, if any (the search stops on it).
  std::optional<mutex::Violation> violation;
  /// Choice keys from the initial state to the violation, in order.
  std::vector<std::string> counterexample;
  /// Per-node state dump captured at the violating state.
  std::string diagnosis;

  [[nodiscard]] bool ok() const { return !violation.has_value(); }
};

/// Runs the exploration.  Deterministic: identical configs produce
/// identical stats, verdicts and counterexamples on every run.
VerifyResult explore(const VerifyConfig& cfg);

}  // namespace dmx::verify
