// One scheduling decision the explorer can take at a state.
//
// A Choice is identified *across executions* by a canonical key built from
// protocol-level facts, never from simulator internals: slot indices, event
// sequence numbers and msg_ids all depend on the order previous choices were
// made in, but "the 2nd REQUEST from node 1 to node 0" or "timer #3 of node
// 2" or "node 0's 1st CS exit" name the same transition on every path that
// enables it.  The key doubles as the serialization in counterexample files
// and as the deterministic sort order of enabled sets.  Re-executing one
// prefix reproduces its event handles too, so the explorer replays stored
// Choices directly (World::replay) rather than matching keys.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"

namespace dmx::verify {

struct Choice {
  enum class Kind : std::uint8_t {
    kFire,   ///< Fire a pending delivery / timer / CS-exit event.
    kDrop,   ///< Consume a lose-next fault choice on a pending delivery.
    kCrash,  ///< Consume a crash fault choice.
    kRestart,  ///< Consume a restart fault choice.
    kPartition,  ///< Consume a one-shot partition-cut fault choice.
    kHeal,       ///< Consume a one-shot heal fault choice.
  };

  Kind kind = Kind::kFire;
  sim::EventClass klass = sim::EventClass::kInternal;

  /// Node the transition acts on: delivery destination, timer / CS-exit
  /// owner, crash / restart target.  The independence relation lives here.
  std::int32_t node = -1;

  // Delivery identity (kDelivery fires and drops).
  std::int32_t src = -1;
  std::string msg_type;
  /// Per-(src, dst, type) occurrence index of the message (kDelivery), the
  /// process-local timer id (kTimer), or the per-node CS sequence (kCsExit).
  std::uint64_t index = 0;

  /// Fault-plan action index backing a kDrop / kCrash / kRestart /
  /// kPartition / kHeal choice.
  std::int32_t action = -1;

  /// Partition groups rendered as "0,1|2" (kPartition only); part of the
  /// choice identity so distinct cuts of the same action never alias.
  std::string groups;

  // --- execution handles, not identity: valid in any execution of the
  // same choice prefix (a deterministic world reproduces them), which is
  // what World::replay() checks ---
  sim::EventId event;   ///< The pending event a kFire / kDrop acts on.
  sim::SimTime time;    ///< Its scheduled firing time.

  /// Canonical identity key: "d 1>0 REQUEST #2", "t 2 #3", "x 0 #1",
  /// "f0 crash 1", "l1 d 0>2 VRF-TOKEN #1", "p0 cut 0,1|2", "h1 heal".
  /// Equal keys = same transition.
  [[nodiscard]] std::string key() const;

  /// Two choices commute: executing them in either order from a state where
  /// both are enabled reaches the same state.  Conservative: only pure
  /// event firings on *different* nodes are declared independent; fault and
  /// drop choices depend on everything (they consume global one-shot fault
  /// state and crash/restart rewires who can receive at all).
  [[nodiscard]] bool independent_with(const Choice& other) const;
};

/// Key equality (identity, ignoring the transient fields).
[[nodiscard]] bool same_choice(const Choice& a, const Choice& b);

}  // namespace dmx::verify
