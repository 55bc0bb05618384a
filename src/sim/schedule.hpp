// Scheduler seam: event classification for controlled scheduling.
//
// The simulator normally fires events in (time, seq) order — one fixed
// schedule per seed.  Systematic exploration (src/verify/) instead asks, at
// every step, *which of the currently pending events fires next*.  For the
// controller's choice to be meaningful it has to know what each pending
// event *is*; an EventTag carries that identity alongside the callback:
//
//   - which node the event belongs to (delivery destination, timer owner),
//   - what class of event it is (delivery / timer / CS exit / fault),
//   - a class-specific detail word (msg_id, process-local timer id, CS
//     sequence number) that lets the controller build stable cross-execution
//     signatures.
//
// Tags are pure metadata: the default schedule_at/schedule_after overloads
// attach an empty (kInternal) tag and the normal run() path never reads
// them, so the seeded fast path is unchanged.
#pragma once

#include <cstdint>

namespace dmx::sim {

/// Coarse classification of a scheduled event, from the perspective of a
/// scheduling controller deciding what may fire next.
enum class EventClass : std::uint8_t {
  kInternal = 0,  ///< Untagged bookkeeping (workload arrivals, monitors).
  kDelivery,      ///< A message delivery at its destination node.
  kTimer,         ///< A process-local timer.
  kCsExit,        ///< A critical-section completion (driver release).
};

/// Identity metadata attached to a scheduled event.  `node` is the node the
/// event acts upon (-1 for kInternal); `detail` is class-specific:
/// msg_id for deliveries, process-local timer id for timers, per-node CS
/// sequence for exits.
struct EventTag {
  std::int32_t node = -1;
  EventClass klass = EventClass::kInternal;
  std::uint64_t detail = 0;
};

}  // namespace dmx::sim
