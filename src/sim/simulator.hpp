// Discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and the set of scheduled events.  Events
// fire in (time, seq) order: equal times fire in scheduling order (FIFO
// tie-breaking via a monotonically increasing sequence number), which makes
// runs deterministic.
//
// Event storage is flat: callbacks live in a slot vector recycled through a
// free list, and an EventId packs (slot, generation) so cancellation and
// pending checks are one bounds-checked compare — no hash map, and at steady
// state (slots, heap and lanes at high-water capacity) scheduling an event is
// allocation-free.  Cancellation is O(1): the slot is freed immediately
// (bumping its generation) and the queued entry is skipped lazily when popped.
//
// Ordering entries live in a binary heap plus a few FIFO lanes.  A lane holds
// events that share one delay d = t - now(), such as a broadcast's N-1
// deliveries at T_msg.  Each later call sees the same or a later now() and a
// larger seq, so a lane fills already sorted by (time, seq) and is a ring
// buffer with O(1) push and pop.  (The clock steps back only when step()
// follows an out-of-order fire(); an entry that would land before its lane's
// tail then goes to the heap.)  A lane opens on the second of two consecutive
// schedule calls with the same delay, which is what a fan-out does; one-off
// delays (Poisson arrivals, jittered timers) stay in the heap.  The run loops
// fire the earliest of the heap top and the lane heads, which is exactly the
// order a single heap gives.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/schedule.hpp"
#include "sim/time.hpp"

namespace dmx::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return id_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class Simulator;
  constexpr explicit EventId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// One pending event as seen by a scheduling controller: its handle, when
/// the default schedule would fire it, its FIFO tie-break rank, and its
/// identity tag.  Snapshot only — firing or cancelling any event invalidates
/// previously collected views.
struct PendingEvent {
  EventId id;
  SimTime time;
  std::uint64_t seq = 0;
  EventTag tag;
};

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator sim;
///   sim.schedule_after(SimTime::units(1.0), [] { ... });
///   sim.run();
class Simulator {
 public:
  using Callback = SmallFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (must be >= now()), with an
  /// identity tag that a scheduling controller (collect_pending/fire) can
  /// inspect.  The callable is built directly in its event slot.  If that
  /// throws (a copy of an lvalue may), the exception propagates and the
  /// slot is returned: nothing is scheduled.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn, EventTag tag = {}) {
    if (t < now_) {
      throw std::logic_error("Simulator::schedule_at: time is in the past");
    }
    const std::uint32_t slot = take_slot();
    try {
      slots_[slot].fn.emplace(std::forward<F>(fn));
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    if (!slots_[slot].fn) {
      free_slots_.push_back(slot);
      throw std::invalid_argument("Simulator::schedule_at: empty callback");
    }
    return enqueue(slot, t, tag);
  }

  /// Schedule `fn` to run `delay` after now() (delay must be >= 0).
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn, EventTag tag = {}) {
    return schedule_at(now_ + delay, std::forward<F>(fn), tag);
  }

  /// Cancel a pending event.  Returns true if the event was still pending.
  bool cancel(EventId id);

  /// True if the given event is still pending (scheduled and not yet fired).
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id.id_);
    return id.id_ != 0 && slot < slots_.size() &&
           slots_[slot].gen == gen_of(id.id_);
  }

  /// Run the next pending event, if any.  Returns false when the queue is
  /// empty (after draining any cancelled entries).
  bool step();

  /// Run until the event queue is empty or stop() is called.
  void run();

  /// Run events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of events currently pending (excludes cancelled ones).
  [[nodiscard]] std::size_t pending_count() const { return pending_; }

  /// Snapshot every pending event into `out` (cleared first), sorted by the
  /// default firing order (time, seq).  Scheduler-seam entry point: a
  /// controller picks one and calls fire() on it.  O(slots) scan — verify
  /// worlds are tiny, so simplicity wins over an indexed structure.
  void collect_pending(std::vector<PendingEvent>& out) const;

  /// Fire one specific pending event *now*, out of the default order.  The
  /// clock jumps forward to the event's scheduled time if that is later than
  /// now() (it never goes backwards: an out-of-order choice means earlier
  /// pending events will fire "late", which is exactly the asynchrony being
  /// explored).  Returns false if the event is no longer pending.
  bool fire(EventId id);

  /// Pre-size the heap, the slot vector and its free list for an expected
  /// number of simultaneously pending events (large-N clusters reserve once
  /// instead of growing).  Lane rings are not pre-sized: each grows on first
  /// use to its high-water mark and keeps that capacity, so a warmed-up
  /// fan-out schedules without allocating.
  void reserve(std::size_t events);

  /// Hard backstop on total events executed (0 = unlimited).  run() and
  /// run_until() stop once the budget is exhausted while work remains, and
  /// event_limit_hit() reports it; a runaway schedule then fails with a
  /// diagnosis instead of spinning forever.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  [[nodiscard]] std::uint64_t event_limit() const { return event_limit_; }

  /// True if a run stopped because the event budget ran out with events
  /// still pending.
  [[nodiscard]] bool event_limit_hit() const { return event_limit_hit_; }

 private:
  /// One queued event, in the heap or in a lane.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;  ///< Packed (generation, slot+1), as in EventId.
    // Min-heap via std::push_heap/pop_heap, which build a max-heap: invert.
    friend bool operator<(const Entry& a, const Entry& b) {
      return earlier(b, a);
    }
    friend bool earlier(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  /// A FIFO of entries that share one delay, sorted by (time, seq) by
  /// construction.  `ring` has power-of-two capacity and never shrinks (a
  /// std::deque would allocate and free blocks as it cycles); `size` counts
  /// live and cancelled entries alike, and a lane with size 0 is free for
  /// any delay.
  struct Lane {
    SimTime delay;
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    [[nodiscard]] const Entry& front() const { return ring[head]; }
    [[nodiscard]] const Entry& back() const {
      return ring[(head + size - 1) & (ring.size() - 1)];
    }
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
    void push_back(const Entry& e) {
      if (size == ring.size()) grow();
      ring[(head + size) & (ring.size() - 1)] = e;
      ++size;
    }
    /// Unrolls the ring into one twice the size, oldest entry first.
    void grow();
  };

  /// The benchmark workloads never hold more than two lanes open at once
  /// (T_msg plus one timer delay), so four leave room to spare.
  static constexpr unsigned kLanes = 4;
  /// earliest() results besides a lane index.
  static constexpr unsigned kHeap = kLanes;
  static constexpr unsigned kNone = kLanes + 1;

  /// A scheduled (or recycled) callback.  `gen` counts lifetimes: it is
  /// bumped when the slot is vacated, so a stale EventId can never match.
  /// time/seq/tag mirror the queued entry so a controller can enumerate
  /// pending events without touching the heap or the lanes.
  struct EventSlot {
    Callback fn;
    std::uint32_t gen = 0;
    SimTime time;
    std::uint64_t seq = 0;
    EventTag tag;
  };

  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (std::uint64_t{slot} + 1);
  }
  static constexpr std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t gen_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// A vacant slot for a new event, from the free list or appended.
  std::uint32_t take_slot() {
    if (free_slots_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  /// Queues the event whose callback `slot` now holds: fills in the slot's
  /// time, seq and tag, and pushes its entry onto a lane or the heap.
  EventId enqueue(std::uint32_t slot, SimTime t, EventTag tag);

  /// Vacate a slot: destroy the callback, invalidate outstanding ids, and
  /// make the slot reusable.
  void free_slot(std::uint32_t slot) {
    slots_[slot].fn = Callback{};
    ++slots_[slot].gen;
    free_slots_.push_back(slot);
    --pending_;
  }

  [[nodiscard]] bool live(std::uint64_t id) const {
    return slots_[slot_of(id)].gen == gen_of(id);
  }

  /// The lane an event at `t` joins, or nullptr for the heap.  A lane open
  /// for this delay takes it if that keeps the lane sorted (it always does
  /// unless step() has moved the clock back after an out-of-order fire());
  /// otherwise a free lane opens when the previous call had the same delay.
  Lane* lane_for(SimTime delay, SimTime t);

  /// Drops cancelled entries at the front of the heap and of every lane, and
  /// returns where the earliest pending entry sits: a lane index, kHeap, or
  /// kNone when nothing is pending.
  unsigned earliest();

  [[nodiscard]] const Entry& front(unsigned src) const {
    return src == kHeap ? heap_.front() : lanes_[src].front();
  }

  /// Pops the front entry of `src` (an earliest() result) and runs it.
  void run_front(unsigned src);

  /// True once the event budget is spent; used by run loops.
  [[nodiscard]] bool budget_exhausted() const {
    return event_limit_ != 0 && events_executed_ >= event_limit_;
  }

  SimTime now_ = SimTime::zero();
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool event_limit_hit_ = false;
  std::size_t pending_ = 0;
  std::vector<Entry> heap_;
  std::array<Lane, kLanes> lanes_;
  /// Delay of the previous schedule call; no delay is negative.
  SimTime last_delay_ = SimTime::ticks(-1);
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace dmx::sim
