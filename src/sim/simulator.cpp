#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace dmx::sim {

EventId Simulator::enqueue(std::uint32_t slot, SimTime t, EventTag tag) {
  EventSlot& s = slots_[slot];
  s.time = t;
  s.seq = next_seq_;
  s.tag = tag;
  const std::uint64_t id = pack(slot, s.gen);
  const Entry entry{t, next_seq_++, id};
  const SimTime delay = t - now_;
  if (Lane* lane = lane_for(delay, t)) {
    lane->push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end());
  }
  last_delay_ = delay;
  ++pending_;
  return EventId(id);
}

Simulator::Lane* Simulator::lane_for(SimTime delay, SimTime t) {
  Lane* free_lane = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.size == 0) {
      if (free_lane == nullptr) free_lane = &lane;
    } else if (lane.delay == delay) {
      return lane.back().time <= t ? &lane : nullptr;
    }
  }
  if (free_lane == nullptr || delay != last_delay_) return nullptr;
  free_lane->delay = delay;
  return free_lane;
}

void Simulator::Lane::grow() {
  std::vector<Entry> bigger(ring.empty() ? 64 : 2 * ring.size());
  for (std::size_t i = 0; i < size; ++i) {
    bigger[i] = ring[(head + i) & (ring.size() - 1)];
  }
  ring.swap(bigger);
  head = 0;
}

bool Simulator::cancel(EventId id) {
  if (!pending(id)) return false;
  free_slot(slot_of(id.id_));  // queued entry skipped lazily on pop
  return true;
}

unsigned Simulator::earliest() {
  while (!heap_.empty() && !live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
  unsigned best = heap_.empty() ? kNone : kHeap;
  for (unsigned i = 0; i < kLanes; ++i) {
    Lane& lane = lanes_[i];
    while (lane.size != 0 && !live(lane.front().id)) lane.pop_front();
    if (lane.size != 0 &&
        (best == kNone || earlier(lane.front(), front(best)))) {
      best = i;
    }
  }
  return best;
}

bool Simulator::step() {
  const unsigned src = earliest();
  if (src == kNone) return false;
  run_front(src);
  return true;
}

void Simulator::run_front(unsigned src) {
  const Entry top = front(src);
  if (src == kHeap) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  } else {
    lanes_[src].pop_front();
  }
  const std::uint32_t slot = slot_of(top.id);
  Callback fn = std::move(slots_[slot].fn);
  // Vacate before running: the callback may reschedule into this very slot
  // (under a new generation) or cancel other events.
  free_slot(slot);
  now_ = top.time;
  ++events_executed_;
  fn();
}

void Simulator::collect_pending(std::vector<PendingEvent>& out) const {
  out.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const EventSlot& s = slots_[i];
    if (!s.fn) continue;  // vacant (free-listed) slot
    out.push_back(PendingEvent{EventId(pack(i, s.gen)), s.time, s.seq, s.tag});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
}

bool Simulator::fire(EventId id) {
  if (!pending(id)) return false;
  const std::uint32_t slot = slot_of(id.id_);
  const SimTime t = slots_[slot].time;
  Callback fn = std::move(slots_[slot].fn);
  // Vacate before running, exactly as step() does; the generation bump makes
  // the event's queued entry stale, so earliest() drops it later.
  free_slot(slot);
  if (now_ < t) now_ = t;
  ++events_executed_;
  fn();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !budget_exhausted() && step()) {
  }
  if (budget_exhausted() && earliest() != kNone) event_limit_hit_ = true;
}

void Simulator::run_until(SimTime t) {
  stopped_ = false;
  const auto due = [this, t] {
    const unsigned src = earliest();
    return src != kNone && front(src).time <= t ? src : kNone;
  };
  unsigned src = kNone;
  while (!stopped_ && !budget_exhausted() && (src = due()) != kNone) {
    run_front(src);
  }
  if (budget_exhausted() && due() != kNone) {
    // Work remained inside the window: the budget, not the horizon, ended
    // the run.  Leave the clock at the last executed event.
    event_limit_hit_ = true;
    return;
  }
  // A stop() mid-run leaves the clock at the stopping event's time; only a
  // run that genuinely drained the window advances to the horizon.
  if (!stopped_ && now_ < t) now_ = t;
}

void Simulator::reserve(std::size_t events) {
  heap_.reserve(events);
  slots_.reserve(events);
  free_slots_.reserve(events);
}

}  // namespace dmx::sim
