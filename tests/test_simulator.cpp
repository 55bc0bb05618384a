#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace dmx::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::units(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::units(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::units(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::units(3.0));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(SimTime::units(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime observed;
  sim.schedule_after(SimTime::units(1.0), [&] {
    sim.schedule_after(SimTime::units(0.5), [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, SimTime::units(1.5));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(SimTime::units(1.0), [&] { ran = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::units(1.0), [&] { order.push_back(1); });
  const EventId id =
      sim.schedule_at(SimTime::units(2.0), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::units(3.0), [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::units(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::units(5.0), [&] { order.push_back(5); });
  sim.run_until(SimTime::units(2.0));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), SimTime::units(2.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Simulator, RunUntilIncludesEventsAtBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(SimTime::units(2.0), [&] { ran = true; });
  sim.run_until(SimTime::units(2.0));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::units(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(SimTime::units(0.001), recurse);
  };
  sim.schedule_after(SimTime::zero(), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::units(5.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::units(1.0), [] {}),
               std::logic_error);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(SimTime::units(1.0), Simulator::Callback{}),
               std::invalid_argument);
}

/// A callable whose copy constructor throws.
struct ThrowingCopy {
  int* fired;
  explicit ThrowingCopy(int* f) : fired(f) {}
  ThrowingCopy(const ThrowingCopy&) { throw std::runtime_error("no copies"); }
  ThrowingCopy(ThrowingCopy&&) noexcept = default;
  void operator()() const { ++*fired; }
};

TEST(Simulator, ThrowingCopyOfAnLvalueSchedulesNothing) {
  // Two kernels see the same operations, except that `sim` is also handed
  // an lvalue whose copy throws: once while a cancelled event's slot is on
  // the free list, once when a new slot must be appended.  The exception
  // must propagate and leave nothing behind: the same pending events, the
  // same ids for later events (no slot leaked) and the same firing order.
  Simulator sim;
  Simulator twin;
  std::vector<int> order;
  std::vector<int> twin_order;
  int fired = 0;
  const ThrowingCopy throwing(&fired);
  const auto schedule = [](Simulator& k, std::vector<int>& out, double t) {
    return k.schedule_at(SimTime::units(t), [&out, t] {
      out.push_back(static_cast<int>(t));
    });
  };
  for (auto [k, out] :
       {std::pair{&sim, &order}, std::pair{&twin, &twin_order}}) {
    schedule(*k, *out, 2.0);
    const EventId gone = schedule(*k, *out, 3.0);
    schedule(*k, *out, 1.0);
    k->cancel(gone);
  }
  EXPECT_THROW(sim.schedule_at(SimTime::units(0.5), throwing),
               std::runtime_error);
  EXPECT_EQ(schedule(sim, order, 4.0), schedule(twin, twin_order, 4.0));
  EXPECT_THROW(sim.schedule_after(SimTime::units(0.5), throwing,
                                  EventTag{0, EventClass::kTimer, 9}),
               std::runtime_error);
  EXPECT_EQ(sim.pending_count(), 3u);
  EXPECT_EQ(sim.pending_count(), twin.pending_count());
  std::vector<PendingEvent> pending;
  std::vector<PendingEvent> twin_pending;
  sim.collect_pending(pending);
  twin.collect_pending(twin_pending);
  ASSERT_EQ(pending.size(), twin_pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].id, twin_pending[i].id);
    EXPECT_EQ(pending[i].time, twin_pending[i].time);
    EXPECT_EQ(pending[i].seq, twin_pending[i].seq);
  }
  EXPECT_EQ(schedule(sim, order, 5.0), schedule(twin, twin_order, 5.0));
  sim.run();
  twin.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
  EXPECT_EQ(order, twin_order);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  SimTime when = SimTime::max();
  sim.schedule_after(SimTime::units(1.0), [&] {
    sim.schedule_after(SimTime::zero(), [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(when, SimTime::units(1.0));
}

TEST(Simulator, PendingCountTracksQueue) {
  Simulator sim;
  const EventId a = sim.schedule_after(SimTime::units(1.0), [] {});
  sim.schedule_after(SimTime::units(2.0), [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, ManyEventsStress) {
  Simulator sim;
  std::uint64_t sum = 0;
  for (int i = 0; i < 50'000; ++i) {
    sim.schedule_at(SimTime::ticks(i % 997), [&] { ++sum; });
  }
  sim.run();
  EXPECT_EQ(sum, 50'000u);
}

// --- Randomized check against a reference model ----------------------------
//
// ReferenceKernel is the Simulator contract with no data structure in the
// way: every pending event sits in one vector and the next one is found by a
// linear scan for the least (time, seq).  run_script drives either kernel
// through the same seeded operations and returns a transcript; the two must
// be identical, which pins the firing order (and every observable beside it)
// that the heap and the repeated-delay lanes together must reproduce.

/// Brute-force twin of Simulator, with the same member names so one script
/// template drives both.  Handles are indices into `events_`.
class ReferenceKernel {
 public:
  struct Pending {
    std::size_t id;
    SimTime time;
    std::uint64_t seq;
    EventTag tag;
  };

  [[nodiscard]] SimTime now() const { return now_; }

  std::size_t schedule_at(SimTime t, SmallFn fn, EventTag tag) {
    if (t < now_) throw std::logic_error("ReferenceKernel: time in the past");
    events_.push_back(Event{t, next_seq_++, tag, std::move(fn), true});
    live_.push_back(events_.size() - 1);
    return events_.size() - 1;
  }

  [[nodiscard]] bool pending(std::size_t id) const {
    return events_[id].pending;
  }

  bool cancel(std::size_t id) {
    if (!pending(id)) return false;
    retire(id);
    return true;
  }

  bool fire(std::size_t id) {
    if (!pending(id)) return false;
    retire(id);
    if (now_ < events_[id].time) now_ = events_[id].time;
    run_event(id);
    return true;
  }

  bool step() {
    const std::optional<std::size_t> next = earliest();
    if (!next) return false;
    retire(*next);
    now_ = events_[*next].time;
    run_event(*next);
    return true;
  }

  void run() {
    stopped_ = false;
    while (!stopped_ && !budget_exhausted() && step()) {
    }
    if (budget_exhausted() && earliest()) limit_hit_ = true;
  }

  void run_until(SimTime t) {
    stopped_ = false;
    const auto due = [this, t] {
      const std::optional<std::size_t> next = earliest();
      return next && events_[*next].time <= t;
    };
    while (!stopped_ && !budget_exhausted() && due()) step();
    if (budget_exhausted() && due()) {
      limit_hit_ = true;
      return;
    }
    if (!stopped_ && now_ < t) now_ = t;
  }

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_count() const { return live_.size(); }
  void set_event_limit(std::uint64_t limit) { limit_ = limit; }
  [[nodiscard]] bool event_limit_hit() const { return limit_hit_; }

  void collect_pending(std::vector<Pending>& out) const {
    out.clear();
    for (const std::size_t id : live_) {
      out.push_back(
          Pending{id, events_[id].time, events_[id].seq, events_[id].tag});
    }
    std::sort(out.begin(), out.end(), [](const Pending& a, const Pending& b) {
      return std::pair(a.time, a.seq) < std::pair(b.time, b.seq);
    });
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    EventTag tag;
    SmallFn fn;
    bool pending;
  };

  [[nodiscard]] std::optional<std::size_t> earliest() const {
    std::optional<std::size_t> best;
    for (const std::size_t id : live_) {
      if (!best || std::pair(events_[id].time, events_[id].seq) <
                       std::pair(events_[*best].time, events_[*best].seq)) {
        best = id;
      }
    }
    return best;
  }

  void retire(std::size_t id) {
    events_[id].pending = false;
    live_.erase(std::find(live_.begin(), live_.end(), id));
  }

  void run_event(std::size_t id) {
    ++executed_;
    SmallFn fn = std::move(events_[id].fn);
    fn();
  }

  [[nodiscard]] bool budget_exhausted() const {
    return limit_ != 0 && executed_ >= limit_;
  }

  std::vector<Event> events_;
  std::vector<std::size_t> live_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t limit_ = 0;
  bool limit_hit_ = false;
  bool stopped_ = false;
};

// Transcript record marks; every other transcript value is non-negative.
constexpr std::int64_t kOpMark = -1;     // op index, op code
constexpr std::int64_t kFiredMark = -2;  // label, now
constexpr std::int64_t kStateMark = -3;  // now, pending, executed, hit, stopped
constexpr std::int64_t kThrewMark = -4;

/// One seeded run of mixed operations against `Kernel`, whose
/// collect_pending() fills a vector of `Pending`.  Event labels are
/// schedule-call ordinals, carried in the tag's detail word.
template <class Kernel, class Pending>
std::vector<std::int64_t> run_script(std::uint64_t seed) {
  // Six repeated delays, more than the kernel has lanes, so some fan-outs
  // also land in the heap.
  constexpr std::array<std::int64_t, 6> kRepeated{7, 40, 100, 250, 333, 1000};
  constexpr int kOps = 160;
  Kernel k;
  Rng rng(seed);
  std::vector<std::int64_t> out;
  const auto log = [&out](std::initializer_list<std::int64_t> values) {
    out.insert(out.end(), values);
  };
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  using Handle = decltype(k.schedule_at(SimTime{}, SmallFn{}, EventTag{}));
  std::vector<Handle> handles;   // by label
  std::vector<int> delay_class;  // by label: index into kRepeated, or -1
  std::vector<Pending> pending;
  std::function<void(std::uint64_t)> on_fire;

  const auto schedule_at = [&](SimTime t, int cls) {
    const std::uint64_t label = handles.size();
    handles.push_back(k.schedule_at(
        t, [&on_fire, label] { on_fire(label); },
        EventTag{-1, EventClass::kInternal, label}));
    delay_class.push_back(cls);
  };
  const auto fan_out = [&](std::size_t n) {
    const std::size_t cls = pick(kRepeated.size());
    for (std::size_t i = 0; i < n; ++i) {
      schedule_at(k.now() + SimTime::ticks(kRepeated[cls]),
                  static_cast<int>(cls));
    }
  };
  const auto one_off = [&] {
    schedule_at(k.now() + SimTime::ticks(rng.uniform_int(0, 2000)), -1);
  };
  // Cancels a pending event chosen by `mode`: the earliest one, the earliest
  // with a repeated delay (a lane's head whenever its delay has a lane), a
  // random one, or any label ever issued (maybe fired or cancelled already).
  const auto cancel_some = [&](std::int64_t mode) {
    k.collect_pending(pending);
    std::optional<std::size_t> label;
    if (mode == 3) {
      if (!handles.empty()) label = pick(handles.size());
    } else if (!pending.empty()) {
      if (mode == 0) label = pending.front().tag.detail;
      if (mode == 2) label = pending[pick(pending.size())].tag.detail;
      if (mode == 1) {
        for (const Pending& p : pending) {
          if (delay_class[p.tag.detail] >= 0) {
            label = p.tag.detail;
            break;
          }
        }
      }
    }
    if (label) log({static_cast<std::int64_t>(k.cancel(handles[*label]))});
  };

  // Each firing spawns 0.56 children on average, so every run drains.
  on_fire = [&](std::uint64_t label) {
    log({kFiredMark, static_cast<std::int64_t>(label), k.now().raw()});
    switch (rng.uniform_int(0, 15)) {
      case 0:
      case 1:
        fan_out(3);
        break;
      case 2:
      case 3:
        schedule_at(k.now(), -1);  // zero delay
        break;
      case 4:
        one_off();
        break;
      case 5:
        k.stop();
        break;
      case 6:
        cancel_some(rng.uniform_int(0, 2));
        break;
      default:
        break;
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const std::int64_t code = rng.uniform_int(0, 12);
    log({kOpMark, op, code});
    switch (code) {
      case 0:
      case 1:
        fan_out(static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      case 2:
        one_off();
        schedule_at(k.now(), -1);  // zero delay
        break;
      case 3: {
        // Absolute time, often equal to a pending event's (a tie across
        // the heap and a lane), which may lie in the past after fire().
        k.collect_pending(pending);
        const SimTime t =
            pending.empty() || rng.uniform_int(0, 1) == 0
                ? k.now() + SimTime::ticks(rng.uniform_int(0, 1500))
                : pending[pick(pending.size())].time;
        try {
          schedule_at(t, -1);
        } catch (const std::logic_error&) {
          log({kThrewMark});
        }
        break;
      }
      case 4:
        cancel_some(rng.uniform_int(0, 3));
        break;
      case 5: {
        // Out of order: any pending event, or any label ever issued.
        if (handles.empty()) break;
        k.collect_pending(pending);
        const std::size_t label =
            pending.empty() || rng.uniform_int(0, 3) == 0
                ? pick(handles.size())
                : pending[pick(pending.size())].tag.detail;
        log({static_cast<std::int64_t>(k.fire(handles[label]))});
        break;
      }
      case 6:
      case 7:
        log({static_cast<std::int64_t>(k.step())});
        break;
      case 8:
        k.run_until(k.now() + SimTime::ticks(rng.uniform_int(0, 600)));
        break;
      case 9:
        k.set_event_limit(k.events_executed() +
                          static_cast<std::uint64_t>(rng.uniform_int(1, 30)));
        if (rng.uniform_int(0, 1) == 0) {
          k.run();
        } else {
          k.run_until(k.now() + SimTime::ticks(rng.uniform_int(0, 3000)));
        }
        k.set_event_limit(0);
        break;
      case 10:
        if (!handles.empty()) {
          log({static_cast<std::int64_t>(
              k.pending(handles[pick(handles.size())]))});
        }
        k.stop();
        break;
      case 11:
        if (op % 4 == 0) k.run();
        break;
      default:
        break;
    }
    log({kStateMark, k.now().raw(), static_cast<std::int64_t>(k.pending_count()),
         static_cast<std::int64_t>(k.events_executed()),
         static_cast<std::int64_t>(k.event_limit_hit()),
         static_cast<std::int64_t>(k.stopped())});
    k.collect_pending(pending);
    for (const Pending& p : pending) {
      log({static_cast<std::int64_t>(p.tag.detail), p.time.raw(),
           static_cast<std::int64_t>(p.seq)});
    }
  }
  k.run();
  log({kStateMark, k.now().raw(), static_cast<std::int64_t>(k.pending_count()),
       static_cast<std::int64_t>(k.events_executed())});
  return out;
}

TEST(SimulatorReference, MatchesBruteForceModelOnRandomScripts) {
  std::uint64_t fired = 0, throws = 0, limit_hits = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const auto want = run_script<ReferenceKernel, ReferenceKernel::Pending>(seed);
    const auto got = run_script<Simulator, PendingEvent>(seed);
    const auto [g, w] =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    if (g != got.end() || w != want.end()) {
      // Name the op during which the transcripts parted.
      const auto at = static_cast<std::size_t>(g - got.begin());
      std::size_t mark = std::min(at, want.size() - 1);
      while (mark > 0 && want[mark] != kOpMark) --mark;
      FAIL() << "seed " << seed << ": transcript diverges at value " << at
             << ", during op " << want[mark + 1] << " (code "
             << want[mark + 2] << ")";
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] == kFiredMark) ++fired;
      if (want[i] == kThrewMark) ++throws;
    }
    // The last state record before the final drain carries the sticky
    // event_limit_hit() flag.
    const auto last = std::find(want.rbegin(), want.rend(), kStateMark);
    const auto prev = std::find(last + 1, want.rend(), kStateMark);
    if (prev != want.rend() && *(prev.base() + 3) == 1) ++limit_hits;
  }
  // The script reached every path it is meant to cover.
  EXPECT_GT(fired, 10'000u);
  EXPECT_GT(throws, 0u);
  EXPECT_GT(limit_hits, 0u);
}

}  // namespace
}  // namespace dmx::sim
