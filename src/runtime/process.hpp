// Actor-style process base class.
//
// A Process is one node's protocol state machine: it receives messages from
// the network, sets timers on the simulation clock, and sends/broadcasts
// messages.  Crash semantics are fail-silent (Section 6 of the paper): a
// crashed process receives nothing, all its pending timers are suppressed,
// and the network drops traffic addressed to it until restart.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/payload.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace dmx::runtime {

class Cluster;

/// Handle for a process-owned timer.
class TimerId {
 public:
  constexpr TimerId() = default;
  [[nodiscard]] constexpr bool valid() const { return id_ != 0; }
  friend constexpr bool operator==(TimerId, TimerId) = default;

 private:
  friend class Process;
  constexpr explicit TimerId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Process : public net::MessageHandler {
 public:
  ~Process() override;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Network entry point; filters messages while crashed.
  void on_message(const net::Envelope& env) final {
    if (crashed_) return;
    handle(env);
  }

  /// Lifecycle, driven by the Cluster.
  void start();
  void crash();
  void restart();

 protected:
  Process() = default;

  /// Subclass hooks.
  virtual void handle(const net::Envelope& env) = 0;
  virtual void on_start() {}
  virtual void on_crash() {}
  virtual void on_restart() {}

  [[nodiscard]] sim::Simulator& simulator() const;
  [[nodiscard]] net::Network& network() const { return *net_; }
  [[nodiscard]] sim::SimTime now() const;

  /// Outgoing traffic goes through the bound transport: the raw network by
  /// default, or a reliability layer when the cluster installs one.
  void send(net::NodeId dst, net::PayloadPtr payload) const {
    transport_->send(id_, dst, std::move(payload));
  }
  void broadcast(const net::PayloadPtr& payload) const {
    transport_->broadcast(id_, payload);
  }

  /// Schedule a callback `delay` from now.  Fires only if the process is
  /// still alive; automatically deregistered after firing.  The callable is
  /// captured as is (move-only ones too) in the timer's event closure; an
  /// empty std::function is rejected.
  template <typename F>
  TimerId set_timer(sim::SimTime delay, F&& fn) {
    if (sim::is_empty_function(fn)) {
      throw std::invalid_argument("Process::set_timer: empty callback");
    }
    const std::uint64_t tid = next_timer_id_++;
    // Tag with (owner node, process-local timer id): tid is assigned in
    // program order by this process, so it is a stable cross-execution
    // identity for scheduling controllers.
    const sim::EventId ev = simulator().schedule_after(
        delay,
        [this, tid, fn = std::forward<F>(fn)]() mutable {
          erase_timer(tid);
          if (!crashed_) fn();
        },
        sim::EventTag{id_.value(), sim::EventClass::kTimer, tid});
    timers_.emplace_back(tid, ev);
    return TimerId(tid);
  }

  /// Cancel a timer if still pending; resets the handle.
  void cancel_timer(TimerId& timer);
  [[nodiscard]] bool timer_pending(TimerId timer) const;

  /// Cancel every pending timer (also done automatically on crash).
  void cancel_all_timers();

  /// Structured trace emission (obs/event.hpp).  Disabled tracing costs
  /// exactly this one branch: no Event is built, nothing allocates.
  void emit(obs::EventKind kind, std::uint64_t req = 0, std::int64_t arg = 0,
            double value = 0.0) const {
    if (!tracer_.enabled()) return;
    tracer_.write(obs::Event{now(), kind, id_.value(), req, arg, value});
  }

  /// Emission with a lazy detail formatter — any callable returning
  /// std::string.  The formatter is passed by reference and runs only if a
  /// text-producing sink asks for it, so emitf sites pay nothing for the
  /// human-readable string on the JSONL/Chrome/disabled paths.
  template <typename F>
  void emitf(obs::EventKind kind, const F& fmt, std::uint64_t req = 0,
             std::int64_t arg = 0, double value = 0.0) const {
    if (!tracer_.enabled()) return;
    tracer_.write(obs::Event{now(), kind, id_.value(), req, arg, value},
                  obs::DetailRef(fmt));
  }

  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

 private:
  friend class Cluster;
  void bind(Cluster* cluster, net::Network* net, net::NodeId id,
            obs::Tracer tracer);
  void erase_timer(std::uint64_t tid);
  void set_transport(net::Transport* t) { transport_ = t; }

  Cluster* cluster_ = nullptr;
  net::Network* net_ = nullptr;
  net::Transport* transport_ = nullptr;
  net::NodeId id_;
  obs::Tracer tracer_;
  bool crashed_ = false;
  std::uint64_t next_timer_id_ = 1;
  /// Live timers, flat: a process owns a handful at a time, so linear scans
  /// beat a hash map and the backing array is reused across arm/fire cycles.
  std::vector<std::pair<std::uint64_t, sim::EventId>> timers_;
};

}  // namespace dmx::runtime
