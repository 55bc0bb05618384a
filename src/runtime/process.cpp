#include "runtime/process.hpp"

#include <utility>

#include "runtime/cluster.hpp"
#include "runtime/events.hpp"

namespace dmx::runtime {

Process::~Process() {
  // Timers hold a copy of `this` in their callbacks; the Cluster owns both
  // the simulator and the processes and destroys processes first, so cancel
  // everything to prevent dangling callbacks if the simulator kept running.
  if (net_ != nullptr) cancel_all_timers();
}

void Process::bind(Cluster* cluster, net::Network* net, net::NodeId id,
                   obs::Tracer tracer) {
  cluster_ = cluster;
  net_ = net;
  transport_ = net;  // Raw by default; Cluster may interpose a reliable layer.
  id_ = id;
  tracer_ = std::move(tracer);
}

sim::Simulator& Process::simulator() const { return net_->simulator(); }

sim::SimTime Process::now() const { return net_->simulator().now(); }

void Process::start() {
  if (net_ == nullptr) {
    throw std::logic_error("Process::start: not bound to a cluster");
  }
  on_start();
}

void Process::crash() {
  if (crashed_) return;
  crashed_ = true;
  cancel_all_timers();
  net_->faults().set_node_down(id_, true);
  emitf(kEvNodeCrashed, [] { return std::string("crashed"); });
  on_crash();
}

void Process::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_->faults().set_node_down(id_, false);
  emitf(kEvNodeRestarted, [] { return std::string("restarted"); });
  on_restart();
}

void Process::erase_timer(std::uint64_t tid) {
  for (auto& entry : timers_) {
    if (entry.first == tid) {
      entry = timers_.back();  // order is irrelevant; swap-and-pop
      timers_.pop_back();
      return;
    }
  }
}

void Process::cancel_timer(TimerId& timer) {
  if (timer.valid()) {
    for (const auto& [tid, ev] : timers_) {
      if (tid == timer.id_) {
        simulator().cancel(ev);
        erase_timer(tid);
        break;
      }
    }
    timer = TimerId{};
  }
}

bool Process::timer_pending(TimerId timer) const {
  if (!timer.valid()) return false;
  for (const auto& entry : timers_) {
    if (entry.first == timer.id_) return true;
  }
  return false;
}

void Process::cancel_all_timers() {
  for (auto& [tid, ev] : timers_) simulator().cancel(ev);
  timers_.clear();
}

}  // namespace dmx::runtime
