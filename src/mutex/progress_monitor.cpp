#include "mutex/progress_monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dmx::mutex {

ProgressMonitor::ProgressMonitor(sim::Simulator& sim, Config cfg)
    : sim_(sim), cfg_(cfg) {
  if (cfg_.stall_threshold <= sim::SimTime::zero()) {
    throw std::invalid_argument("ProgressMonitor: stall threshold must be > 0");
  }
  if (cfg_.check_interval <= sim::SimTime::zero()) {
    cfg_.check_interval = sim::SimTime::units(
        cfg_.stall_threshold.to_units() / 4.0);
  }
}

ProgressMonitor::~ProgressMonitor() { stop(); }

void ProgressMonitor::watch(const CsDriver* driver,
                            const MutexAlgorithm* algo) {
  if (driver == nullptr || algo == nullptr) {
    throw std::invalid_argument("ProgressMonitor::watch: null driver/algo");
  }
  watched_.push_back(Watched{driver, algo});
}

void ProgressMonitor::start() {
  if (running_) return;
  running_ = true;
  last_progress_ = sim_.now();
  schedule_next();
}

void ProgressMonitor::stop() {
  running_ = false;
  sim_.cancel(next_check_);
  next_check_ = sim::EventId{};
}

sim::SimTime ProgressMonitor::last_completion() const {
  sim::SimTime last = sim::SimTime::zero();
  for (const Watched& w : watched_) {
    last = std::max(last, w.driver->last_completion());
  }
  return last;
}

bool ProgressMonitor::pending_live_demand() const {
  for (const Watched& w : watched_) {
    if (!w.driver->idle() && !w.algo->crashed()) return true;
  }
  return false;
}

void ProgressMonitor::schedule_next() {
  next_check_ = sim_.schedule_after(cfg_.check_interval, [this] { check(); });
}

void ProgressMonitor::check() {
  if (!running_) return;
  ++checks_;
  // Progress dates from the completion itself, not from the poll that
  // noticed it, so a stall is declared on time and dated right.
  last_progress_ = std::max(last_progress_, last_completion());
  if (!pending_live_demand()) {
    last_progress_ = sim_.now();
    // Quiet system: with no other pending event, future demand is impossible
    // (arrivals are themselves events), so stop polling and let the queue
    // drain instead of keeping the simulation alive forever.
    if (sim_.pending_count() == 0) {
      running_ = false;
      return;
    }
    schedule_next();
    return;
  }
  if (sim_.pending_count() == 0) {
    // Demand is pending but nothing is scheduled: no message, timer or
    // arrival can ever fire again.  Provably stuck — no need to wait out
    // the threshold.
    declare_stall(/*event_queue_dry=*/true);
    return;
  }
  if (sim_.now().to_units() - last_progress_.to_units() >=
      cfg_.stall_threshold.to_units()) {
    declare_stall(/*event_queue_dry=*/false);
    return;
  }
  schedule_next();
}

void ProgressMonitor::declare_stall(bool event_queue_dry) {
  running_ = false;
  stalled_ = true;
  stall_time_ = sim_.now();
  diagnosis_ = "liveness lost at t=" + std::to_string(sim_.now().to_units()) +
               (event_queue_dry
                    ? " (event queue dry: nothing can ever fire again)"
                    : " (no CS completion since t=" +
                          std::to_string(last_progress_.to_units()) + ")") +
               "\n";
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    const Watched& w = watched_[i];
    diagnosis_ += "  node " + std::to_string(i) + ": ";
    if (w.algo->crashed()) {
      diagnosis_ += "CRASHED";
    } else {
      diagnosis_ += w.driver->idle() ? "idle" : "demand-pending";
      diagnosis_ += " | " + w.algo->debug_state();
    }
    diagnosis_ += "\n";
  }
  Violation v;
  v.kind = Violation::Kind::kStarvation;
  v.time = stall_time_;
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    const Watched& w = watched_[i];
    if (!w.driver->idle() && !w.algo->crashed()) {
      v.nodes.push_back(w.algo->id());
    }
  }
  v.detail = event_queue_dry
                 ? "pending demand with a dry event queue"
                 : "no CS completion for " +
                       std::to_string(cfg_.stall_threshold.to_units()) +
                       " sim units";
  violation_ = std::move(v);
  sim_.stop();
}

}  // namespace dmx::mutex
