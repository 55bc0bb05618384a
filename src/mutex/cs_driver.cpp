#include "mutex/cs_driver.hpp"

#include <stdexcept>

namespace dmx::mutex {

CsDriver::CsDriver(sim::Simulator& sim, MutexAlgorithm& algo,
                   sim::SimTime t_exec, SafetyMonitor* monitor,
                   RequestIdSource* ids)
    : sim_(sim), algo_(algo), t_exec_(t_exec), monitor_(monitor), ids_(ids) {
  if (ids == nullptr) {
    throw std::invalid_argument("CsDriver: null request id source");
  }
  algo_.set_listener(this);
}

void CsDriver::submit(int priority) {
  if (algo_.crashed()) return;  // a dead node generates no demand
  ++submitted_;
  if (outstanding_) {
    queue_.push_back(QueuedDemand{sim_.now(), priority});
    emit(obs::kEvCsSubmitted, 0, static_cast<std::int64_t>(queue_.size()));
    return;
  }
  emit(obs::kEvCsSubmitted, 0, 0);
  issue(sim_.now(), priority);
}

void CsDriver::issue(sim::SimTime submitted_at, int priority) {
  current_ = CsRequest{};
  current_.request_id = (*ids_)();
  current_.node = algo_.id();
  current_.sequence = next_sequence_++;
  current_.submitted_at = submitted_at;
  current_.issued_at = sim_.now();
  current_.priority = priority;
  outstanding_ = true;
  // value = local queue wait; the span collector derives the submit time
  // from it, so spans survive even when cs.submitted predates the sink.
  emit(obs::kEvCsIssued, current_.request_id, 0,
       (current_.issued_at - current_.submitted_at).to_units());
  algo_.request(current_);
}

void CsDriver::on_grant(const CsRequest& req) {
  if (!outstanding_ || req.request_id != current_.request_id || in_cs_) {
    ++spurious_;
    return;
  }
  in_cs_ = true;
  granted_at_ = sim_.now();
  if (monitor_ != nullptr) monitor_->on_enter(algo_.id(), sim_.now());
  if (grant_cb_) grant_cb_(current_);
  // Tag with (node, per-node sequence): the per-node sequence is assigned in
  // submission order, a stable identity across reordered executions (unlike
  // the globally allocated request_id).
  finish_event_ = sim_.schedule_after(
      t_exec_, [this] { finish(); },
      sim::EventTag{algo_.id().value(), sim::EventClass::kCsExit,
                    current_.sequence});
}

void CsDriver::finish() {
  if (monitor_ != nullptr) monitor_->on_exit(algo_.id(), sim_.now());
  in_cs_ = false;
  outstanding_ = false;
  ++completed_;
  response_time_.add(granted_at_.to_units() - current_.issued_at.to_units());
  service_time_.add(sim_.now().to_units() - current_.issued_at.to_units());
  sojourn_time_.add(sim_.now().to_units() - current_.submitted_at.to_units());
  const CsRequest done = current_;
  emit(obs::kEvCsReleased, done.request_id, 0,
       (sim_.now() - granted_at_).to_units());
  algo_.release();
  if (completion_cb_) completion_cb_(done);
  if (!queue_.empty() && !algo_.crashed()) {
    const QueuedDemand next = queue_.front();
    queue_.pop_front();
    issue(next.arrived, next.priority);
  }
}

void CsDriver::on_node_crashed() {
  if (sim_.cancel(finish_event_)) {
    // The node died inside its critical section: the CS is aborted, and the
    // monitor must see the exit or occupancy stays pinned at 1 forever.
    if (monitor_ != nullptr) monitor_->on_exit(algo_.id(), sim_.now());
    in_cs_ = false;
  }
  if (outstanding_) {
    ++aborted_;
    emit(obs::kEvCsAborted, current_.request_id);
  }
  aborted_ += queue_.size();
  queue_.clear();
  outstanding_ = false;
  in_cs_ = false;
}

}  // namespace dmx::mutex
