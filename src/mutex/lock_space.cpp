#include "mutex/lock_space.hpp"

#include <stdexcept>
#include <utility>

#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/tracer.hpp"

namespace dmx::mutex {

namespace {

/// Upper edge of every span phase histogram (time units).
constexpr double kSpanHistMax = 1000.0;

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "LockSpaceSpec invalid:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

}  // namespace

std::vector<std::string> LockSpaceSpec::validate() const {
  std::vector<std::string> errors;
  if (n_nodes == 0) errors.push_back("n_nodes must be > 0");
  if (!(t_msg >= 0.0)) errors.push_back("t_msg must be >= 0");
  if (!(t_exec >= 0.0)) errors.push_back("t_exec must be >= 0");
  if (!Registry::instance().contains(algorithm)) {
    errors.push_back(
        "algorithm not registered (call "
        "harness::register_builtin_algorithms first): " +
        algorithm);
  }
  return errors;
}

LockSpace::LockSpace(LockSpaceSpec spec) : spec_(std::move(spec)) {
  const auto errors = spec_.validate();
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));

  spans_ = std::make_shared<obs::SpanCollector>(spec_.trace_sink,
                                                kSpanHistMax);
  cluster_ = std::make_unique<MutexCluster>(
      spec_.algorithm, spec_.n_nodes, spec_.params,
      sim::SimTime::units(spec_.t_exec),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(spec_.t_msg)),
      spec_.seed * 7919, obs::Tracer(spans_));
  pending_.resize(spec_.n_nodes);
  for (std::size_t i = 0; i < spec_.n_nodes; ++i) {
    CsDriver& driver = cluster_->driver(i);
    driver.set_grant_callback(
        [this, i](const CsRequest&) { on_driver_granted(i); });
    driver.set_completion_callback(
        [this, i](const CsRequest&) { on_driver_released(i); });
  }
  if (spec_.batch_size > 0) batch_buffer_.reserve(spec_.batch_size);
}

LockRequestId LockSpace::acquire(std::size_t node, int priority) {
  if (node >= spec_.n_nodes) {
    throw std::out_of_range("LockSpace::acquire: bad node");
  }
  const LockRequestId ticket{next_ticket_++};
  pending_[node].push_back(ticket);
  const LockDemand demand{node, priority};
  if (spec_.batch_size == 0) {
    submit_now(demand);
    return ticket;
  }
  batch_buffer_.push_back(demand);
  if (batch_buffer_.size() >= spec_.batch_size) {
    flush();
  } else if (!flush_scheduled_) {
    // Same-timestamp auto-flush: a partial batch never waits for more
    // demand that may not come.  Scheduling at +0 keeps batched and
    // unbatched runs on identical virtual-time behavior.
    flush_scheduled_ = true;
    simulator().schedule_after(sim::SimTime::units(0.0), [this] {
      flush_scheduled_ = false;
      flush();
    });
  }
  return ticket;
}

void LockSpace::flush() {
  // submit_now can re-enter the simulator but never acquire(), so draining
  // a local move of the buffer keeps re-entrant growth impossible.
  std::vector<LockDemand> draining = std::move(batch_buffer_);
  batch_buffer_.clear();
  for (const LockDemand& d : draining) submit_now(d);
}

void LockSpace::submit_now(const LockDemand& d) {
  cluster_->driver(d.node).submit(d.priority);
}

void LockSpace::on_driver_granted(std::size_t node) {
  if (on_granted_) {
    const auto& queue = pending_[node];
    const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
    on_granted_(LockEvent{id, node, simulator().now()});
  }
}

void LockSpace::on_driver_released(std::size_t node) {
  auto& queue = pending_[node];
  const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
  if (!queue.empty()) queue.pop_front();
  if (on_released_) on_released_(LockEvent{id, node, simulator().now()});
}

std::uint64_t LockSpace::completed() const {
  return cluster_->total_completed();
}

std::uint64_t LockSpace::submitted() const {
  // Buffered demands are ticketed but not yet flushed to a driver.
  return batch_buffer_.size() + cluster_->total_submitted();
}

std::uint64_t LockSpace::messages() const {
  return cluster_->network().stats().sent;
}

stats::Welford LockSpace::sojourn() const {
  stats::Welford w;
  for (const CsDriver* d : cluster_->drivers()) w.merge(d->sojourn_time());
  return w;
}

std::vector<std::uint64_t> LockSpace::completions_per_node() const {
  std::vector<std::uint64_t> out;
  for (const CsDriver* d : cluster_->drivers()) out.push_back(d->completed());
  return out;
}

const obs::SpanReport& LockSpace::span_report() { return spans_->report(); }

}  // namespace dmx::mutex
