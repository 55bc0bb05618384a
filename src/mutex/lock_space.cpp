#include "mutex/lock_space.hpp"

#include <stdexcept>
#include <utility>

#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/tracer.hpp"

namespace dmx::mutex {

namespace {

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
  if (n_resources == 0) errors.push_back("n_resources must be > 0");
  if (t_msg < 0.0) errors.push_back("t_msg must be >= 0");
  if (t_exec < 0.0) errors.push_back("t_exec must be >= 0");
  if (span_hist_max <= 0.0) errors.push_back("span_hist_max must be > 0");
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

  auto& registry = Registry::instance();
  clusters_.reserve(spec_.n_resources);
  drivers_.resize(spec_.n_resources);
  pending_.resize(spec_.n_resources);
  span_collectors_.resize(spec_.n_resources);
  for (std::size_t r = 0; r < spec_.n_resources; ++r) {
    obs::Tracer tracer;
    if (spec_.collect_spans) {
      span_collectors_[r] = std::make_shared<obs::SpanCollector>(
          spec_.trace_sink, spec_.span_hist_max);
      tracer = obs::Tracer(span_collectors_[r]);
    } else if (spec_.trace_sink) {
      tracer = obs::Tracer(spec_.trace_sink);
    }

    clusters_.push_back(std::make_unique<runtime::Cluster>(
        sim_, spec_.n_nodes,
        std::make_unique<net::ConstantDelay>(sim::SimTime::units(spec_.t_msg)),
        spec_.seed * 7919 + r, tracer));
    monitors_.push_back(std::make_unique<SafetyMonitor>());
    pending_[r].resize(spec_.n_nodes);
    for (std::size_t i = 0; i < spec_.n_nodes; ++i) {
      const net::NodeId nid{static_cast<std::int32_t>(i)};
      FactoryContext ctx{nid, spec_.n_nodes, spec_.params};
      auto algo = registry.create(spec_.algorithm, ctx);
      auto* algo_raw = algo.get();
      clusters_[r]->install(nid, std::move(algo));
      auto driver = std::make_unique<CsDriver>(
          sim_, *dynamic_cast<MutexAlgorithm*>(algo_raw),
          sim::SimTime::units(spec_.t_exec), monitors_[r].get(), &ids_);
      driver->set_tracer(tracer);
      driver->set_grant_callback([this, r, i](const CsRequest&) {
        on_driver_granted(r, i);
      });
      driver->set_completion_callback([this, r, i](const CsRequest&) {
        on_driver_released(r, i);
      });
      drivers_[r].push_back(std::move(driver));
    }
    clusters_[r]->start();
  }
  if (spec_.batch_size > 0) batch_buffer_.reserve(spec_.batch_size);
}

LockRequestId LockSpace::acquire(std::size_t node, std::size_t resource,
                                 int priority) {
  if (resource >= spec_.n_resources || node >= spec_.n_nodes) {
    throw std::out_of_range("LockSpace::acquire: bad node or resource");
  }
  const LockRequestId ticket{next_ticket_++};
  pending_[resource][node].push_back(ticket);
  const LockDemand demand{node, resource, priority};
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
    sim_.schedule_after(sim::SimTime::units(0.0), [this] {
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
  drivers_[d.resource][d.node]->submit(d.priority);
}

void LockSpace::on_driver_granted(std::size_t resource, std::size_t node) {
  ++current_parallel_;
  if (current_parallel_ > max_parallel_) max_parallel_ = current_parallel_;
  if (on_granted_) {
    const auto& queue = pending_[resource][node];
    const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
    on_granted_(LockEvent{id, resource, node, sim_.now()});
  }
}

void LockSpace::on_driver_released(std::size_t resource, std::size_t node) {
  --current_parallel_;
  auto& queue = pending_[resource][node];
  const LockRequestId id = queue.empty() ? LockRequestId{} : queue.front();
  if (!queue.empty()) queue.pop_front();
  if (on_released_) on_released_(LockEvent{id, resource, node, sim_.now()});
}

std::uint64_t LockSpace::safety_violations() const {
  std::uint64_t v = 0;
  for (const auto& m : monitors_) v += m->violations();
  return v;
}

std::uint64_t LockSpace::total_completed() const {
  std::uint64_t c = 0;
  for (const auto& per_resource : drivers_) {
    for (const auto& d : per_resource) c += d->completed();
  }
  return c;
}

std::uint64_t LockSpace::total_submitted() const {
  std::uint64_t c = batch_buffer_.size();  // ticketed, not yet flushed
  for (const auto& per_resource : drivers_) {
    for (const auto& d : per_resource) c += d->submitted();
  }
  return c;
}

std::uint64_t LockSpace::completed(std::size_t resource) const {
  std::uint64_t c = 0;
  for (const auto& d : drivers_[resource]) c += d->completed();
  return c;
}

std::uint64_t LockSpace::messages(std::size_t resource) const {
  return clusters_[resource]->network().stats().sent;
}

std::uint64_t LockSpace::total_messages() const {
  std::uint64_t m = 0;
  for (const auto& c : clusters_) m += c->network().stats().sent;
  return m;
}

stats::Welford LockSpace::sojourn(std::size_t resource) const {
  stats::Welford w;
  for (const auto& d : drivers_[resource]) w.merge(d->sojourn_time());
  return w;
}

std::vector<std::uint64_t> LockSpace::completions_per_node(
    std::size_t resource) const {
  std::vector<std::uint64_t> out;
  out.reserve(drivers_[resource].size());
  for (const auto& d : drivers_[resource]) out.push_back(d->completed());
  return out;
}

const obs::SpanReport* LockSpace::span_report(std::size_t resource) {
  if (span_collectors_[resource] == nullptr) return nullptr;
  return &span_collectors_[resource]->report();
}

}  // namespace dmx::mutex
