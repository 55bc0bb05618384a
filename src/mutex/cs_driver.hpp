// Per-node critical-section driver.
//
// The driver is the "application" on each node: workload arrivals call
// submit(), the driver keeps at most one request outstanding in the
// algorithm (surplus demand queues locally, FIFO), holds the critical
// section for t_exec once granted, then releases.  It reports entries and
// exits to the global SafetyMonitor and accumulates the per-CS delay
// metrics the paper plots.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "mutex/api.hpp"
#include "mutex/safety_monitor.hpp"
#include "obs/lifecycle.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "stats/welford.hpp"

namespace dmx::mutex {

/// Shared source of globally unique request ids.
struct RequestIdSource {
  std::uint64_t next = 1;
  std::uint64_t operator()() { return next++; }
};

class CsDriver final : private CsListener {
 public:
  /// Called after each completed critical section (harness progress hook).
  using CompletionCallback = std::function<void(const CsRequest&)>;

  CsDriver(sim::Simulator& sim, MutexAlgorithm& algo, sim::SimTime t_exec,
           SafetyMonitor* monitor, RequestIdSource* ids);

  CsDriver(const CsDriver&) = delete;
  CsDriver& operator=(const CsDriver&) = delete;

  void set_completion_callback(CompletionCallback cb) {
    completion_cb_ = std::move(cb);
  }

  /// Called at CS entry (after the safety monitor records it).  Lets
  /// applications model work done inside the critical section, e.g. the
  /// read half of a read-modify-write.
  void set_grant_callback(CompletionCallback cb) { grant_cb_ = std::move(cb); }

  /// Attach structured tracing: the driver emits the application half of
  /// the request lifecycle (cs.submitted / cs.issued / cs.released /
  /// cs.aborted, see obs/lifecycle.hpp); the algorithm underneath emits
  /// cs.granted and the protocol-side events.
  void set_tracer(obs::Tracer tracer) { tracer_ = std::move(tracer); }

  /// New critical-section demand arrives (from the workload generator).
  void submit(int priority = 0);

  // --- metrics ------------------------------------------------------------
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// When the last critical section ended (zero before the first).
  [[nodiscard]] sim::SimTime last_completion() const {
    return last_completion_;
  }
  [[nodiscard]] std::uint64_t aborted_by_crash() const { return aborted_; }
  [[nodiscard]] std::uint64_t spurious_grants() const { return spurious_; }
  [[nodiscard]] bool idle() const { return !outstanding_ && queue_.empty(); }

  /// issue -> grant (the algorithm's response time).
  [[nodiscard]] const stats::Welford& response_time() const {
    return response_time_;
  }
  /// issue -> CS exit (the paper's X̄: includes execution time).
  [[nodiscard]] const stats::Welford& service_time() const {
    return service_time_;
  }
  /// workload arrival -> CS exit (includes local queueing under overload).
  [[nodiscard]] const stats::Welford& sojourn_time() const {
    return sojourn_time_;
  }

 private:
  void issue(sim::SimTime submitted_at, int priority);
  void on_grant(const CsRequest& req) override;
  void finish();
  /// Run by the algorithm from inside Cluster::crash_node: the in-progress
  /// or queued demand of a dead node is void.
  void on_node_crashed() override;

  void emit(obs::EventKind kind, std::uint64_t req, std::int64_t arg = 0,
            double value = 0.0) const {
    if (!tracer_.enabled()) return;
    tracer_.write(
        obs::Event{sim_.now(), kind, algo_.id().value(), req, arg, value});
  }

  sim::Simulator& sim_;
  MutexAlgorithm& algo_;
  sim::SimTime t_exec_;
  SafetyMonitor* monitor_;
  RequestIdSource* ids_;
  CompletionCallback completion_cb_;
  CompletionCallback grant_cb_;
  obs::Tracer tracer_;

  struct QueuedDemand {
    sim::SimTime arrived;
    int priority;
  };
  std::deque<QueuedDemand> queue_;

  bool outstanding_ = false;
  bool in_cs_ = false;
  CsRequest current_;
  sim::SimTime granted_at_;
  sim::EventId finish_event_;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  sim::SimTime last_completion_;
  std::uint64_t aborted_ = 0;
  std::uint64_t spurious_ = 0;
  std::uint64_t next_sequence_ = 1;
  stats::Welford response_time_;
  stats::Welford service_time_;
  stats::Welford sojourn_time_;
};

}  // namespace dmx::mutex
