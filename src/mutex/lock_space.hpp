// Lock space: one lock behind a ticketed acquire/release API.
//
// A LockSpace runs one complete mutual exclusion protocol — its own
// network and one instance of a registered algorithm per node — on the
// simulator of its one MutexCluster, and turns the per-node CS drivers into
// a lock: acquire() hands out a ticket, and the grant and release hooks
// fire with it.  Any registered algorithm works.  Many locks are many
// spaces, each on its own clock: the sharded lock-service scenario
// (harness/lock_service.hpp) runs one space per shard, so shards fan out
// over workers and hot and cold shards can run different algorithms.
//
// The plain LockSpaceSpec aggregate is the whole configuration:
//
//   mutex::LockSpaceSpec spec;
//   spec.algorithm = "raymond";
//   spec.n_nodes = 16;
//   spec.batch_size = 32;
//   mutex::LockSpace space(spec);
//   space.set_on_granted([](const LockEvent& e) { ... });
//   LockRequestId id = space.acquire(node);
//
// LockSpaceSpec::validate() reports *every* configuration error at once;
// the ctor throws the joined list.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mutex/api.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/params.hpp"
#include "mutex/safety_monitor.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace dmx::mutex {

/// Full description of a lock space.  Plain aggregate — fill it directly;
/// validate() tells you everything wrong with it.
struct LockSpaceSpec {
  std::string algorithm = "arbiter-tp";
  std::size_t n_nodes = 8;
  double t_msg = 0.1;
  double t_exec = 0.1;
  ParamSet params;  ///< Algorithm parameters.
  std::uint64_t seed = 1;
  /// Demand batching at the driver layer: acquire() buffers demands and
  /// flushes them `batch_size` at a time (plus a same-timestamp auto-flush
  /// so nothing ever sticks).  0 = unbatched, every acquire submits
  /// immediately (the legacy behavior).
  std::size_t batch_size = 0;
  /// Optional downstream sink receiving every trace event and completed
  /// request-lifecycle span.
  std::shared_ptr<obs::Sink> trace_sink;

  /// Validate without building: one actionable message per problem (zero
  /// sizes, unknown algorithm name, negative times, ...); empty means
  /// buildable.  The LockSpace ctor throws the joined messages, so a caller
  /// sees every configuration error at once instead of dying on the first.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One lock demand, as acquire() buffers it while batching.
struct LockDemand {
  std::size_t node = 0;
  int priority = 0;
};

class LockSpace {
 public:
  /// Grant / release notification hook (see the LockRequestId contract in
  /// mutex/api.hpp).  SmallCallback keeps typical captures allocation-free.
  using LockHook = sim::SmallCallback<void(const LockEvent&)>;

  explicit LockSpace(LockSpaceSpec spec);

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return cluster_->simulator(); }
  [[nodiscard]] const LockSpaceSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t nodes() const { return spec_.n_nodes; }

  /// Submit lock demand: node wants the lock (queued FIFO per node).
  /// Returns the demand's ticket; on_granted/on_released fire with it.  With
  /// batching on, the demand is buffered and hits the protocol at the next
  /// flush (same timestamp — a zero-delay auto-flush is scheduled whenever
  /// the buffer becomes non-empty).
  LockRequestId acquire(std::size_t node, int priority = 0);

  /// Force any buffered demands into the protocol now.  No-op when
  /// unbatched or empty.
  void flush();

  /// Exactly-once grant / release notifications (mutex/api.hpp contract).
  void set_on_granted(LockHook hook) { on_granted_ = std::move(hook); }
  void set_on_released(LockHook hook) { on_released_ = std::move(hook); }

  /// The lock's exclusivity monitor.
  [[nodiscard]] const SafetyMonitor& monitor() const {
    return cluster_->monitor();
  }

  /// Grants completed / demands submitted.  Buffered-but-unflushed demands
  /// count as submitted (they hold tickets).
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t submitted() const;

  /// Messages sent on the lock's network.
  [[nodiscard]] std::uint64_t messages() const;

  /// Lock-wait statistics (arrival -> release) aggregated over all nodes.
  [[nodiscard]] stats::Welford sojourn() const;

  /// Completions by node (tenant-fairness raw material).
  [[nodiscard]] std::vector<std::uint64_t> completions_per_node() const;

  /// Request-lifecycle decomposition (obs/span.hpp); grant_wait is the
  /// time-to-grant SLO phase the lock-service tables quote p99s of.  Phase
  /// histograms span [0, 1000) time units.
  [[nodiscard]] const obs::SpanReport& span_report();

 private:
  void submit_now(const LockDemand& d);
  void on_driver_granted(std::size_t node);
  void on_driver_released(std::size_t node);

  LockSpaceSpec spec_;
  std::shared_ptr<obs::SpanCollector> spans_;
  std::unique_ptr<MutexCluster> cluster_;
  // FIFO ticket ledger per node: CsDriver queues demand FIFO with at most
  // one CS in flight, so the front ticket is always the one being granted /
  // released.  Popped on release.
  std::vector<std::deque<LockRequestId>> pending_;
  std::vector<LockDemand> batch_buffer_;
  LockHook on_granted_;
  LockHook on_released_;
  std::uint64_t next_ticket_ = 1;
  bool flush_scheduled_ = false;
};

}  // namespace dmx::mutex
