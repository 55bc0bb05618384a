// Multi-resource lock space.
//
// Real deployments guard many independent resources (shards, keys, files),
// not one global critical section.  A LockSpace instantiates one complete
// mutual exclusion protocol per resource — its own logical network and its
// own per-node algorithm instances — all driven by a single shared virtual
// clock, so cross-resource parallelism and aggregate message bills can be
// studied.  Any registered algorithm works; resources are fully independent
// (a grant on resource A never waits on resource B).
//
// The plain LockSpaceSpec aggregate is the whole configuration:
//
//   mutex::LockSpaceSpec spec;
//   spec.algorithm = "raymond";
//   spec.n_resources = 1024;
//   spec.n_nodes = 16;
//   spec.batch_size = 32;
//   spec.collect_spans = true;
//   mutex::LockSpace space(spec);
//   space.set_on_granted([](const LockEvent& e) { ... });
//   LockRequestId id = space.acquire(node, resource);
//
// LockSpaceSpec::validate() reports *every* configuration error at once;
// the ctor throws the joined list.  Every resource runs the same algorithm
// over the same node count; the sharded lock-service scenario
// (harness/lock_service.hpp) gives hot and cold shards different ones by
// running one single-resource space per shard.
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
  std::string algorithm = "arbiter-tp";  ///< Run on every resource.
  std::size_t n_nodes = 8;               ///< Nodes per resource.
  std::size_t n_resources = 4;
  double t_msg = 0.1;
  double t_exec = 0.1;
  ParamSet params;  ///< Algorithm parameters.
  std::uint64_t seed = 1;
  /// Demand batching at the driver layer: acquire() buffers demands and
  /// flushes them `batch_size` at a time (plus a same-timestamp auto-flush
  /// so nothing ever sticks).  0 = unbatched, every acquire submits
  /// immediately (the legacy behavior).
  std::size_t batch_size = 0;
  /// Assemble per-resource request-lifecycle spans (obs/span.hpp); exposes
  /// span_report(resource) with the grant_wait (time-to-grant) phase the
  /// lock-service SLO tables quote p99s of.  Phase histograms span
  /// [0, 1000) time units.
  bool collect_spans = false;
  /// Optional downstream sink receiving every resource's trace events (and
  /// completed spans when collect_spans is on).
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
  std::size_t resource = 0;
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

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const LockSpaceSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t nodes() const { return spec_.n_nodes; }
  [[nodiscard]] std::size_t resources() const { return spec_.n_resources; }

  /// Submit lock demand: node wants resource (queued FIFO per
  /// node+resource).  Returns the demand's ticket; on_granted/on_released
  /// fire with it.  With batching on, the demand is buffered and hits the
  /// protocol at the next flush (same timestamp — a zero-delay auto-flush
  /// is scheduled whenever the buffer becomes non-empty).
  LockRequestId acquire(std::size_t node, std::size_t resource,
                        int priority = 0);

  /// Force any buffered demands into the protocol now.  No-op when
  /// unbatched or empty.
  void flush();

  /// Exactly-once grant / release notifications (mutex/api.hpp contract).
  void set_on_granted(LockHook hook) { on_granted_ = std::move(hook); }
  void set_on_released(LockHook hook) { on_released_ = std::move(hook); }

  /// Per-resource exclusivity monitor.
  [[nodiscard]] const SafetyMonitor& monitor(std::size_t resource) const {
    return shards_[resource]->monitor();
  }
  [[nodiscard]] std::uint64_t safety_violations() const;

  /// Grants completed / demands submitted, summed over everything.
  /// Buffered-but-unflushed demands count as submitted (they hold tickets).
  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_submitted() const;
  [[nodiscard]] std::uint64_t completed(std::size_t resource) const;

  /// Messages sent on a resource's network / across all of them.
  [[nodiscard]] std::uint64_t messages(std::size_t resource) const;
  [[nodiscard]] std::uint64_t total_messages() const;

  /// Lock-wait statistics (arrival -> release) aggregated over all nodes of
  /// one resource.
  [[nodiscard]] stats::Welford sojourn(std::size_t resource) const;

  /// Per-resource completions by node (tenant-fairness raw material).
  [[nodiscard]] std::vector<std::uint64_t> completions_per_node(
      std::size_t resource) const;

  /// Per-resource lifecycle decomposition; null unless spec.collect_spans.
  /// grant_wait is the time-to-grant SLO phase.
  [[nodiscard]] const obs::SpanReport* span_report(std::size_t resource);

  /// Highest number of resources ever held concurrently (across distinct
  /// resources, by any nodes) — proof of cross-resource parallelism.
  [[nodiscard]] int max_parallel_grants() const { return max_parallel_; }

 private:
  void submit_now(const LockDemand& d);
  void on_driver_granted(std::size_t resource, std::size_t node);
  void on_driver_released(std::size_t resource, std::size_t node);

  LockSpaceSpec spec_;
  sim::Simulator sim_;
  // One id source across resources: request ids (and so every trace and
  // span) stay unique over the whole space.
  RequestIdSource ids_;
  std::vector<std::unique_ptr<MutexCluster>> shards_;  // per resource
  std::vector<std::shared_ptr<obs::SpanCollector>> span_collectors_;
  // FIFO ticket ledger per (resource, node): CsDriver queues demand FIFO
  // with at most one CS in flight, so the front ticket is always the one
  // being granted / released.  Popped on release.
  std::vector<std::vector<std::deque<LockRequestId>>> pending_;
  std::vector<LockDemand> batch_buffer_;
  LockHook on_granted_;
  LockHook on_released_;
  std::uint64_t next_ticket_ = 1;
  bool flush_scheduled_ = false;
  int current_parallel_ = 0;
  int max_parallel_ = 0;
};

}  // namespace dmx::mutex
