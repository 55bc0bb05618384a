// Parallel experiment executor: thread-pooled seed×point replication.
//
// Every figure and table in the paper's evaluation aggregates independent
// simulation replications — a flattened list of (config point, seed) jobs
// with no shared state between them.  ParallelRunner runs that list on a
// fixed pool of J worker threads, one fully independent simulation
// (Cluster, Simulator, Rng, network, sinks) per job, and returns results in
// job-index order, so tables, manifests and traces are byte-identical to
// the serial path regardless of J or OS scheduling.
//
// What makes the fan-out sound is that the process-wide mutable state is
// sealed first: freeze_registries() makes the MsgKind / EventKind tables
// immutable (lock-free lookups, late intern throws) and the algorithm
// factory registry is internally locked.  Everything else a run touches is
// owned by the run.  tests/test_parallel_runner.cpp pins byte-identical
// output across --jobs 1/2/8 and the TSan CI job proves the absence of
// races rather than assuming it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness/experiment.hpp"

namespace dmx::harness {

/// Seal the process-wide kind registries (net::MsgKindRegistry and
/// obs::EventKindRegistry) after forcing builtin algorithm registration.
/// Idempotent and irreversible; called by ParallelRunner before the first
/// worker spawns.  Safe to call from single-threaded code too — the serial
/// path behaves identically against a frozen registry.
void freeze_registries();

/// THE seed schedule for replicated runs: replication `i` of base seed `s`
/// always runs with seed `s + 1000*i + 17`, whether it is run alone, in a
/// serial batch, or on any parallel worker.  Every replication loop
/// (run_replicated, the dmx_sweep CLI, the bench harness, the lock
/// service's shards) routes through it; tests pin the schedule.
[[nodiscard]] std::uint64_t seed_schedule(std::uint64_t seed,
                                          std::size_t replication);
/// The schedule from `cfg.seed`.
[[nodiscard]] std::uint64_t seed_schedule(const ExperimentConfig& cfg,
                                          std::size_t replication);

/// Fixed thread pool over an indexed job list.  No work stealing: workers
/// claim the next unclaimed job index from a shared atomic cursor and write
/// the result into that job's slot, so the output order is the input order
/// no matter which worker ran what.
class ParallelRunner {
 public:
  /// `jobs` = worker count; 0 = one per hardware thread.  A runner with one
  /// job executes inline on the calling thread (the exact serial path, no
  /// pool, no freeze requirement).
  explicit ParallelRunner(std::size_t jobs);

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Run every config as an independent simulation; results in job-index
  /// order.  If any job throws, the remaining queued jobs still run and the
  /// lowest-index exception is rethrown after the pool drains (a sweep
  /// never half-finishes silently).
  std::vector<ExperimentResult> run(
      const std::vector<ExperimentConfig>& configs) const;

  /// Generic indexed fan-out: run fn(0) .. fn(n-1), each call one job
  /// claimed from the shared atomic cursor.  Same semantics as run(): with
  /// one effective worker the loop executes inline on the calling thread
  /// (no pool, no freeze); otherwise registries are frozen first, every job
  /// runs even if others throw, and the lowest-index exception is rethrown
  /// after the pool drains.  `fn` must write results into its own indexed
  /// slot — the runner provides ordering, not output storage.  run() and
  /// the sharded lock-service fan-out (harness/lock_service.hpp) are both
  /// built on this.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

  /// 0 -> std::thread::hardware_concurrency() (min 1).
  [[nodiscard]] static std::size_t resolve(std::size_t jobs);

 private:
  std::size_t jobs_;
};

}  // namespace dmx::harness
