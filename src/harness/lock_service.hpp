// Sharded lock-service scenario: many Zipf-skewed resources behind the
// LockSpace API, fanned across cores.
//
// The paper evaluates one critical section under uniform load; a real lock
// service guards thousands of resources whose popularity follows a heavy
// tail.  This scenario models that end to end:
//
//   * Aggregate demand (100k .. millions of lock requests) is split over
//     `n_resources` by workload::zipf_demand_vector — THE canonical Zipf
//     split; every consumer (bench, CLI, tests) sees the same per-shard
//     demand vector for a given (resources, skew, total, seed).
//   * Each resource is one shard: a self-contained mutex::LockSpace (own
//     simulator, network, per-client protocol instances).  Hot shards
//     (demand >= the mean, i.e. demand * n_resources >= total) run the
//     hot algorithm over `hot_nodes` clients — the paper's arbiter
//     token-passing by default, built for contention; cold shards run a
//     cheaper topology algorithm (path-reversal by default) over fewer
//     clients.
//   * Each shard is driven by a closed-loop client population
//     (workload::ClosedLoopGenerator, generic SubmitFn binding): every
//     client thinks ~Exp(think_mean), calls LockSpace::acquire, and
//     resubmits when its on_released notification arrives.  Demands enter
//     the protocol through the space's batching layer (batch_size).
//   * Shards are independent simulations, so ParallelRunner::run_indexed
//     fans them across `jobs` workers with byte-identical per-shard
//     results in shard order for ANY job count: shard r always runs with
//     seed_schedule(seed, r), replication r of the service's base seed
//     (harness/parallel.hpp).
//   * SLO metrics come from the obs/span.hpp lifecycle decomposition: each
//     shard reports p50/p99 time-to-grant (the grant_wait phase), Jain
//     fairness over its clients' completions, and its message bill per CS.
//
// bench/table_lockservice.cpp renders the report, and the dmx_sweep CLI
// (--resources/--zipf-s/--shard-algo/--batch) writes it into the dmx.run.v1
// manifest through harness::lock_service_record (harness/manifest.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mutex/params.hpp"
#include "obs/sink.hpp"

namespace dmx::harness {

struct LockServiceConfig {
  std::size_t n_resources = 16;
  double zipf_s = 0.9;  ///< Zipf skew; 0 = uniform popularity.
  /// Aggregate demand across all resources, Zipf-split per shard.
  std::uint64_t total_demands = 100'000;
  std::string hot_algorithm = "arbiter-tp";
  std::string cold_algorithm = "path-reversal";
  std::size_t hot_nodes = 16;  ///< Clients on a hot shard.
  std::size_t cold_nodes = 8;  ///< Clients on a cold shard.
  double t_msg = 0.1;
  double t_exec = 0.1;
  /// Mean client think time between a release and the next acquire
  /// (exponential); the closed-loop load knob (smaller = hotter).
  double think_mean = 1.0;
  /// LockSpace demand batching (0 = unbatched).
  std::size_t batch_size = 16;
  mutex::ParamSet params;  ///< Forwarded to every shard's algorithm.
  std::uint64_t seed = 42;
  /// Shard fan-out workers: 1 = serial, 0 = one per hardware thread.
  /// Execution knob only — per-shard results are byte-identical for every
  /// value.
  std::size_t jobs = 1;
  /// Structured trace of ONE shard (the Perfetto drill-down view): the
  /// sink receives every protocol/lifecycle event of shard 0, the
  /// Zipf-hottest resource.  Exactly one shard writes to it, from whichever
  /// worker runs that shard, so a plain file sink is safe at any job count.
  /// Null = off.
  std::shared_ptr<obs::Sink> trace_sink;

  /// Every configuration problem at once (same contract as
  /// ExperimentConfig::validate / LockSpaceSpec::validate); empty = runnable.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One shard's scorecard.
struct ShardResult {
  std::size_t resource = 0;
  std::string algorithm;
  bool hot = false;
  std::size_t nodes = 0;
  std::uint64_t demand = 0;     ///< Zipf share of total_demands.
  std::uint64_t completed = 0;
  std::uint64_t messages = 0;
  double messages_per_cs = 0.0;
  // Time-to-grant (span grant_wait phase, time units).
  double grant_mean = 0.0;
  double grant_p50 = 0.0;
  double grant_p99 = 0.0;
  /// Jain fairness over per-client completions; 1.0 when demand < clients
  /// (perfect evenness is unreachable, the index is not meaningful).
  double fairness = 1.0;
  std::uint64_t safety_violations = 0;
  bool drained = false;  ///< completed == demand.
  double sim_duration_units = 0.0;
};

/// The whole service's scorecard: per-shard results in shard order plus
/// cross-shard aggregates.
struct LockServiceReport {
  std::vector<ShardResult> shards;
  std::uint64_t total_demands = 0;
  std::uint64_t total_completed = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t safety_violations = 0;
  std::size_t hot_shards = 0;
  double messages_per_cs = 0.0;
  double grant_p99_worst = 0.0;  ///< Max per-shard p99 time-to-grant.
  double fairness_min = 1.0;     ///< Worst per-shard Jain index.
  bool drained = false;          ///< Every shard drained its demand.
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 1.0 for empty input or
/// all-zero counts.
[[nodiscard]] double jain_fairness(const std::vector<std::uint64_t>& counts);

/// Run the scenario: Zipf split, per-shard closed-loop simulations fanned
/// over cfg.jobs workers, per-shard SLOs.  Throws std::invalid_argument
/// joining every validate() error.
[[nodiscard]] LockServiceReport run_lock_service(const LockServiceConfig& cfg);

}  // namespace dmx::harness
