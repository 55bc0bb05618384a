// Experiment runner: one (algorithm, load, seed) point -> metrics.
//
// Reproduces the paper's methodology (§3.3): N nodes, per-node Poisson
// arrivals at rate lambda, constant message delay T_msg and constant CS
// execution time T_exec, event-driven simulation processing a fixed number
// of CS requests, measuring messages per CS invocation, delay per CS, and
// the fraction of forwarded request messages.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/arbiter_mutex.hpp"
#include "mutex/params.hpp"
#include "net/reliable_transport.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"
#include "stats/counter_map.hpp"
#include "stats/histogram.hpp"
#include "stats/kind_counter.hpp"
#include "stats/welford.hpp"

namespace dmx::harness {

struct LockServiceReport;  // harness/lock_service.hpp

enum class DelayKind { kConstant, kUniform, kExponential };

/// What carries algorithm messages: the raw (lossy) network, or the
/// per-peer reliability layer (net/reliable_transport.hpp) that gives every
/// algorithm exactly-once in-order delivery under loss/dup/reorder faults.
enum class TransportKind { kRaw, kReliable };

struct ExperimentConfig {
  std::string algorithm = "arbiter-tp";
  std::size_t n_nodes = 10;
  /// Per-node Poisson arrival rate, requests per time unit.
  double lambda = 1.0;
  double t_msg = 0.1;
  double t_exec = 0.1;
  /// Algorithm parameters forwarded to the factory (t_req, t_fwd, tau, ...).
  mutex::ParamSet params;
  std::uint64_t total_requests = 200'000;
  std::uint64_t seed = 42;
  /// Hard wall on simulated time (liveness backstop; a healthy run drains
  /// its event queue long before this).
  double max_sim_units = 0;  ///< 0 = auto (generous bound from the load).
  DelayKind delay_kind = DelayKind::kConstant;
  /// Jitter knob for kUniform ([t_msg, t_msg+jitter)) / kExponential (mean).
  double delay_jitter = 0.0;
  /// Per-message-type loss probabilities (recovery experiments).
  std::map<std::string, double> loss_by_type;
  /// Scripted chaos campaign: a fault-plan spec string (see
  /// fault/fault_plan.hpp), e.g. "t=5 crash 3; t=9 restart 3".  Empty = no
  /// campaign.  Parsed and validated before the run starts.
  std::string fault_plan;
  /// Liveness stall threshold in sim units for the ProgressMonitor:
  ///   > 0  monitor with this threshold;
  ///   == 0 auto — monitor only when a fault plan is present, with a
  ///        threshold derived from the load and recovery timeouts;
  ///   < 0  monitoring off.
  double stall_threshold = 0.0;
  /// Message transport.  kRaw preserves the pre-transport behavior exactly;
  /// kReliable interposes a ReliableEndpoint per node, with its timing
  /// scaled to t_msg (net::ReliableTransportConfig::scaled_to).
  TransportKind transport = TransportKind::kRaw;
  /// Structured trace output: every protocol/lifecycle event of the run is
  /// written here (obs/sinks.hpp ships text, JSONL and Chrome-trace sinks).
  /// Null = tracing disabled, which costs one predictable branch per emit
  /// site and nothing else.
  std::shared_ptr<obs::Sink> trace_sink;
  /// Assemble request-lifecycle spans (obs/span.hpp) during the run and
  /// attach the per-phase latency decomposition to the result.  Independent
  /// of trace_sink: spans can be collected without writing a trace, and a
  /// trace can be written without the collector in the chain.
  bool collect_spans = false;
  /// Replication parallelism: worker threads used by run_replicated (and
  /// any driver fanning this config out over seeds).  1 = serial, 0 = one
  /// worker per hardware thread.  An execution knob, not a simulation
  /// parameter: results, tables and manifests are byte-identical for every
  /// value (harness/parallel.hpp), so the manifest does not record it.
  std::size_t jobs = 1;

  /// Validate without running: returns one actionable message per problem
  /// (unknown algorithm name, non-positive rates, malformed fault plan,
  /// out-of-range loss probability, ...); empty means runnable.
  /// run_experiment calls this and throws the joined messages, so a driver
  /// surfaces every configuration error at once instead of dying on the
  /// first — use it directly to report problems before committing to a run.
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct ExperimentResult {
  std::string algorithm;
  double lambda = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;

  // Message economy (the paper's headline metric).  The kind-indexed
  // counter is the source of truth (a copy of the network's dense per-kind
  // tally); messages_by_type() derives the name-keyed view through the one
  // registry translation point (net::counts_by_name) on demand.
  std::uint64_t messages_total = 0;
  std::uint64_t bytes_total = 0;
  stats::KindCounter messages_by_kind;
  [[nodiscard]] stats::CounterMap messages_by_type() const;
  double messages_per_cs = 0.0;
  double bytes_per_cs = 0.0;
  double forwarded_fraction_of_requests = 0.0;  ///< Fig. 5 numerator choice.
  double forwarded_fraction_of_all = 0.0;

  // Delay metrics (time units).
  stats::Welford response_time;  ///< issue -> grant
  stats::Welford service_time;   ///< issue -> CS exit (the paper's X-bar)
  stats::Welford sojourn_time;   ///< arrival -> CS exit
  double service_p50 = 0.0;      ///< Percentiles of the service time.
  double service_p95 = 0.0;
  double service_p99 = 0.0;

  // Correctness.
  std::uint64_t safety_violations = 0;
  int max_occupancy = 0;
  bool drained = false;  ///< Every live-node demand completed (demand that
                         ///< died with a crashed node is excluded).

  // Robustness (meaningful when a fault plan / progress monitor ran).
  std::uint64_t aborted_by_crash = 0;   ///< Demand killed by node crashes.
  std::uint64_t faults_injected = 0;    ///< Disruptive campaign actions.
  std::uint64_t faults_recovered = 0;
  stats::Welford time_to_recovery;      ///< Per-fault TTR samples (units).
  double unavailability = 0.0;          ///< Union of recovery windows.
  std::uint64_t unfired_targeted_drops = 0;  ///< lose-next that never matched.
  // Partition attribution (meaningful when the plan carried partition cuts):
  // per-group blocked time = cut until the first CS completion *by a member
  // of that group*, so the side of a cut that cannot progress is billed
  // separately from the cluster-wide TTR.
  double group_blocked_max = 0.0;       ///< Worst single group (minority).
  double group_blocked_total = 0.0;     ///< Summed over all groups and cuts.
  std::uint64_t partition_groups_blocked = 0;  ///< Groups censored at end.
  bool stalled = false;                 ///< ProgressMonitor declared a stall.
  double stall_time = 0.0;
  std::string stall_diagnosis;          ///< Per-node debug_state() dump.
  bool hit_event_limit = false;         ///< The event backstop fired.
  std::string event_limit_diagnosis;    ///< Per-node dump at the cutoff.
  std::vector<std::string> fault_log;   ///< Executed campaign actions.

  // Fairness (§5.1).
  std::vector<std::uint64_t> completions_per_node;
  std::vector<std::uint64_t> arbiter_terms_per_node;  ///< arbiter-tp only.

  // Protocol detail (arbiter-tp only; zero for baselines).
  core::ArbiterStats protocol;

  // Reliability plane (all-zero when transport == kRaw).
  net::TransportStats transport;

  // Request-lifecycle latency decomposition; set iff cfg.collect_spans.
  std::shared_ptr<const obs::SpanReport> spans;

  // Sharded lock-service scorecard (per-shard SLOs, Zipf demand split);
  // set only by harness::lock_service_record (harness/manifest.hpp), null
  // for run_experiment's single-resource runs.
  std::shared_ptr<const LockServiceReport> lock_service;

  double sim_duration_units = 0.0;
  std::uint64_t sim_events = 0;
};

/// Run a single simulation to completion and collect metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Run `replications` seeds and return per-seed results (CI material).
/// Seeds follow harness::seed_schedule (harness/parallel.hpp); cfg.jobs > 1
/// fans the replications out over a thread pool with byte-identical
/// results in the same replication order.
std::vector<ExperimentResult> run_replicated(ExperimentConfig cfg,
                                             std::size_t replications);

/// Register every algorithm shipped with the library ("arbiter-tp",
/// "arbiter-tp-sf", "suzuki-kasami", "raymond", "path-reversal",
/// "ricart-agrawala", "singhal", "maekawa", "lamport", "centralized",
/// "token-ring", "tree-quorum") in the global registry.
/// Idempotent.
void register_builtin_algorithms();

}  // namespace dmx::harness
