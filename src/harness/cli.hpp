// Command-line front end for the experiment harness (the dmx_sweep tool).
//
// Grammar (flags may repeat where noted):
//   --algo NAME             algorithm to run        (default arbiter-tp)
//   --n N                   cluster size            (default 10)
//   --lambda X[,Y,...]      per-node arrival rates  (default 0.5)
//   --requests K            CS requests per run     (default 100000)
//   --seeds R               replications per point  (default 3)
//   --t-msg X / --t-exec X  network / CS durations  (default 0.1 / 0.1)
//   --param key=value       algorithm parameter     (repeatable)
//   --delay constant|uniform|exponential [--jitter X]
//   --loss TYPE=P           message-type loss       (repeatable)
//   --fault "SPEC"          scripted chaos campaign (fault/fault_plan.hpp),
//                           e.g. "t=5 crash 3; t=9 restart 3"
//   --transport raw|reliable  message transport (default raw); reliable
//                           interposes the ack/retransmit layer per node
//   --stall X               liveness stall threshold (sim units); X < 0
//                           disables the monitor, omit for auto
//   --max-events K          hard backstop on executed events per run
//                           (0 = auto from the load); hitting it fails the
//                           run with a per-node diagnosis
//   --jobs J                parallel sweep workers (default 1 = serial,
//                           0 = one per hardware thread); output is
//                           byte-identical for every J
//   --resources K           lock resources; K > 1 switches the run into the
//                           sharded lock-service scenario (Zipf-split
//                           aggregate demand, per-shard SLO table)
//   --zipf-s S              Zipf popularity skew across resources
//   --shard-algo SPEC       per-shard algorithm choice, e.g.
//                           hot=arbiter-tp,cold=path-reversal (either key
//                           may be given alone)
//   --batch B               LockSpace demand batching (0 = unbatched)
//   --trace-out FILE        structured event trace of the first run
//   --trace-format FMT      jsonl | chrome | text   (default jsonl)
//   --emit-json FILE        machine-readable run manifest (dmx.run.v1)
//   --csv                   emit CSV instead of an aligned table
//   --list                  list registered algorithms and exit
//   --help                  usage
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace dmx::harness {

struct CliOptions {
  std::string algorithm = "arbiter-tp";
  std::size_t n_nodes = 10;
  std::vector<double> lambdas = {0.5};
  std::uint64_t requests = 100'000;
  std::size_t seeds = 3;
  double t_msg = 0.1;
  double t_exec = 0.1;
  mutex::ParamSet params;
  DelayKind delay_kind = DelayKind::kConstant;
  double jitter = 0.0;
  std::map<std::string, double> loss_by_type;
  std::string fault_plan;
  TransportKind transport = TransportKind::kRaw;
  double stall_threshold = 0.0;  ///< See ExperimentConfig::stall_threshold.
  std::uint64_t max_events = 0;  ///< See ExperimentConfig::max_events.
  /// Worker threads for the seed×point job list (harness::ParallelRunner).
  /// 1 = serial, 0 = one per hardware thread.  Table, manifest and trace
  /// output is byte-identical for every value.
  std::size_t jobs = 1;
  // --- Sharded lock-service scenario (harness/lock_service.hpp) ----------
  /// 1 = the classic single-CS sweep; > 1 switches run_cli into the
  /// lock-service scenario: --requests becomes the aggregate demand,
  /// Zipf(zipf_s)-split over the resources, --n the hot-shard client count,
  /// and --lambda's first entry the closed-loop think rate (think_mean =
  /// 1/lambda).  Shards fan out over --jobs workers, byte-identically.
  std::size_t n_resources = 1;
  double zipf_s = 0.9;  ///< Zipf skew across resources (0 = uniform).
  std::string shard_algo_hot = "arbiter-tp";
  std::string shard_algo_cold = "path-reversal";
  std::size_t batch = 16;  ///< LockSpace demand batching (0 = unbatched).
  /// Structured trace of the sweep's first run (first lambda, first seed);
  /// empty = no trace.  Format: "jsonl", "chrome" (Perfetto-loadable), or
  /// "text" (the human-readable dmx_trace format).
  std::string trace_out;
  std::string trace_format = "jsonl";
  /// Run manifest (dmx.run.v1 JSON, every run of the sweep) output path;
  /// empty = no manifest.  Implies span collection on every run so the
  /// manifest carries the per-phase latency decomposition.
  std::string emit_json;
  bool csv = false;
  bool list = false;
  bool help = false;
};

/// Parses argv; throws std::invalid_argument with a message on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// Strict numeric flag values, shared by every dmx_* tool: the whole of
/// `value` must parse, so "5s" or "0.1junk" is an error, never a silent
/// truncation.  Throws std::invalid_argument naming `flag` and `value`.
double parse_double(const std::string& flag, const std::string& value);
std::uint64_t parse_u64(const std::string& flag, const std::string& value);

/// Usage text for --help / errors.
std::string cli_usage();

/// Runs the sweep described by the options and writes the report to `os`.
/// Returns a process exit code (non-zero if any run was unsafe or stuck).
int run_cli(const CliOptions& opts, std::ostream& os);

}  // namespace dmx::harness
