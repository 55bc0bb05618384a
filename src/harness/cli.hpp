// Command-line front end for the experiment harness (the dmx_sweep tool).
// cli_usage() is the flag reference: every flag and its default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"
#include "obs/sinks.hpp"

namespace dmx::harness {

/// dmx_sweep's settings: the run to sweep, the lock-service settings, and
/// the state only the command line has.  A default-constructed value holds
/// the CLI defaults.
struct CliOptions {
  CliOptions();

  /// The sweep's base run, filled by parse_cli.  Each sweep point is this
  /// run at one entry of `lambdas` and one seed of seed_schedule; its own
  /// lambda is not read.
  ExperimentConfig cfg;
  /// --resources/--zipf-s/--shard-algo.  n_resources > 1 runs this
  /// lock service once instead of the sweep; its other fields are derived
  /// from `cfg` and the first lambda when it runs.
  LockServiceConfig service;
  std::vector<double> lambdas = {0.5};
  std::size_t seeds = 3;  ///< Replications per lambda point.
  /// Structured trace of the first run (first lambda, first seed; shard 0
  /// of a lock service); empty = no trace.
  std::string trace_out;
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
  /// dmx.run.v1 manifest of every run; empty = none.  Implies span
  /// collection on every run, so the manifest carries the per-phase latency
  /// decomposition.
  std::string emit_json;
  bool csv = false;
  bool list = false;
  bool help = false;
};

/// Parses argv; throws std::invalid_argument with a message on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// Strict numeric flag values, shared by every dmx_* tool: the whole of
/// `value` must parse, so "5s" or "0.1junk" is an error, never a silent
/// truncation, and parse_double also rejects "nan" and "inf".  Throws
/// std::invalid_argument naming `flag` and `value`.
double parse_double(const std::string& flag, const std::string& value);
std::uint64_t parse_u64(const std::string& flag, const std::string& value);

/// --param key=value, shared by every dmx_* tool.  Throws
/// std::invalid_argument naming `flag` unless `kv` is key=value.
void parse_param(const std::string& flag, const std::string& kv,
                 mutex::ParamSet& params);

/// The value half of parse_param: a number when the whole of `value` is a
/// finite number, a string when it is no number ("order=priority"), and
/// std::invalid_argument naming `key` when it is "nan" or "inf".  Also
/// reads the "param KEY VALUE" lines of dmx.cex.v1 files.
void set_param(mutex::ParamSet& params, const std::string& key,
               const std::string& value);

/// Usage text for --help / errors.
std::string cli_usage();

/// Runs the sweep, or the lock service, that the options describe and
/// writes the report to `os`.  Returns a process exit code: 2 for an
/// invalid configuration (a flag the chosen mode never reads among them),
/// reported before any output file is opened, or for an output file that
/// cannot be opened, reported before any run; 1 if any run was unsafe or
/// stuck; else 0.
int run_cli(const CliOptions& opts, std::ostream& os);

}  // namespace dmx::harness
