// Machine-readable run manifest ("dmx.run.v1").
//
// One JSON document per sweep: every run's full configuration and result,
// including the per-phase span histograms when the run collected them.  The
// schema is documented in DESIGN.md §9 and validated by
// scripts/obs_smoke.sh in CI; bump the schema string on any breaking field
// change.  Output is deterministic (std::to_chars number formatting, sorted
// maps), so manifests from the same seed diff clean.
#pragma once

#include <optional>
#include <ostream>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/lock_service.hpp"

namespace dmx::harness {

/// One executed run: the exact config it ran with and what came back.
struct RunRecord {
  ExperimentConfig config;
  ExperimentResult result;
  /// The LockServiceConfig a lock-service run ran (lock_service_record).
  /// The config's n_resources, zipf_s, shard_algo_hot and shard_algo_cold
  /// keys come from it; a single-resource run, which has none, writes 1, 0,
  /// "arbiter-tp" and "path-reversal".
  std::optional<LockServiceConfig> lock_service = std::nullopt;
};

/// The record of one run_lock_service(ls) that returned `report`: `cfg`
/// supplies the config keys a lock-service run shares with a sweep run,
/// except the algorithm, which is ls.hot_algorithm; the result holds the
/// service-wide totals and, as its lock_service block, the per-shard
/// scorecard.
[[nodiscard]] RunRecord lock_service_record(ExperimentConfig cfg,
                                            const LockServiceConfig& ls,
                                            const LockServiceReport& report);

/// Writes {"schema":"dmx.run.v1","runs":[...]} to `os`.
void write_run_manifest(std::ostream& os, const std::vector<RunRecord>& runs);

}  // namespace dmx::harness
