// Recovery-time accounting for chaos campaigns.
//
// The simulation-methodology literature measures failure behaviour as
// first-class experiment output: time-to-recovery and unavailability, not
// just messages per CS.  This layer turns the grant stream plus the fault
// schedule into exactly that.  Each disruptive fault action opens a recovery
// window; the next critical-section completion closes every open window and
// records one time-to-recovery sample per fault.  Unavailability is the
// union of open windows (overlapping faults are not double-billed), and a
// window still open when the run ends counts as unrecovered (censored: its
// duration is billed, but it produces no TTR sample).
//
// "Recovered" is deliberately defined through the service the cluster
// delivers — a CS completing — rather than through protocol internals, so
// the same metric compares the arbiter algorithm against every baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/welford.hpp"

namespace dmx::stats {

class RecoveryMetrics {
 public:
  struct FaultRecord {
    double at = 0.0;            ///< Fault injection time (sim units).
    std::string label;          ///< Action description ("t=5 crash 3").
    double time_to_recovery = 0.0;  ///< Valid when recovered.
    bool recovered = false;
  };

  /// A disruptive fault fired at time t (opens a recovery window).
  void on_fault(double t, std::string label);

  /// A critical section completed at time t (closes all open windows).
  void on_progress(double t);

  /// Node-attributed progress: closes the plain windows like on_progress(t)
  /// AND any partition-group window whose member list contains `node`.
  void on_progress(double t, int node);

  /// A partition cut fired at time t: opens one attributed window per
  /// group.  A group's window closes only when one of its *members*
  /// completes a CS — so the side of the cut that cannot make progress is
  /// billed separately from the cluster-wide TTR (which any node's
  /// completion closes).
  void on_partition(double t, const std::vector<std::vector<int>>& groups);

  /// The run ended at time t: bill still-open windows as unrecovered.
  void end_run(double t);

  [[nodiscard]] std::uint64_t faults() const { return records_.size(); }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t unrecovered() const {
    return records_.size() - recovered_;
  }
  /// Per-fault time-to-recovery samples (mean/min/max/stddev).
  [[nodiscard]] const Welford& ttr() const { return ttr_; }
  /// Union of fault-to-recovery windows, in sim units.
  [[nodiscard]] double unavailability() const { return unavailability_; }
  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }

  struct PartitionRecord {
    double at = 0.0;            ///< Cut time (sim units).
    std::vector<int> members;   ///< Nodes in this side of the cut.
    double blocked = 0.0;       ///< Cut -> first member CS completion.
    bool recovered = false;     ///< False = censored at end_run.
  };
  [[nodiscard]] const std::vector<PartitionRecord>& partitions() const {
    return partition_records_;
  }
  /// Worst per-group blocked time across all cuts (the "minority
  /// unavailability" headline: the side that stayed dark the longest).
  [[nodiscard]] double max_group_blocked() const;

 private:
  std::vector<FaultRecord> records_;
  std::vector<std::size_t> open_;  ///< Indices into records_ awaiting recovery.
  std::vector<PartitionRecord> partition_records_;
  std::vector<std::size_t> open_groups_;  ///< Unclosed partition records.
  double union_start_ = 0.0;       ///< Earliest open fault time.
  Welford ttr_;
  double unavailability_ = 0.0;
  std::uint64_t recovered_ = 0;
};

}  // namespace dmx::stats
