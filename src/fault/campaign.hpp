// Chaos campaign execution: a FaultPlan scheduled against a live Cluster.
//
// The runner turns each FaultAction into a cancellable simulator event that
// fires at its scripted time and acts on the cluster's FaultInjector and
// Process lifecycle (crash/restart).  A crash voids the node's driver demand
// by itself: Cluster::crash_node reaches each CsDriver through its algorithm.
// The fault observer lets the harness ride along: it feeds the
// RecoveryMetrics layer so time-to-recovery is measured per disruptive
// action.  Everything executes on the deterministic virtual clock, so the
// same seed plus the same plan is the same run, byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx::fault {

class CampaignRunner {
 public:
  /// Observes every executed action (at its fire time); `disruptive()`
  /// tells whether it opens a recovery window.
  using Observer = std::function<void(sim::SimTime, const FaultAction&)>;

  CampaignRunner(runtime::Cluster& cluster, FaultPlan plan);

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;
  ~CampaignRunner() { cancel(); }

  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Check the plan against the cluster (FaultPlan::validate) and that no
  /// action is scheduled in the past, then schedule every action.  Throws
  /// std::invalid_argument on a bad plan; call before the simulation runs.
  void start();

  /// Cancel all not-yet-fired actions (idempotent).
  void cancel();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_actions() const {
    return plan_.size() - executed_;
  }

  /// Targeted drops ("lose-next") that executed but whose one-shot has not
  /// yet matched a message.  A finished campaign can assert this is
  /// zero to prove every scripted drop actually fired.
  [[nodiscard]] std::size_t unfired_targeted_drops() const;

  /// Executed actions, in execution order, as "t=<time> <action>" lines.
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  void execute(const FaultAction& action);

  runtime::Cluster& cluster_;
  FaultPlan plan_;
  Observer observer_;
  bool started_ = false;
  std::size_t executed_ = 0;
  std::vector<sim::EventId> events_;
  std::vector<std::uint64_t> one_shot_ids_;  ///< From lose-next actions.
  std::vector<std::string> log_;
};

}  // namespace dmx::fault
