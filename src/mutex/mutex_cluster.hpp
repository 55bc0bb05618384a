// One mutual exclusion cluster: the paper's evaluation set-up (§3.3).
//
// N nodes, each running one instance of a registered algorithm under a
// CsDriver.  MutexCluster is the one place that wires it: it builds a
// runtime::Cluster, installs one Registry instance of the named algorithm
// per node, gives every node a CsDriver on one shared SafetyMonitor, one
// RequestIdSource and the cluster's tracer, and starts the cluster.  The
// experiment runner, LockSpace (one per resource), the explorer's World,
// the tools, examples, benches and test fixtures all build through it.
//
// A crash needs no extra call: Cluster::crash_node reaches each driver
// through its algorithm (the CsListener that grants take too), which voids
// the dead node's demand.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mutex/api.hpp"
#include "mutex/cs_driver.hpp"
#include "mutex/params.hpp"
#include "mutex/safety_monitor.hpp"
#include "net/delay_model.hpp"
#include "net/reliable_transport.hpp"
#include "obs/tracer.hpp"
#include "runtime/cluster.hpp"
#include "sim/simulator.hpp"

namespace dmx::mutex {

class MutexCluster {
 public:
  /// A cluster on its own simulator.  `algorithm` must be registered
  /// (harness::register_builtin_algorithms); `reliable` interposes the
  /// reliable transport beneath every node.
  MutexCluster(const std::string& algorithm, std::size_t n_nodes,
               const ParamSet& params, sim::SimTime t_exec,
               std::unique_ptr<net::DelayModel> delay, std::uint64_t seed,
               obs::Tracer tracer = {},
               std::optional<net::ReliableTransportConfig> reliable =
                   std::nullopt);

  /// One of several clusters on a shared clock (LockSpace: one per
  /// resource).  The shared `ids` keep request ids unique across them.
  /// Both must outlive the cluster.
  MutexCluster(sim::Simulator& sim, RequestIdSource& ids,
               const std::string& algorithm, std::size_t n_nodes,
               const ParamSet& params, sim::SimTime t_exec,
               std::unique_ptr<net::DelayModel> delay, std::uint64_t seed,
               obs::Tracer tracer = {});

  MutexCluster(const MutexCluster&) = delete;
  MutexCluster& operator=(const MutexCluster&) = delete;

  [[nodiscard]] std::size_t size() const { return drivers_.size(); }
  [[nodiscard]] runtime::Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::Simulator& simulator() { return cluster_.simulator(); }
  [[nodiscard]] net::Network& network() { return cluster_.network(); }
  [[nodiscard]] const SafetyMonitor& monitor() const { return monitor_; }

  /// Node i's algorithm instance and driver.
  [[nodiscard]] MutexAlgorithm& algorithm(std::size_t i) const {
    return *algos_[i];
  }
  [[nodiscard]] CsDriver& driver(std::size_t i) const { return *drivers_[i]; }
  /// Every driver, in node order (what the workload generators take).
  [[nodiscard]] std::vector<CsDriver*> drivers() const;

  /// Critical sections completed / demands submitted, over all nodes.
  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_submitted() const;

 private:
  void populate(const std::string& algorithm, const ParamSet& params,
                sim::SimTime t_exec);

  SafetyMonitor monitor_;
  RequestIdSource own_ids_;
  RequestIdSource* ids_;
  runtime::Cluster cluster_;
  std::vector<MutexAlgorithm*> algos_;
  std::vector<std::unique_ptr<CsDriver>> drivers_;
};

}  // namespace dmx::mutex
