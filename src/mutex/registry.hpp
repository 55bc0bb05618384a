// Name-indexed algorithm factory registry.
//
// The harness and the benches construct algorithm fleets by name so that one
// sweep loop can compare "arbiter-tp" against "ricart-agrawala" etc.
// Registration is explicit (dmx::harness::register_builtin_algorithms) to
// avoid static-initialization-order traps with static libraries.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mutex/api.hpp"
#include "mutex/params.hpp"

namespace dmx::mutex {

/// Everything a factory needs to build one node's algorithm instance.
struct FactoryContext {
  net::NodeId id;
  std::size_t n_nodes = 0;
  const ParamSet& params;
};

using AlgorithmFactory =
    std::function<std::unique_ptr<MutexAlgorithm>(const FactoryContext&)>;

/// Thread-safe: parallel sweep workers (harness::ParallelRunner) hit
/// contains/create concurrently, so every accessor locks.  All of these are
/// cold paths — once per run, never per event.
class Registry {
 public:
  static Registry& instance();

  void add(const std::string& name, AlgorithmFactory factory);
  [[nodiscard]] bool contains(const std::string& name) const;

  [[nodiscard]] std::unique_ptr<MutexAlgorithm> create(
      const std::string& name, const FactoryContext& ctx) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, AlgorithmFactory> factories_;
};

/// What building node 0 of an `n_nodes`-node cluster of the registered
/// algorithm `name` from `params` throws (a bad parameter value, a node id
/// outside the cluster), or empty when it builds.  Config validation calls
/// it once per configuration, so a bad value is reported before any run.
[[nodiscard]] std::string build_error(const std::string& name,
                                      std::size_t n_nodes,
                                      const ParamSet& params);

}  // namespace dmx::mutex
