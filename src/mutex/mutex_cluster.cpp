#include "mutex/mutex_cluster.hpp"

#include <utility>

#include "mutex/registry.hpp"

namespace dmx::mutex {

MutexCluster::MutexCluster(
    const std::string& algorithm, std::size_t n_nodes, const ParamSet& params,
    sim::SimTime t_exec, std::unique_ptr<net::DelayModel> delay,
    std::uint64_t seed, obs::Tracer tracer,
    std::optional<net::ReliableTransportConfig> reliable)
    : cluster_(n_nodes, std::move(delay), seed, std::move(tracer)) {
  if (reliable) cluster_.use_reliable_transport(*reliable);
  const std::size_t n = cluster_.size();
  algos_.reserve(n);
  drivers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::int32_t>(i)};
    std::unique_ptr<MutexAlgorithm> algo =
        Registry::instance().create(algorithm, FactoryContext{id, n, params});
    algos_.push_back(algo.get());
    cluster_.install(id, std::move(algo));
    drivers_.push_back(std::make_unique<CsDriver>(
        cluster_.simulator(), *algos_.back(), t_exec, &monitor_, &ids_));
    drivers_.back()->set_tracer(cluster_.tracer());
  }
  cluster_.start();
}

std::vector<CsDriver*> MutexCluster::drivers() const {
  std::vector<CsDriver*> out;
  out.reserve(drivers_.size());
  for (const auto& d : drivers_) out.push_back(d.get());
  return out;
}

std::uint64_t MutexCluster::total_completed() const {
  std::uint64_t c = 0;
  for (const auto& d : drivers_) c += d->completed();
  return c;
}

std::uint64_t MutexCluster::total_submitted() const {
  std::uint64_t c = 0;
  for (const auto& d : drivers_) c += d->submitted();
  return c;
}

}  // namespace dmx::mutex
