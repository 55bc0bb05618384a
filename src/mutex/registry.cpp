#include "mutex/registry.hpp"

#include <stdexcept>
#include <utility>

namespace dmx::mutex {

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(const std::string& name, AlgorithmFactory factory) {
  if (!factory) throw std::invalid_argument("Registry::add: null factory");
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);  // re-registration overwrites
}

bool Registry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.contains(name);
}

std::unique_ptr<MutexAlgorithm> Registry::create(
    const std::string& name, const FactoryContext& ctx) const {
  // Copy the factory out under the lock, invoke it outside: a factory is
  // free to touch the registry (or take its time) without holding mu_.
  AlgorithmFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      throw std::invalid_argument("unknown mutual exclusion algorithm: " +
                                  name);
    }
    factory = it->second;
  }
  return factory(ctx);
}

std::vector<std::string> Registry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [k, v] : factories_) out.push_back(k);
  return out;
}

std::string build_error(const std::string& name, std::size_t n_nodes,
                        const ParamSet& params) {
  try {
    (void)Registry::instance().create(
        name, FactoryContext{net::NodeId{0}, n_nodes, params});
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

}  // namespace dmx::mutex
