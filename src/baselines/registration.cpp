#include "baselines/registration.hpp"

#include "baselines/centralized.hpp"
#include "baselines/lamport.hpp"
#include "baselines/maekawa.hpp"
#include "baselines/path_reversal.hpp"
#include "baselines/raymond.hpp"
#include "baselines/ricart_agrawala.hpp"
#include "baselines/singhal_dynamic.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "baselines/token_ring.hpp"
#include "mutex/registry.hpp"

namespace dmx::baselines {

void register_all() {
  auto& reg = mutex::Registry::instance();
  reg.add("centralized", [](const mutex::FactoryContext&) {
    return std::make_unique<CentralizedMutex>();
  });
  reg.add("suzuki-kasami", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<SuzukiKasamiMutex>(ctx.n_nodes);
  });
  reg.add("ricart-agrawala", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<RicartAgrawalaMutex>(ctx.n_nodes);
  });
  reg.add("lamport", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<LamportMutex>(ctx.n_nodes);
  });
  reg.add("raymond", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<RaymondMutex>(ctx.n_nodes);
  });
  reg.add("path-reversal", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<PathReversalMutex>(ctx.n_nodes);
  });
  reg.add("maekawa", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<MaekawaMutex>(ctx.n_nodes);
  });
  reg.add("tree-quorum", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<MaekawaMutex>(ctx.n_nodes,
                                          build_tree_quorums(ctx.n_nodes));
  });
  reg.add("singhal", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<SinghalDynamicMutex>(ctx.n_nodes);
  });
  reg.add("token-ring", [](const mutex::FactoryContext& ctx) {
    return std::make_unique<TokenRingMutex>(ctx.n_nodes);
  });
}

}  // namespace dmx::baselines
