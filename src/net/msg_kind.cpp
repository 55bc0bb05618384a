#include "net/msg_kind.hpp"

#include <string>

namespace dmx::net {

stats::CounterMap counts_by_name(const stats::KindCounter& c) {
  stats::CounterMap out;
  const auto& registry = MsgKindRegistry::instance();
  for (std::size_t i = 0; i < c.size(); ++i) {
    const std::uint64_t count = c.get(i);
    if (count == 0) continue;
    out.increment(std::string(registry.name(MsgKind::from_index(i))), count);
  }
  return out;
}

}  // namespace dmx::net
