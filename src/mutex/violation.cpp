#include "mutex/violation.hpp"

namespace dmx::mutex {

std::string_view violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kMutualExclusion:
      return "mutual-exclusion";
    case Violation::Kind::kPhantomExit:
      return "phantom-exit";
    case Violation::Kind::kStarvation:
      return "starvation";
    case Violation::Kind::kTokenDuplicated:
      return "token-duplicated";
  }
  return "unknown";
}

std::string Violation::describe() const {
  std::string out(violation_kind_name(kind));
  out += " at t=" + time.to_string();
  if (!nodes.empty()) {
    out += " [nodes ";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(nodes[i].value());
    }
    out += "]";
  }
  if (!detail.empty()) out += ": " + detail;
  return out;
}

}  // namespace dmx::mutex
