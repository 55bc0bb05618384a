// Structured invariant-violation reports.
//
// SafetyMonitor and ProgressMonitor used to speak in strings (and, in strict
// mode, exceptions).  The systematic explorer (src/verify/) needs machine-
// readable reports — kind, time, affected nodes — so it can classify a
// counterexample, and the normal harness wants to collect-and-continue or
// fail-fast by policy rather than by string matching.  A Violation is the
// one vocabulary both paths share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace dmx::mutex {

struct Violation {
  enum class Kind : std::uint8_t {
    kMutualExclusion,  ///< Two nodes inside the CS at once.
    kPhantomExit,      ///< A CS exit with nobody inside.
    kStarvation,       ///< Pending live demand that can never be served.
    kTokenDuplicated,  ///< More than one live node believes it holds the token.
  };

  Kind kind = Kind::kMutualExclusion;
  sim::SimTime time;
  std::vector<net::NodeId> nodes;  ///< Nodes involved, ascending order.
  std::string detail;              ///< Human-readable specifics.

  /// "mutual-exclusion at t=3.400 [nodes 0,2]: <detail>"
  [[nodiscard]] std::string describe() const;
};

/// Stable kebab-case name of a violation kind (used in reports and in the
/// counterexample file format).
[[nodiscard]] std::string_view violation_kind_name(Violation::Kind kind);

}  // namespace dmx::mutex
