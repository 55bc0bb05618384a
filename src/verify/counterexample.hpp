// Counterexample files: serialized violating schedules (dmx.cex.v1).
//
// A counterexample is the full verification config plus the ordered list of
// choice keys that drove the world into a violation.  Because a World is a
// closed deterministic system, re-applying the same keys reproduces the
// violating execution exactly — same virtual times, same message contents,
// same monitor reports — so a replay with an attached trace sink yields a
// byte-identical structured trace of the bug on every run, ready for
// dmx_trace / Perfetto.
//
// Format (line-oriented text; a line starting with '#' is a comment —
// trailing comments are not supported because choice keys contain '#'):
//
//   dmx.cex.v1
//   algo arbiter-tp
//   n 3
//   requests 1
//   t_msg 0.1
//   t_exec 0.1
//   slack 0.25
//   fifo 1
//   depth 48
//   param recovery 1            (repeatable)
//   param order priority        (a value that is not a number is a string)
//   fault t=0 crash 1           (optional, FaultPlan spec)
//   violation mutual-exclusion  (optional, informational)
//   choice d 1>0 REQUEST #0     (ordered)
//   choice x 0 #1
//   end
//
// Doubles are printed with max_digits10 so the parsed config is bit-equal
// to the one that produced the file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mutex/violation.hpp"
#include "obs/sink.hpp"
#include "verify/config.hpp"

namespace dmx::verify {

struct Counterexample {
  VerifyConfig config;
  std::string violation_kind;        ///< Kind name; informational.
  std::vector<std::string> choices;  ///< Choice keys, in schedule order.

  /// Serializes to the dmx.cex.v1 text format.
  [[nodiscard]] std::string to_string() const;

  /// Parses the text format; throws std::invalid_argument on malformed
  /// input (with the offending line in the message).
  static Counterexample parse(std::string_view text);
};

struct ReplayResult {
  std::size_t steps = 0;  ///< Choices successfully applied.
  std::optional<mutex::Violation> violation;
  std::string diagnosis;  ///< Per-node dump at the violation / final state.
  /// Non-empty if a recorded choice was not enabled when its turn came
  /// (file corrupted or produced by a different build).
  std::string error;

  [[nodiscard]] bool reproduced() const {
    return error.empty() && violation.has_value();
  }
};

/// Re-executes the recorded schedule.  `sink` (optional) receives the full
/// structured event trace of the replayed execution.  After the last
/// recorded choice the terminal starvation check runs if nothing is
/// enabled, so liveness counterexamples reproduce too.
ReplayResult replay(const Counterexample& cex,
                    std::shared_ptr<obs::Sink> sink = nullptr);

}  // namespace dmx::verify
