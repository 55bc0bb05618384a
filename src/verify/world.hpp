// One controlled execution of a verification world.
//
// A World stands up the ordinary production stack — a mutex::MutexCluster
// of the algorithm under test: Cluster, Network, CsDrivers, SafetyMonitor —
// but never calls Simulator::run().  Instead the explorer (or a
// counterexample replay) pulls the enabled choice set, picks one, applies
// it, and asks the world whether an invariant just broke.  All demand is
// submitted at t=0, so the world is a closed system whose only
// nondeterminism is the choice sequence: identical sequences produce
// identical executions, down to the simulator's event handles and times.  That is what lets the explorer
// replay a stored choice prefix in a fresh World (replay()) and makes
// counterexample traces byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/violation.hpp"
#include "obs/sink.hpp"
#include "verify/choice.hpp"
#include "verify/config.hpp"

namespace dmx::verify {

struct VerifyResult;

class World {
 public:
  /// Validates `cfg` (throws std::invalid_argument on a bad config), builds
  /// the cluster, submits every request at t=0 and leaves the event queue
  /// untouched.  `cfg` must outlive the World.  `sink` attaches structured
  /// tracing (counterexample replay); null runs dark.
  explicit World(const VerifyConfig& cfg,
                 std::shared_ptr<obs::Sink> sink = nullptr);

  /// The enabled choice set at the current state, sorted by key():
  /// deliveries (per-link FIFO heads under fifo_links), each node's
  /// earliest timer, CS exits — all within the time_slack window — plus
  /// every applicable unconsumed fault choice.  Deterministic.
  [[nodiscard]] std::vector<Choice> enabled();

  /// Re-derives the enabled set and returns the choice whose key() is
  /// `key`.  Serves counterexample files, whose steps are keys.
  [[nodiscard]] std::optional<Choice> find_enabled(std::string_view key);

  /// Applies `c`, a choice stored by an earlier execution of the same
  /// prefix, after checking that this execution enables it: an entry of the
  /// enabled set with the same identity (same_choice), the same pending
  /// event and the same time.  The check applies the enabled() rules but
  /// builds no keys and sorts nothing.  Throws std::logic_error ("verify:
  /// replay diverged", naming the key) if no such entry exists, which can
  /// only mean the world is nondeterministic.
  void replay(const Choice& c);

  /// Executes one choice (must come from this world's current enabled set).
  void apply(const Choice& c);

  /// Any invariant broken by the last transition: unconsumed SafetyMonitor
  /// reports first, then global token uniqueness over live nodes.
  [[nodiscard]] std::optional<mutex::Violation> check();

  /// Starvation verdict for a state with no enabled choices: pending
  /// demand at a live node can never be served once nothing can fire.
  [[nodiscard]] std::optional<mutex::Violation> terminal_check();

  /// All demand served (or voided by crashes) and every fault choice
  /// consumed: no future transition can break an invariant, so the
  /// explorer accepts the schedule without unwinding idle timer chains.
  [[nodiscard]] bool quiescent() const;

  /// Per-node protocol + driver state, one line per node (diagnostics).
  [[nodiscard]] std::string debug_dump() const;

  [[nodiscard]] sim::Simulator& simulator() { return mc_.simulator(); }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t completed() const;

 private:
  /// explore() validates its config once and builds every World from the
  /// fault actions check() parsed.
  friend VerifyResult explore(const VerifyConfig& cfg);
  World(const VerifyConfig& cfg, std::vector<fault::FaultAction> actions,
        std::shared_ptr<obs::Sink> sink = nullptr);

  /// Send record of one in-flight message (indexed by msg_id).
  struct MsgInfo {
    std::int32_t src = -1;  ///< -1: no record (dropped on the spot).
    std::string_view type;  ///< Fault-target type name (registry-owned).
    std::uint64_t index = 0;  ///< k-th (src, dst, type) transmission.
  };

  void record_send(const net::Envelope& env);
  template <typename Visit>
  void visit_fires(Visit&& visit);
  [[nodiscard]] static Choice fire_choice(const sim::PendingEvent& ev,
                                          const MsgInfo* info);
  [[nodiscard]] bool fault_applies(const fault::FaultAction& act);
  [[nodiscard]] Choice fault_choice(std::size_t action) const;

  const VerifyConfig& cfg_;
  mutex::MutexCluster mc_;
  std::vector<fault::FaultAction> actions_;
  std::vector<char> action_done_;
  std::vector<MsgInfo> msg_info_;  ///< By msg_id (dense from 1).
  /// Sends so far per (fault-target kind, src, dst) key: a few dozen keys
  /// at most per World, searched linearly.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> occurrence_;
  std::vector<sim::PendingEvent> pending_;  ///< Scratch for visit_fires().
  std::size_t consumed_reports_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace dmx::verify
