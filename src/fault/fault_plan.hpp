// Scripted fault plans: the vocabulary of the chaos campaign engine.
//
// A FaultPlan is an ordered, sim-time-scheduled list of fault actions —
// crash a node, restart it, drop the next message of a kind, raise a loss
// rate over a window, partition the network into groups, heal it — that the
// CampaignRunner executes against a live Cluster.  Plans are parseable from
// a compact spec string so the CLI (and CI) can run the paper's §6 failure
// scenarios as seeded, repeatable experiments:
//
//   "t=5000 crash 3; t=9000 restart 3; t=12000 lose-next PRIVILEGE"
//
// Grammar (actions separated by ';', tokens by whitespace):
//
//   action := 't=' TIME verb
//           | 'reorder-window' 't=' TIME '..' TIME
//   verb   := 'crash' NODE
//           | 'restart' NODE
//           | 'lose-next' (TYPE | '*') ['from=' NODE] ['to=' NODE]
//           | 'dup-next' (TYPE | '*') ['from=' NODE] ['to=' NODE]
//           | 'loss' (TYPE | '*') '=' P ['until=' TIME]
//           | 'partition' GROUP ('|' GROUP)*     (GROUP = NODE[,NODE...])
//           | 'heal'
//
// TIME and P are doubles (sim time units / probability in [0,1]); NODE is a
// 0-based node index; TYPE is a registered message-type name ("PRIVILEGE"),
// and '*' stands for every type: 'lose-next *' drops the next message of
// any type.
// A 'loss' with 'until=' reverts at that time: a per-type window clears the
// override (back to the global rate), a global ('*') window restores the
// global rate captured when the window opened.
//
// 'dup-next' mirrors 'lose-next' but injects one extra copy of the matched
// message instead of dropping it; stack several to get several duplicates
// of the same frame.  'reorder-window t=<a>..<b>' is verb-first: the window
// start is the fire time, and while it is open the network routes alternate
// messages over a slower path so they overtake their successors (see
// FaultInjector::reorder_penalty).  Both exist to exercise a reliable
// transport's dedup and resequencing machinery.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmx::fault {

struct FaultAction {
  enum class Kind {
    kCrash,
    kRestart,
    kLoseNext,
    kDupNext,
    kSetLoss,
    kReorderWindow,
    kPartition,
    kHeal,
  };

  double at = 0.0;  ///< Absolute sim time (units) the action fires.
  Kind kind = Kind::kHeal;
  int node = -1;          ///< crash / restart target.
  std::string msg_type;   ///< lose-next / dup-next / loss; "*" = any type.
  int src = -1;           ///< lose-next / dup-next 'from=' filter (-1 = any).
  int dst = -1;           ///< lose-next / dup-next 'to=' filter (-1 = any).
  double probability = 0.0;  ///< loss rate.
  double until = -1.0;       ///< loss / reorder window end (< 0 = open-ended).
  std::vector<std::vector<int>> groups;  ///< partition groups.

  /// True for actions that disturb the system (open a recovery window):
  /// crash, lose-next, partition, reorder-window, and loss with p > 0.
  /// restart / heal / loss 0 are healing actions, and dup-next only adds an
  /// extra copy — nothing an algorithm was waiting on goes missing.
  [[nodiscard]] bool disruptive() const;

  /// Round-trips through parse(): "t=5000 crash 3".
  [[nodiscard]] std::string describe() const;
};

/// An ordered fault schedule.  Actions are kept sorted by time (stable for
/// equal times, preserving spec order).
struct FaultPlan {
  std::vector<FaultAction> actions;

  [[nodiscard]] bool empty() const { return actions.empty(); }
  [[nodiscard]] std::size_t size() const { return actions.size(); }

  /// Parse the compact spec grammar above; throws std::invalid_argument
  /// with a pointed message on any syntax error.  Node indices and
  /// message-type names are checked by validate(), not here: parsing needs
  /// neither the cluster size nor the message registry.
  static FaultPlan parse(std::string_view spec);

  /// Every way the plan does not fit a cluster of `n_nodes`, one message
  /// each: a crash/restart node, a lose-next/dup-next from=/to= node or a
  /// partition node outside the cluster, an empty partition group, and a
  /// message type that is neither registered nor '*'.  Empty if the plan
  /// fits.  The one check behind ExperimentConfig::validate(),
  /// VerifyConfig and CampaignRunner::start().
  [[nodiscard]] std::vector<std::string> validate(std::size_t n_nodes) const;

  /// Spec string that parses back to this plan.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace dmx::fault
