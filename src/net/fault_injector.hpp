// Message- and node-level fault injection.
//
// Section 6 of the paper analyses lost requests, lost tokens, crashed token
// holders and crashed arbiters.  The injector lets experiments create exactly
// those situations: probabilistic message loss (global or per message kind),
// one-shot targeted drops ("drop the next PRIVILEGE message"), network
// partitions, and downed nodes (fail-silent: nothing in or out).
//
// Per-type loss is stored as a kind-indexed table: the per-send fate check
// is one vector index, not a string hash.  String-keyed configuration APIs
// remain (they are the stable public vocabulary) and intern the name into
// the message-kind registry, so configuring a type before its first message
// is constructed still matches later traffic.  All kind matching goes
// through Payload::fault_target(), so a reliability-layer frame wrapping a
// PRIVILEGE still counts as a PRIVILEGE for loss tables and one-shots.
//
// Beyond drops, the injector models the two other classic datagram sins:
// duplication (duplicate_next_of_type: every matching one-shot stacks one
// extra delivery of the frame) and reordering (a window during which
// alternate sends take a longer path, overtaking their successors).  Both
// exist to exercise a reliable transport's dedup and resequencing machinery.
//
// Every drop is adjudicated in exactly one place (classify(), first match
// wins) and counted exactly once, with the cause recorded: a message between
// two down-or-partitioned endpoints increments dropped_count() once, never
// twice.  One-shot drops are observable after the fact — fired vs. pending
// counts — so a scripted fault campaign can assert its targeted drop
// actually hit a message instead of silently never matching.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/msg_kind.hpp"
#include "net/payload.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dmx::net {

/// Why a message was dropped (kNone = delivered).
enum class DropReason : std::uint8_t {
  kNone = 0,
  kNodeDown,    ///< src or dst is down at send / dst down at delivery.
  kPartition,   ///< src and dst are in different partition groups.
  kOneShot,     ///< A targeted drop_next_of_type one-shot matched.
  kRandomLoss,  ///< Probabilistic loss (global or per-kind).
};
inline constexpr std::size_t kDropReasonCount = 5;

class FaultInjector {
 public:
  /// Pre-sizes the per-kind loss table to every kind registered so far
  /// (matching Network's sent_by_kind policy): the resize branch in
  /// set_loss_probability never fires for types linked into the binary.
  FaultInjector()
      : per_kind_loss_(MsgKindRegistry::instance().size(), kUnsetLoss) {}

  /// Probability in [0,1] that any message is silently dropped.
  void set_loss_probability(double p);

  /// Per-message-kind loss probability (overrides the global one).
  void set_loss_probability(MsgKind kind, double p);

  /// Per-message-type loss probability, by name.  Interns the name: the
  /// configuration matches even if the payload type registers later.  Callers
  /// that want typo detection should check MsgKindRegistry::find() first (the
  /// experiment harness does).
  void set_loss_probability(std::string_view type_name, double p);

  /// Remove a per-kind override: the kind reverts to the global probability.
  void clear_loss_probability(MsgKind kind);

  /// Effective loss probability a message of this kind faces right now.
  [[nodiscard]] double loss_probability(MsgKind kind) const;
  [[nodiscard]] double global_loss_probability() const { return global_loss_; }

  /// One-shot drop: the next message of the given payload type, or of any
  /// type for "*" (optionally restricted to a src and/or dst), is dropped,
  /// and the one-shot retires.  Interns the name, like
  /// set_loss_probability.  Returns an id usable with one_shot_pending.
  std::uint64_t drop_next_of_type(std::string_view type_name,
                                  NodeId src = NodeId{},
                                  NodeId dst = NodeId{});

  /// One-shot observability: how many drop one-shots have fired (i.e.
  /// retired by dropping a message), how many one-shots of either flavour
  /// are still waiting, and whether a specific one is still pending (false
  /// once fired).  one_shots_pending / one_shot_pending also cover
  /// duplicate_next_of_type ids.
  [[nodiscard]] std::uint64_t one_shots_fired() const { return os_fired_; }
  [[nodiscard]] std::size_t one_shots_pending() const {
    return one_shots_.size() + dup_one_shots_.size();
  }
  [[nodiscard]] bool one_shot_pending(std::uint64_t id) const;

  /// One-shot duplication: the next (delivered) message matching type,
  /// src and dst as for drop_next_of_type is delivered twice, and the
  /// one-shot retires.  Unlike drops, duplications stack: N pending
  /// one-shots matching the same message yield N extra copies.  Returns an
  /// id usable with one_shot_pending.
  std::uint64_t duplicate_next_of_type(std::string_view type_name,
                                       NodeId src = NodeId{},
                                       NodeId dst = NodeId{});

  /// Number of extra copies to inject for this (not dropped) message:
  /// retires every matching duplication one-shot.
  [[nodiscard]] std::size_t duplicate_copies(const Envelope& env);
  [[nodiscard]] std::uint64_t duplicates_injected() const {
    return duplicates_injected_;
  }

  /// Reorder window: while active, the network routes alternate messages
  /// over a slower path so they overtake their successors (see
  /// Network::send).  reorder_penalty() is called by the network per
  /// eligible send and returns the extra latency (zero for every other
  /// message); it never touches the RNG, so toggling a window does not
  /// perturb the loss stream.
  void set_reorder(bool active) { reorder_active_ = active; }
  [[nodiscard]] sim::SimTime reorder_penalty(sim::SimTime base_latency);

  /// Mark a node as down (fail-silent) / back up.
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool is_node_down(NodeId node) const {
    return node.index() < down_.size() && down_[node.index()] != 0;
  }

  /// Partition the network into groups; messages may only flow within a
  /// group.  An empty partition list removes the partition.
  void set_partition(std::vector<std::vector<NodeId>> groups);
  void heal_partition() { group_of_.clear(); }
  [[nodiscard]] bool partitioned() const { return !group_of_.empty(); }

  /// Decide the fate of a message about to be sent.  Mutates one-shot state;
  /// uses rng for probabilistic loss.  Counts at most one drop.
  bool should_drop(const Envelope& env, sim::Rng& rng);

  /// Delivery-time fate re-check: the destination may have gone down while
  /// the message was in flight.  Counts (once) as a kNodeDown drop.  A
  /// message already dropped at send time never reaches this check, so no
  /// message is ever counted twice.
  bool should_drop_at_delivery(const Envelope& env);

  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  [[nodiscard]] std::uint64_t dropped_count(DropReason r) const {
    return dropped_by_reason_[static_cast<std::size_t>(r)];
  }

 private:
  static constexpr double kUnsetLoss = -1.0;

  /// Single adjudication point: first matching cause wins.
  DropReason classify(const Envelope& env, sim::Rng& rng);
  void count_drop(DropReason r);

  double global_loss_ = 0.0;
  std::vector<double> per_kind_loss_;  ///< kind index -> p; kUnsetLoss = none.
  bool any_per_kind_loss_ = false;
  /// A targeted one-shot: the next message of `kind` (matched on the
  /// logical payload, so transport frames count as what they carry) from
  /// `src` to `dst`; an invalid kind ("*") matches any message, and an
  /// invalid src or dst any node.
  struct OneShot {
    std::uint64_t id;
    MsgKind kind;
    NodeId src;
    NodeId dst;

    [[nodiscard]] bool matches(const Envelope& env) const;
  };
  std::uint64_t add_one_shot(std::vector<OneShot>& list,
                             std::string_view type_name, NodeId src,
                             NodeId dst);
  std::vector<OneShot> one_shots_;
  std::vector<OneShot> dup_one_shots_;
  std::uint64_t next_one_shot_id_ = 1;
  std::uint64_t os_fired_ = 0;
  std::uint64_t duplicates_injected_ = 0;
  bool reorder_active_ = false;
  bool reorder_toggle_ = false;
  /// Down flag by node index, grown by set_node_down: empty, and so one
  /// compare per probe, until a node first goes down.
  std::vector<std::uint8_t> down_;
  std::unordered_map<NodeId, int> group_of_;
  std::uint64_t dropped_ = 0;
  std::array<std::uint64_t, kDropReasonCount> dropped_by_reason_{};
};

}  // namespace dmx::net
