#include "net/fault_injector.hpp"

#include <stdexcept>

namespace dmx::net {

void FaultInjector::set_loss_probability(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("loss probability must be in [0,1]");
  }
  global_loss_ = p;
}

void FaultInjector::set_loss_probability(MsgKind kind, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("loss probability must be in [0,1]");
  }
  if (!kind.valid()) {
    throw std::invalid_argument("loss probability for invalid message kind");
  }
  if (kind.index() >= per_kind_loss_.size()) {
    per_kind_loss_.resize(kind.index() + 1, kUnsetLoss);
  }
  per_kind_loss_[kind.index()] = p;
  any_per_kind_loss_ = true;
}

void FaultInjector::set_loss_probability(std::string_view type_name,
                                         double p) {
  set_loss_probability(MsgKindRegistry::instance().intern(type_name), p);
}

void FaultInjector::clear_loss_probability(MsgKind kind) {
  if (!kind.valid() || kind.index() >= per_kind_loss_.size()) return;
  per_kind_loss_[kind.index()] = kUnsetLoss;
}

double FaultInjector::loss_probability(MsgKind kind) const {
  if (any_per_kind_loss_ && kind.valid() &&
      kind.index() < per_kind_loss_.size() &&
      per_kind_loss_[kind.index()] >= 0.0) {
    return per_kind_loss_[kind.index()];
  }
  return global_loss_;
}

bool FaultInjector::one_shot_pending(std::uint64_t id) const {
  for (const auto* list : {&one_shots_, &dup_one_shots_}) {
    for (const auto& os : *list) {
      if (os.id == id) return true;
    }
  }
  return false;
}

bool FaultInjector::OneShot::matches(const Envelope& env) const {
  if (kind.valid() && env.payload->fault_target().kind() != kind) {
    return false;
  }
  if (src.valid() && env.src != src) return false;
  if (dst.valid() && env.dst != dst) return false;
  return true;
}

std::uint64_t FaultInjector::add_one_shot(std::vector<OneShot>& list,
                                          std::string_view type_name,
                                          NodeId src, NodeId dst) {
  const std::uint64_t id = next_one_shot_id_++;
  const MsgKind kind = type_name == "*"
                           ? MsgKind{}
                           : MsgKindRegistry::instance().intern(type_name);
  list.push_back(OneShot{id, kind, src, dst});
  return id;
}

std::uint64_t FaultInjector::drop_next_of_type(std::string_view type_name,
                                               NodeId src, NodeId dst) {
  return add_one_shot(one_shots_, type_name, src, dst);
}

std::uint64_t FaultInjector::duplicate_next_of_type(std::string_view type_name,
                                                    NodeId src, NodeId dst) {
  return add_one_shot(dup_one_shots_, type_name, src, dst);
}

std::size_t FaultInjector::duplicate_copies(const Envelope& env) {
  if (dup_one_shots_.empty()) return 0;
  std::size_t copies = 0;
  std::erase_if(dup_one_shots_, [&](const OneShot& os) {
    if (!os.matches(env)) return false;
    ++copies;
    return true;
  });
  duplicates_injected_ += copies;
  return copies;
}

sim::SimTime FaultInjector::reorder_penalty(sim::SimTime base_latency) {
  if (!reorder_active_) return sim::SimTime::zero();
  // Alternate messages take a path 2x slower: with the simulator's FIFO
  // tie-breaking this makes every delayed message arrive strictly after the
  // (later-sent) next message on the same link.  No RNG draw: an inactive
  // window is invisible to the loss stream.
  reorder_toggle_ = !reorder_toggle_;
  if (!reorder_toggle_) return sim::SimTime::zero();
  return base_latency * 2;
}

void FaultInjector::set_node_down(NodeId node, bool down) {
  if (!node.valid()) {
    throw std::invalid_argument("FaultInjector::set_node_down: invalid node");
  }
  if (node.index() >= down_.size()) {
    if (!down) return;
    down_.resize(node.index() + 1, 0);
  }
  down_[node.index()] = down ? 1 : 0;
}

void FaultInjector::set_partition(std::vector<std::vector<NodeId>> groups) {
  group_of_.clear();
  int g = 0;
  for (const auto& group : groups) {
    for (NodeId n : group) group_of_[n] = g;
    ++g;
  }
}

DropReason FaultInjector::classify(const Envelope& env, sim::Rng& rng) {
  // First matching cause wins; checks that consume state (one-shots, the
  // RNG draw) come after the static endpoint checks, so a message that was
  // doomed anyway neither retires a one-shot nor perturbs the loss stream.
  if (is_node_down(env.src) || is_node_down(env.dst)) {
    return DropReason::kNodeDown;
  }
  if (!group_of_.empty()) {
    auto a = group_of_.find(env.src);
    auto b = group_of_.find(env.dst);
    const int ga = a == group_of_.end() ? -1 : a->second;
    const int gb = b == group_of_.end() ? -1 : b->second;
    if (ga != gb) return DropReason::kPartition;
  }
  for (auto it = one_shots_.begin(); it != one_shots_.end(); ++it) {
    if (it->matches(env)) {
      one_shots_.erase(it);
      ++os_fired_;
      return DropReason::kOneShot;
    }
  }
  double p = global_loss_;
  if (any_per_kind_loss_) {
    const std::size_t i = env.payload->fault_target().kind().index();
    if (i < per_kind_loss_.size() && per_kind_loss_[i] >= 0.0) {
      p = per_kind_loss_[i];
    }
  }
  if (p > 0.0 && rng.chance(p)) return DropReason::kRandomLoss;
  return DropReason::kNone;
}

void FaultInjector::count_drop(DropReason r) {
  ++dropped_;
  ++dropped_by_reason_[static_cast<std::size_t>(r)];
}

bool FaultInjector::should_drop(const Envelope& env, sim::Rng& rng) {
  const DropReason r = classify(env, rng);
  if (r == DropReason::kNone) return false;
  count_drop(r);
  return true;
}

bool FaultInjector::should_drop_at_delivery(const Envelope& env) {
  if (!is_node_down(env.dst)) return false;
  count_drop(DropReason::kNodeDown);
  return true;
}

}  // namespace dmx::net
