#include "fault/campaign.hpp"

#include <stdexcept>
#include <utility>

#include "fault/events.hpp"
#include "net/fault_injector.hpp"
#include "net/msg_kind.hpp"
#include "obs/tracer.hpp"

namespace dmx::fault {

namespace {

net::NodeId to_node(int n) {
  return n < 0 ? net::NodeId{} : net::NodeId{static_cast<std::int32_t>(n)};
}

}  // namespace

CampaignRunner::CampaignRunner(runtime::Cluster& cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)) {}

void CampaignRunner::start() {
  if (started_) throw std::logic_error("CampaignRunner::start: already started");
  if (const std::vector<std::string> errors = plan_.validate(cluster_.size());
      !errors.empty()) {
    throw std::invalid_argument(errors.front());
  }
  for (const FaultAction& a : plan_.actions) {
    if (a.at < cluster_.simulator().now().to_units()) {
      throw std::invalid_argument("fault plan: action '" + a.describe() +
                                  "' is scheduled in the past");
    }
  }
  started_ = true;
  events_.reserve(plan_.size());
  for (const FaultAction& a : plan_.actions) {
    events_.push_back(cluster_.simulator().schedule_at(
        sim::SimTime::units(a.at), [this, &a] { execute(a); }));
  }
}

void CampaignRunner::cancel() {
  for (sim::EventId ev : events_) cluster_.simulator().cancel(ev);
  events_.clear();
}

std::size_t CampaignRunner::unfired_targeted_drops() const {
  const auto& faults = cluster_.network().faults();
  std::size_t unfired = 0;
  for (std::uint64_t id : one_shot_ids_) {
    if (faults.one_shot_pending(id)) ++unfired;
  }
  return unfired;
}

void CampaignRunner::execute(const FaultAction& action) {
  auto& faults = cluster_.network().faults();
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
      cluster_.crash_node(to_node(action.node));
      break;
    case FaultAction::Kind::kRestart:
      cluster_.restart_node(to_node(action.node));
      break;
    case FaultAction::Kind::kLoseNext:
      one_shot_ids_.push_back(faults.drop_next_of_type(
          action.msg_type, to_node(action.src), to_node(action.dst)));
      break;
    case FaultAction::Kind::kDupNext:
      // Tracked with the drop one-shots: a dup-next that never matches is
      // the same campaign misfire as a lose-next that never matches.
      one_shot_ids_.push_back(faults.duplicate_next_of_type(
          action.msg_type, to_node(action.src), to_node(action.dst)));
      break;
    case FaultAction::Kind::kSetLoss:
      if (action.msg_type == "*") {
        const double previous = faults.global_loss_probability();
        faults.set_loss_probability(action.probability);
        if (action.until >= 0.0) {
          events_.push_back(cluster_.simulator().schedule_at(
              sim::SimTime::units(action.until), [this, previous] {
                cluster_.network().faults().set_loss_probability(previous);
              }));
        }
      } else {
        const net::MsgKind kind =
            net::MsgKindRegistry::instance().intern(action.msg_type);
        faults.set_loss_probability(kind, action.probability);
        if (action.until >= 0.0) {
          events_.push_back(cluster_.simulator().schedule_at(
              sim::SimTime::units(action.until), [this, kind] {
                cluster_.network().faults().clear_loss_probability(kind);
              }));
        }
      }
      break;
    case FaultAction::Kind::kPartition: {
      std::vector<std::vector<net::NodeId>> groups;
      groups.reserve(action.groups.size());
      for (const auto& group : action.groups) {
        std::vector<net::NodeId>& out = groups.emplace_back();
        out.reserve(group.size());
        for (int n : group) out.push_back(to_node(n));
      }
      faults.set_partition(std::move(groups));
      break;
    }
    case FaultAction::Kind::kReorderWindow:
      faults.set_reorder(true);
      events_.push_back(cluster_.simulator().schedule_at(
          sim::SimTime::units(action.until),
          [this] { cluster_.network().faults().set_reorder(false); }));
      break;
    case FaultAction::Kind::kHeal:
      faults.heal_partition();
      break;
  }
  ++executed_;
  log_.push_back(action.describe());
  const obs::Tracer& tracer = cluster_.tracer();
  if (tracer.enabled()) {
    const auto fmt = [&action] { return action.describe(); };
    tracer.write(
        obs::Event{cluster_.simulator().now(), kEvFaultInjected,
                   action.node >= 0 ? action.node : -1, 0,
                   static_cast<std::int64_t>(action.kind), 0.0},
        obs::DetailRef(fmt));
  }
  if (observer_) observer_(cluster_.simulator().now(), action);
}

}  // namespace dmx::fault
