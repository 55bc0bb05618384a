#include "verify/world.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/tracer.hpp"

namespace dmx::verify {

namespace {

// Canonical "0,1|2" rendering of partition groups for choice identity.
std::string groups_key(const std::vector<std::vector<int>>& groups) {
  std::string out;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += "|";
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(groups[g][i]);
    }
  }
  return out;
}

// Whether lose-next action `act` may drop fire choice `f`.
bool drops(const fault::FaultAction& act, const Choice& f) {
  if (f.klass != sim::EventClass::kDelivery) return false;
  if (act.msg_type != "*" && f.msg_type != act.msg_type) return false;
  if (act.src >= 0 && f.src != act.src) return false;
  return act.dst < 0 || f.node == act.dst;
}

}  // namespace

// check() also populates the algorithm registry.
World::World(const VerifyConfig& cfg, std::shared_ptr<obs::Sink> sink)
    : World(cfg, cfg.check(), std::move(sink)) {}

World::World(const VerifyConfig& cfg, std::vector<fault::FaultAction> actions,
             std::shared_ptr<obs::Sink> sink)
    : cfg_(cfg), actions_(std::move(actions)) {
  cluster_ = std::make_unique<runtime::Cluster>(
      cfg_.n_nodes,
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(cfg_.t_msg)),
      /*seed=*/1, sink ? obs::Tracer(std::move(sink)) : obs::Tracer());
  cluster_->network().set_tap([this](const net::Envelope& env, bool dropped) {
    // Sends adjudicated dead on the spot (destination already down) never
    // become pending events, so only surviving transmissions need identity.
    if (!dropped) record_send(env);
  });
  if (cfg_.reliable) {
    auto tc = net::ReliableTransportConfig::scaled_to(
        sim::SimTime::units(cfg_.t_msg));
    tc.jitter_frac = 0.0;  // keep the timer schedule seed-free
    cluster_->use_reliable_transport(tc);
  }
  action_done_.assign(actions_.size(), 0);

  algos_.reserve(cfg_.n_nodes);
  drivers_.reserve(cfg_.n_nodes);
  for (std::size_t i = 0; i < cfg_.n_nodes; ++i) {
    const net::NodeId id{static_cast<std::int32_t>(i)};
    std::unique_ptr<mutex::MutexAlgorithm> algo =
        mutex::Registry::instance().create(
            cfg_.algorithm,
            mutex::FactoryContext{id, cfg_.n_nodes, cfg_.params});
    mutex::MutexAlgorithm* raw = algo.get();
    auto driver = std::make_unique<mutex::CsDriver>(
        cluster_->simulator(), *raw, sim::SimTime::units(cfg_.t_exec),
        &monitor_, &ids_);
    driver->set_tracer(cluster_->tracer());
    cluster_->install(id, std::move(algo));
    algos_.push_back(raw);
    drivers_.push_back(std::move(driver));
  }
  cluster_->start();
  // The whole closed-system demand, round-robin at t=0: surplus beyond one
  // outstanding request per node queues inside the drivers.
  for (std::uint64_t r = 0; r < cfg_.requests_per_node; ++r) {
    for (auto& d : drivers_) d->submit();
  }
}

void World::record_send(const net::Envelope& env) {
  const net::Payload& target = env.payload->fault_target();
  const std::uint64_t key = (std::uint64_t{target.kind().index()} << 32) |
                            (std::uint64_t{env.src.index()} << 16) |
                            env.dst.index();
  auto it = std::find_if(occurrence_.begin(), occurrence_.end(),
                         [key](const auto& e) { return e.first == key; });
  if (it == occurrence_.end()) it = occurrence_.insert(it, {key, 0});
  if (env.msg_id >= msg_info_.size()) msg_info_.resize(env.msg_id + 1);
  msg_info_[env.msg_id] =
      MsgInfo{env.src.value(), target.type_name(), it->second++};
}

// The enabledness rules for pending events, stated once for enabled() and
// replay(): walks the pending set in (time, seq) order and calls
// visit(ev, info) for every event that is an enabled fire choice (`info` is
// a delivery's send record, null for timers and CS exits).  visit returns
// true to stop the walk.
template <typename Visit>
void World::visit_fires(Visit&& visit) {
  cluster_->simulator().collect_pending(pending_);
  const bool bounded = cfg_.time_slack >= 0.0;
  sim::SimTime horizon;
  if (!pending_.empty()) {
    // pending_ is sorted by (time, seq): front() is the earliest event.
    horizon = pending_.front().time + sim::SimTime::units(cfg_.time_slack);
  }
  // Bit sets over links (src * n + dst) and timer owners; n <= 4.
  std::uint64_t seen_links = 0;
  std::uint64_t timer_nodes = 0;
  for (const sim::PendingEvent& ev : pending_) {
    const MsgInfo* info = nullptr;
    switch (ev.tag.klass) {
      case sim::EventClass::kDelivery: {
        if (ev.tag.detail < msg_info_.size()) info = &msg_info_[ev.tag.detail];
        if (info == nullptr || info->src < 0) {
          throw std::logic_error("verify: pending delivery without a send "
                                 "record (tap installed too late?)");
        }
        if (cfg_.fifo_links) {
          // Only the oldest in-flight frame per link is eligible; younger
          // ones stay shadowed even when the head falls outside the slack
          // window (FIFO means they cannot overtake it).
          const std::size_t link =
              static_cast<std::size_t>(info->src) * cfg_.n_nodes +
              static_cast<std::size_t>(ev.tag.node);
          const std::uint64_t bit = std::uint64_t{1} << link;
          if ((seen_links & bit) != 0) continue;
          seen_links |= bit;
        }
        break;
      }
      case sim::EventClass::kTimer: {
        // A process's timers fire in deadline order; only its earliest is
        // a real scheduling alternative.
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<unsigned>(ev.tag.node);
        if ((timer_nodes & bit) != 0) continue;
        timer_nodes |= bit;
        break;
      }
      case sim::EventClass::kCsExit:
        break;
      default:
        throw std::logic_error(
            "verify: untagged event in a verification world");
    }
    if (bounded && ev.time > horizon) continue;
    if (visit(ev, info)) return;
  }
}

Choice World::fire_choice(const sim::PendingEvent& ev, const MsgInfo* info) {
  Choice c;
  c.klass = ev.tag.klass;
  c.node = ev.tag.node;
  c.event = ev.id;
  c.time = ev.time;
  if (info != nullptr) {
    c.src = info->src;
    c.msg_type = info->type;
    c.index = info->index;
  } else {
    c.index = ev.tag.detail;  // timer id or CS sequence
  }
  return c;
}

// Fault choices: each unconsumed plan action is available at every state
// where it applies (its t= is ignored — timing is the explorer's job).
// lose-next (the only other verb the config validator admits) applies per
// delivery instead: see drops().
bool World::fault_applies(const fault::FaultAction& act) const {
  switch (act.kind) {
    case fault::FaultAction::Kind::kCrash:
      return !algos_[static_cast<std::size_t>(act.node)]->crashed();
    case fault::FaultAction::Kind::kRestart:
      return algos_[static_cast<std::size_t>(act.node)]->crashed();
    case fault::FaultAction::Kind::kPartition:
      // A cut is a real scheduling alternative at any un-partitioned state;
      // in-flight messages keep their delivery events (a cut severs links,
      // not packets already in the air).
      return !cluster_->network().faults().partitioned();
    case fault::FaultAction::Kind::kHeal:
      return cluster_->network().faults().partitioned();
    default:
      return false;
  }
}

Choice World::fault_choice(std::size_t action) const {
  const fault::FaultAction& act = actions_[action];
  Choice c;
  c.action = static_cast<std::int32_t>(action);
  switch (act.kind) {
    case fault::FaultAction::Kind::kCrash:
      c.kind = Choice::Kind::kCrash;
      c.node = act.node;
      break;
    case fault::FaultAction::Kind::kRestart:
      c.kind = Choice::Kind::kRestart;
      c.node = act.node;
      break;
    case fault::FaultAction::Kind::kPartition:
      c.kind = Choice::Kind::kPartition;
      c.groups = groups_key(act.groups);
      break;
    default:
      c.kind = Choice::Kind::kHeal;
      break;
  }
  return c;
}

std::vector<Choice> World::enabled() {
  std::vector<Choice> out;
  visit_fires([&out](const sim::PendingEvent& ev, const MsgInfo* info) {
    out.push_back(fire_choice(ev, info));
    return false;
  });
  const std::size_t fires = out.size();
  for (std::size_t a = 0; a < actions_.size(); ++a) {
    if (action_done_[a] != 0) continue;
    const fault::FaultAction& act = actions_[a];
    if (act.kind != fault::FaultAction::Kind::kLoseNext) {
      if (fault_applies(act)) out.push_back(fault_choice(a));
      continue;
    }
    for (std::size_t i = 0; i < fires; ++i) {
      if (!drops(act, out[i])) continue;
      Choice d = out[i];
      d.kind = Choice::Kind::kDrop;
      d.action = static_cast<std::int32_t>(a);
      out.push_back(std::move(d));
    }
  }
  // Sort by key, building each key once.  Keys are unique, so this is the
  // order a key-comparing sort gives.
  std::vector<std::pair<std::string, std::size_t>> keyed;
  keyed.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    keyed.emplace_back(out[i].key(), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<Choice> sorted;
  sorted.reserve(out.size());
  for (const auto& [key, i] : keyed) sorted.push_back(std::move(out[i]));
  return sorted;
}

std::optional<Choice> World::find_enabled(std::string_view key) {
  for (Choice& c : enabled()) {
    if (c.key() == key) return std::move(c);
  }
  return std::nullopt;
}

void World::replay(const Choice& c) {
  bool found = false;
  if (c.kind == Choice::Kind::kFire || c.kind == Choice::Kind::kDrop) {
    visit_fires([&](const sim::PendingEvent& ev, const MsgInfo* info) {
      if (ev.id != c.event) return false;
      Choice f = fire_choice(ev, info);
      if (c.kind == Choice::Kind::kDrop) {
        f.kind = Choice::Kind::kDrop;
        f.action = c.action;
      }
      found = f.time == c.time && same_choice(f, c);
      return true;
    });
    if (found && c.kind == Choice::Kind::kDrop) {
      const auto a = static_cast<std::size_t>(c.action);
      found = a < actions_.size() && action_done_[a] == 0 &&
              actions_[a].kind == fault::FaultAction::Kind::kLoseNext &&
              drops(actions_[a], c);
    }
  } else {
    const auto a = static_cast<std::size_t>(c.action);
    found = a < actions_.size() && action_done_[a] == 0 &&
            fault_applies(actions_[a]) && same_choice(fault_choice(a), c);
  }
  if (!found) {
    throw std::logic_error(
        "verify: replay diverged at step " + std::to_string(steps_) +
        " — committed choice \"" + c.key() +
        "\" is not enabled with the same event and time (nondeterministic "
        "world?)");
  }
  apply(c);
}

void World::apply(const Choice& c) {
  switch (c.kind) {
    case Choice::Kind::kFire:
      if (!cluster_->simulator().fire(c.event)) {
        throw std::logic_error("verify: fire() on an event no longer pending");
      }
      break;
    case Choice::Kind::kDrop:
      if (!cluster_->simulator().cancel(c.event)) {
        throw std::logic_error("verify: drop of an event no longer pending");
      }
      ++cluster_->network().mutable_stats().dropped;
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kCrash:
      cluster_->crash_node(net::NodeId{c.node});
      drivers_[static_cast<std::size_t>(c.node)]->on_node_crashed();
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kRestart:
      cluster_->restart_node(net::NodeId{c.node});
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    case Choice::Kind::kPartition: {
      const fault::FaultAction& act =
          actions_[static_cast<std::size_t>(c.action)];
      std::vector<std::vector<net::NodeId>> groups;
      groups.reserve(act.groups.size());
      for (const auto& group : act.groups) {
        std::vector<net::NodeId>& g = groups.emplace_back();
        g.reserve(group.size());
        for (int n : group) g.push_back(net::NodeId{n});
      }
      cluster_->network().faults().set_partition(std::move(groups));
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
    }
    case Choice::Kind::kHeal:
      cluster_->network().faults().heal_partition();
      action_done_[static_cast<std::size_t>(c.action)] = 1;
      break;
  }
  ++steps_;
}

std::optional<mutex::Violation> World::check() {
  const std::vector<mutex::Violation>& reports = monitor_.reports();
  if (consumed_reports_ < reports.size()) {
    return reports[consumed_reports_++];
  }
  std::vector<net::NodeId> holders;
  for (const mutex::MutexAlgorithm* algo : algos_) {
    if (algo->crashed()) continue;
    if (algo->holds_token().value_or(false)) holders.push_back(algo->id());
  }
  if (holders.size() > 1) {
    mutex::Violation v;
    v.kind = mutex::Violation::Kind::kTokenDuplicated;
    v.time = cluster_->simulator().now();
    v.nodes = std::move(holders);
    v.detail = std::to_string(v.nodes.size()) +
               " live nodes hold the token simultaneously";
    // Epochs tell a regenerated second token (different epochs — the
    // split-brain signature) from a plain duplication bug (same epoch).
    std::string epochs;
    for (const net::NodeId h : v.nodes) {
      const auto e = algos_[static_cast<std::size_t>(h.index())]->token_epoch();
      if (!e.has_value()) continue;
      if (!epochs.empty()) epochs += ", ";
      epochs +=
          "node " + std::to_string(h.value()) + " epoch " + std::to_string(*e);
    }
    if (!epochs.empty()) v.detail += " (" + epochs + ")";
    return v;
  }
  return std::nullopt;
}

std::optional<mutex::Violation> World::terminal_check() {
  std::vector<net::NodeId> starving;
  for (std::size_t i = 0; i < algos_.size(); ++i) {
    if (!drivers_[i]->idle() && !algos_[i]->crashed()) {
      starving.push_back(algos_[i]->id());
    }
  }
  if (starving.empty()) return std::nullopt;
  mutex::Violation v;
  v.kind = mutex::Violation::Kind::kStarvation;
  v.time = cluster_->simulator().now();
  v.nodes = std::move(starving);
  v.detail = "pending live demand with no enabled transition left";
  return v;
}

bool World::quiescent() const {
  for (const auto& d : drivers_) {
    if (!d->idle()) return false;
  }
  for (const char done : action_done_) {
    if (done == 0) return false;
  }
  return true;
}

std::string World::debug_dump() const {
  std::string out;
  for (std::size_t i = 0; i < algos_.size(); ++i) {
    out += "  node " + std::to_string(i) + ": ";
    out += algos_[i]->crashed() ? "CRASHED" : algos_[i]->debug_state();
    if (!drivers_[i]->idle()) out += " [demand pending]";
    out += "\n";
  }
  return out;
}

std::uint64_t World::completed() const {
  std::uint64_t total = 0;
  for (const auto& d : drivers_) total += d->completed();
  return total;
}

}  // namespace dmx::verify
