#include "mutex/safety_monitor.hpp"

#include <stdexcept>
#include <utility>

namespace dmx::mutex {

void SafetyMonitor::on_enter(net::NodeId node, sim::SimTime t) {
  ++entries_;
  ++occupancy_;
  if (occupancy_ > max_occupancy_) max_occupancy_ = occupancy_;
  if (occupancy_ > 1) {
    Violation v;
    v.kind = Violation::Kind::kMutualExclusion;
    v.time = t;
    v.nodes = {occupant_, node};
    if (v.nodes[0].value() > v.nodes[1].value()) {
      std::swap(v.nodes[0], v.nodes[1]);
    }
    v.detail = "node " + std::to_string(node.value()) + " entered CS at t=" +
               t.to_string() + " while node " +
               std::to_string(occupant_.value()) + " was inside";
    occupant_ = node;  // update before a possible fail-fast throw
    record_violation(std::move(v));
    return;
  }
  occupant_ = node;
}

void SafetyMonitor::on_exit(net::NodeId node, sim::SimTime t) {
  if (occupancy_ <= 0) {
    Violation v;
    v.kind = Violation::Kind::kPhantomExit;
    v.time = t;
    v.nodes = {node};
    v.detail = "node " + std::to_string(node.value()) + " exited CS at t=" +
               t.to_string() + " with nobody inside";
    record_violation(std::move(v));
    return;
  }
  --occupancy_;
}

void SafetyMonitor::record_violation(Violation v) {
  ++violations_;
  std::string described;
  if (policy_ == Policy::kFailFast) described = v.describe();
  if (reports_.size() < kMaxReports) reports_.push_back(std::move(v));
  if (policy_ == Policy::kFailFast) {
    throw std::logic_error("mutual exclusion violated: " + described);
  }
}

}  // namespace dmx::mutex
