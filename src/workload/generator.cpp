#include "workload/generator.hpp"

#include <stdexcept>

namespace dmx::workload {

OpenLoopGenerator::OpenLoopGenerator(
    sim::Simulator& sim, std::vector<mutex::CsDriver*> drivers,
    std::vector<std::unique_ptr<ArrivalProcess>> processes,
    std::uint64_t total_requests, std::uint64_t seed)
    : sim_(sim), drivers_(std::move(drivers)), processes_(std::move(processes)),
      per_node_count_(drivers_.size(), 0), total_requests_(total_requests) {
  if (drivers_.size() != processes_.size()) {
    throw std::invalid_argument(
        "OpenLoopGenerator: drivers/processes size mismatch");
  }
  sim::Rng root(seed);
  rngs_.reserve(drivers_.size());
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (drivers_[i] == nullptr || processes_[i] == nullptr) {
      throw std::invalid_argument("OpenLoopGenerator: null driver or process");
    }
    rngs_.push_back(root.fork());
  }
}

void OpenLoopGenerator::start() {
  for (std::size_t i = 0; i < drivers_.size(); ++i) schedule_next(i);
}

void OpenLoopGenerator::schedule_next(std::size_t node) {
  if (submitted_ >= total_requests_) return;
  const sim::SimTime gap = processes_[node]->next_gap(rngs_[node]);
  sim_.schedule_after(gap, [this, node] {
    if (submitted_ >= total_requests_) return;
    ++submitted_;
    const std::uint64_t k = ++per_node_count_[node];
    const int prio = priority_fn_ ? priority_fn_(node, k) : 0;
    drivers_[node]->submit(prio);
    schedule_next(node);
  });
}

}  // namespace dmx::workload
