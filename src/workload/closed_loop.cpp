#include "workload/closed_loop.hpp"

#include <stdexcept>
#include <utility>

namespace dmx::workload {

ClosedLoopGenerator::ClosedLoopGenerator(
    sim::Simulator& sim, std::vector<mutex::CsDriver*> drivers,
    std::vector<std::unique_ptr<ArrivalProcess>> think,
    std::uint64_t total_requests, std::uint64_t seed)
    : sim_(sim), drivers_(std::move(drivers)), think_(std::move(think)),
      total_requests_(total_requests) {
  if (drivers_.size() != think_.size()) {
    throw std::invalid_argument("ClosedLoopGenerator: size mismatch");
  }
  sim::Rng root(seed);
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (drivers_[i] == nullptr) {
      throw std::invalid_argument("ClosedLoopGenerator: null driver");
    }
    if (think_[i] == nullptr) {
      throw std::invalid_argument("ClosedLoopGenerator: null think process");
    }
    rngs_.push_back(root.fork());
  }
  // Resubmission loop: the next think period starts when a CS completes.
  // Installed only once every entry is valid, so a throw above leaves no
  // driver calling into a generator that was never built.
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    drivers_[i]->set_completion_callback(
        [this, i](const mutex::CsRequest&) { think_then_submit(i); });
  }
}

void ClosedLoopGenerator::start() {
  for (std::size_t i = 0; i < drivers_.size(); ++i) think_then_submit(i);
}

void ClosedLoopGenerator::think_then_submit(std::size_t node) {
  if (submitted_ >= total_requests_) return;
  const sim::SimTime gap = think_[node]->next_gap(rngs_[node]);
  sim_.schedule_after(gap, [this, node] {
    if (submitted_ >= total_requests_) return;
    ++submitted_;
    drivers_[node]->submit();
  });
}

}  // namespace dmx::workload
