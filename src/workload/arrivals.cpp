#include "workload/arrivals.hpp"

namespace dmx::workload {

BurstyArrivals::BurstyArrivals(double on_rate, sim::SimTime mean_on,
                               sim::SimTime mean_off)
    : on_rate_(on_rate), mean_on_(mean_on), mean_off_(mean_off) {
  if (on_rate <= 0.0) {
    throw std::invalid_argument("BurstyArrivals: on_rate <= 0");
  }
  if (mean_on <= sim::SimTime::zero() || mean_off < sim::SimTime::zero()) {
    throw std::invalid_argument("BurstyArrivals: bad period durations");
  }
}

sim::SimTime BurstyArrivals::next_gap(sim::Rng& rng) {
  sim::SimTime gap = sim::SimTime::zero();
  for (;;) {
    if (remaining_on_ <= sim::SimTime::zero()) {
      // Start a new cycle: an OFF pause then an ON burst window.
      gap += rng.exponential_time(mean_off_);
      remaining_on_ = rng.exponential_time(mean_on_);
    }
    const sim::SimTime candidate =
        sim::SimTime::units(rng.exponential(on_rate_));
    if (candidate <= remaining_on_) {
      remaining_on_ -= candidate;
      return gap + candidate;
    }
    // Burst window ended before the next arrival; spend it and loop.
    gap += remaining_on_;
    remaining_on_ = sim::SimTime::zero();
  }
}

}  // namespace dmx::workload
