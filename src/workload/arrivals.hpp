// Arrival processes for critical-section demand.
//
// The paper's simulation drives each node with a Poisson process of rate
// lambda requests/second ("each of the nodes generated requests using a
// Poisson probability distribution with the same arrival rate").  We provide
// that plus deterministic and bursty (two-state on/off) processes for
// robustness studies.
#pragma once

#include <memory>
#include <stdexcept>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dmx::workload {

/// Generates successive interarrival gaps.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  [[nodiscard]] virtual sim::SimTime next_gap(sim::Rng& rng) = 0;
};

/// Poisson arrivals: exponential interarrival gaps with the given rate.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : rate_(rate) {
    if (rate <= 0.0) throw std::invalid_argument("PoissonArrivals: rate <= 0");
  }
  sim::SimTime next_gap(sim::Rng& rng) override {
    return sim::SimTime::units(rng.exponential(rate_));
  }

 private:
  double rate_;
};

/// Fixed-interval arrivals.
class DeterministicArrivals final : public ArrivalProcess {
 public:
  explicit DeterministicArrivals(sim::SimTime interval) : interval_(interval) {
    if (interval <= sim::SimTime::zero()) {
      throw std::invalid_argument("DeterministicArrivals: interval <= 0");
    }
  }
  sim::SimTime next_gap(sim::Rng&) override { return interval_; }

 private:
  sim::SimTime interval_;
};

/// Two-state Markov-modulated on/off arrivals: Poisson at `on_rate` during
/// exponentially distributed ON periods, silent during OFF periods.
class BurstyArrivals final : public ArrivalProcess {
 public:
  BurstyArrivals(double on_rate, sim::SimTime mean_on, sim::SimTime mean_off);
  sim::SimTime next_gap(sim::Rng& rng) override;

 private:
  double on_rate_;
  sim::SimTime mean_on_;
  sim::SimTime mean_off_;
  sim::SimTime remaining_on_ = sim::SimTime::zero();
};

}  // namespace dmx::workload
