// Seeded pseudo-random number generation for simulations.
//
// All stochastic behaviour in the library flows through a single Rng instance
// per simulation so that a (seed, configuration) pair fully determines a run.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>

#include "sim/time.hpp"

namespace dmx::sim {

/// Deterministic random source.  Thin wrapper around mt19937_64 exposing the
/// distributions the workloads and delay models need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    if (hi < lo) throw std::invalid_argument("Rng::uniform: hi < lo");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) {
    if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Exponentially distributed duration with mean `mean`.
  SimTime exponential_time(SimTime mean) {
    return SimTime::units(exponential(1.0 / mean.to_units()));
  }

  /// Uniformly distributed duration in [lo, hi).
  SimTime uniform_time(SimTime lo, SimTime hi) {
    return SimTime::units(uniform(lo.to_units(), hi.to_units()));
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform01() < p; }

  /// Derive an independent child generator (e.g. one per node) such that the
  /// child streams do not overlap the parent stream in practice.
  Rng fork() {
    const std::uint64_t s =
        engine_() ^ 0x9e3779b97f4a7c15ULL;  // golden-ratio scramble
    return Rng(s);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dmx::sim
