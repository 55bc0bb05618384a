// Shared plumbing for the figure/table reproduction benches.
//
// Each bench binary regenerates one artifact of the paper's evaluation
// (Figures 3-6 or a claims table) by sweeping the simulator and printing the
// same rows/series the paper plots, with 95% confidence intervals across
// replicated seeds.  Environment knobs:
//   DMX_BENCH_REQUESTS      requests per point   (default 100000)
//   DMX_BENCH_REPLICATIONS  seeds per point      (default 3)
//   DMX_BENCH_JOBS          worker threads per point (default 1 = serial,
//                           0 = one per hardware thread); results are
//                           byte-identical for every value
// A knob that is not a whole number, or a request or seed count of 0, is a
// usage error: the bench exits 2 naming the variable.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/models.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "stats/confidence.hpp"

namespace dmx::bench {

/// The whole number the environment variable `var` holds, at least `min`;
/// `fallback` when it is unset.  Anything else exits 2 naming `var`.
inline std::uint64_t env_count(const char* var, std::uint64_t fallback,
                               std::uint64_t min) {
  const char* env = std::getenv(var);
  if (env == nullptr) return fallback;
  try {
    const std::uint64_t v = harness::parse_u64(var, env);
    if (v >= min) return v;
    std::cerr << var << " must be at least " << min << ", got " << env;
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what();
  }
  std::cerr << "\n\nusage: [DMX_BENCH_REQUESTS=K] [DMX_BENCH_REPLICATIONS=R] "
               "[DMX_BENCH_JOBS=J] BENCH\n";
  std::exit(2);
}

inline std::uint64_t requests_per_point() {
  return env_count("DMX_BENCH_REQUESTS", 100'000, 1);
}

inline std::size_t replications() {
  return static_cast<std::size_t>(env_count("DMX_BENCH_REPLICATIONS", 3, 1));
}

/// Seed-replication fan-out width (harness::ParallelRunner workers).
inline std::size_t bench_jobs() {
  return static_cast<std::size_t>(env_count("DMX_BENCH_JOBS", 1, 0));
}

/// The paper's lambda sweep (requests/second/node, N = 10): light load
/// through saturation (the system-wide service capacity with
/// T_exec = T_msg = 0.1 is ~5 CS/unit, i.e. ~0.5 per node).
inline std::vector<double> lambda_grid() {
  return {0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0};
}

/// Aggregate of replicated runs at one sweep point.
struct PointSummary {
  stats::MeanCi messages;
  stats::MeanCi service;
  stats::MeanCi sojourn;
  stats::MeanCi forwarded_fraction;       ///< Of REQUEST transmissions.
  stats::MeanCi forwarded_fraction_all;   ///< Of all messages (paper's "4%").
  std::uint64_t safety_violations = 0;
  bool all_drained = true;
};

inline PointSummary summarize(const std::vector<harness::ExperimentResult>& runs) {
  stats::Welford msgs, svc, soj, fwd, fwd_all;
  PointSummary p;
  for (const auto& r : runs) {
    msgs.add(r.messages_per_cs);
    svc.add(r.service_time.mean());
    soj.add(r.sojourn_time.mean());
    fwd.add(r.forwarded_fraction_of_requests);
    fwd_all.add(r.forwarded_fraction_of_all);
    p.safety_violations += r.safety_violations;
    p.all_drained = p.all_drained && r.drained;
  }
  p.messages = stats::mean_ci_95(msgs);
  p.service = stats::mean_ci_95(svc);
  p.sojourn = stats::mean_ci_95(soj);
  p.forwarded_fraction = stats::mean_ci_95(fwd);
  p.forwarded_fraction_all = stats::mean_ci_95(fwd_all);
  return p;
}

inline PointSummary run_point(harness::ExperimentConfig cfg) {
  cfg.total_requests = requests_per_point();
  cfg.jobs = bench_jobs();
  return summarize(harness::run_replicated(cfg, replications()));
}

inline void print_header(const std::string& title, const std::string& blurb) {
  // Every knob is read before the first line, so a bad one prints no table.
  const std::uint64_t requests = requests_per_point();
  const std::size_t seeds = replications();
  (void)bench_jobs();
  std::cout << "\n=== " << title << " ===\n" << blurb << "\n"
            << "(requests/point=" << requests << ", seeds/point=" << seeds
            << ", 95% CIs)\n\n";
}

}  // namespace dmx::bench
