#include "harness/lock_service.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "obs/span.hpp"
#include "workload/arrivals.hpp"
#include "workload/closed_loop.hpp"
#include "workload/zipf.hpp"

namespace dmx::harness {

namespace {

/// Upper edge of every span phase histogram (time units).
constexpr double kSpanHistMax = 1000.0;

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "LockServiceConfig invalid:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

/// One shard, in isolation: its own MutexCluster driven by a closed-loop
/// client population until the shard's demand budget drains.
ShardResult run_shard(const LockServiceConfig& cfg, std::size_t r,
                      std::uint64_t demand, bool hot) {
  ShardResult out;
  out.resource = r;
  out.hot = hot;
  out.algorithm = hot ? cfg.hot_algorithm : cfg.cold_algorithm;
  out.nodes = hot ? cfg.hot_nodes : cfg.cold_nodes;
  out.demand = demand;
  if (demand == 0) {
    out.drained = true;  // vacuously: nobody ever wants this resource
    return out;
  }

  // Shard r is "replication r" of the service's base seed, whether it runs
  // serially or on any worker.
  const std::uint64_t shard_seed = seed_schedule(cfg.seed, r);

  // Every shard collects the request spans its time-to-grant SLOs come
  // from; shard 0 also forwards its events to the service's trace sink.
  const auto spans = std::make_shared<obs::SpanCollector>(
      r == 0 ? cfg.trace_sink : nullptr, kSpanHistMax);
  mutex::MutexCluster mc(
      out.algorithm, out.nodes, cfg.params, sim::SimTime::units(cfg.t_exec),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(cfg.t_msg)),
      shard_seed * 7919, obs::Tracer(spans));

  // Closed-loop clients, one per node: each thinks ~Exp(think_mean),
  // submits, and thinks again once its critical section completes.
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  think.reserve(out.nodes);
  for (std::size_t i = 0; i < out.nodes; ++i) {
    think.push_back(
        std::make_unique<workload::PoissonArrivals>(1.0 / cfg.think_mean));
  }
  workload::ClosedLoopGenerator gen(mc.simulator(), mc.drivers(),
                                    std::move(think), demand,
                                    shard_seed * 31 + 7);
  gen.start();
  mc.simulator().run();

  out.completed = mc.total_completed();
  out.messages = mc.network().stats().sent;
  out.messages_per_cs =
      out.completed == 0
          ? 0.0
          : static_cast<double>(out.messages) / static_cast<double>(out.completed);
  out.safety_violations = mc.monitor().violations();
  out.drained = out.completed == demand;
  out.sim_duration_units = mc.simulator().now().to_units();

  const obs::SpanReport& report = spans->report();
  if (report.completed > 0) {
    out.grant_mean = report.grant_wait.moments.mean();
    out.grant_p50 = report.grant_wait.hist.quantile(0.50);
    out.grant_p99 = report.grant_wait.hist.quantile(0.99);
  }
  // With fewer demands than clients, even a perfectly fair service leaves
  // some clients at zero; the index is not meaningful there.
  if (demand >= out.nodes) {
    std::vector<std::uint64_t> per_client;
    per_client.reserve(out.nodes);
    for (const mutex::CsDriver* d : mc.drivers()) {
      per_client.push_back(d->completed());
    }
    out.fairness = jain_fairness(per_client);
  }
  return out;
}

}  // namespace

std::vector<std::string> LockServiceConfig::validate() const {
  std::vector<std::string> errors;
  auto& registry = mutex::Registry::instance();
  if (n_resources == 0) errors.push_back("n_resources must be > 0");
  if (!(zipf_s >= 0.0)) errors.push_back("zipf_s must be >= 0");
  if (total_demands == 0) errors.push_back("total_demands must be > 0");
  if (hot_nodes == 0) errors.push_back("hot_nodes must be > 0");
  if (cold_nodes == 0) errors.push_back("cold_nodes must be > 0");
  if (!(t_msg > 0.0)) errors.push_back("t_msg must be > 0");
  if (!(t_exec > 0.0)) errors.push_back("t_exec must be > 0");
  if (!(think_mean > 0.0)) errors.push_back("think_mean must be > 0");
  const auto check_algorithm = [&](const std::string& shards,
                                   const std::string& algorithm,
                                   std::size_t nodes) {
    if (!registry.contains(algorithm)) {
      errors.push_back(shards + " algorithm not registered: " + algorithm);
    } else if (nodes > 0) {
      const std::string e = mutex::build_error(algorithm, nodes, params);
      if (!e.empty()) errors.push_back(shards + " shards: " + e);
    }
  };
  check_algorithm("hot", hot_algorithm, hot_nodes);
  check_algorithm("cold", cold_algorithm, cold_nodes);
  return errors;
}

double jain_fairness(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint64_t c : counts) {
    const auto x = static_cast<double>(c);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(counts.size()) * sum_sq);
}

LockServiceReport run_lock_service(const LockServiceConfig& cfg) {
  register_builtin_algorithms();
  const auto errors = cfg.validate();
  if (!errors.empty()) throw std::invalid_argument(join_errors(errors));

  LockServiceReport report;
  report.total_demands = cfg.total_demands;

  // THE canonical Zipf split: every consumer of this config derives the
  // same per-shard demand vector.
  const std::vector<std::uint64_t> demand = workload::zipf_demand_vector(
      cfg.n_resources, cfg.zipf_s, cfg.total_demands, cfg.seed);

  report.shards.resize(cfg.n_resources);
  const ParallelRunner runner(cfg.jobs);
  runner.run_indexed(cfg.n_resources, [&](std::size_t r) {
    // Hot = at or above the mean per-shard demand, computed without
    // division so the classification is exact in integers.
    const bool hot =
        demand[r] * static_cast<std::uint64_t>(cfg.n_resources) >=
        cfg.total_demands;
    report.shards[r] = run_shard(cfg, r, demand[r], hot);
  });

  for (const ShardResult& s : report.shards) {
    report.total_completed += s.completed;
    report.total_messages += s.messages;
    report.safety_violations += s.safety_violations;
    if (s.hot) ++report.hot_shards;
    if (s.grant_p99 > report.grant_p99_worst) {
      report.grant_p99_worst = s.grant_p99;
    }
    if (s.fairness < report.fairness_min) report.fairness_min = s.fairness;
  }
  report.messages_per_cs =
      report.total_completed == 0
          ? 0.0
          : static_cast<double>(report.total_messages) /
                static_cast<double>(report.total_completed);
  report.drained = true;
  for (const ShardResult& s : report.shards) {
    if (!s.drained) report.drained = false;
  }
  return report;
}

}  // namespace dmx::harness
