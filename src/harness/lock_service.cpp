#include "harness/lock_service.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "mutex/lock_space.hpp"
#include "mutex/registry.hpp"
#include "workload/arrivals.hpp"
#include "workload/closed_loop.hpp"
#include "workload/zipf.hpp"

namespace dmx::harness {

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string msg = "LockServiceConfig invalid:";
  for (const auto& e : errors) {
    msg += "\n  - ";
    msg += e;
  }
  return msg;
}

/// One shard, in isolation: its own LockSpace (1 resource) driven by a
/// closed-loop client population until the shard's demand budget drains.
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

  mutex::LockSpaceSpec spec;
  spec.algorithm = out.algorithm;
  spec.n_nodes = out.nodes;
  spec.n_resources = 1;
  spec.t_msg = cfg.t_msg;
  spec.t_exec = cfg.t_exec;
  spec.params = cfg.params;
  spec.seed = shard_seed;
  spec.batch_size = cfg.batch_size;
  spec.collect_spans = true;
  if (r == 0) spec.trace_sink = cfg.trace_sink;
  mutex::LockSpace space(std::move(spec));

  // Closed-loop clients: one per node, submitting through the redesigned
  // acquire() API; the on_released hook is the resubmission signal.
  std::vector<workload::ClosedLoopGenerator::SubmitFn> submit;
  std::vector<std::unique_ptr<workload::ArrivalProcess>> think;
  submit.reserve(out.nodes);
  think.reserve(out.nodes);
  for (std::size_t i = 0; i < out.nodes; ++i) {
    submit.emplace_back([&space, i] { space.acquire(i, 0); });
    think.push_back(
        std::make_unique<workload::PoissonArrivals>(1.0 / cfg.think_mean));
  }
  workload::ClosedLoopGenerator gen(space.simulator(), std::move(submit),
                                    std::move(think), demand,
                                    shard_seed * 31 + 7);
  space.set_on_released([&gen](const mutex::LockEvent& e) {
    gen.notify_complete(e.node);
  });
  gen.start();
  space.simulator().run();

  out.completed = space.completed(0);
  out.messages = space.messages(0);
  out.messages_per_cs =
      out.completed == 0
          ? 0.0
          : static_cast<double>(out.messages) / static_cast<double>(out.completed);
  out.safety_violations = space.safety_violations();
  out.drained = out.completed == demand;
  out.sim_duration_units = space.simulator().now().to_units();

  const obs::SpanReport* spans = space.span_report(0);
  if (spans != nullptr && spans->completed > 0) {
    out.grant_mean = spans->grant_wait.moments.mean();
    out.grant_p50 = spans->grant_wait.hist.quantile(0.50);
    out.grant_p99 = spans->grant_wait.hist.quantile(0.99);
  }
  // With fewer demands than clients, even a perfectly fair service leaves
  // some clients at zero; the index is not meaningful there.
  out.fairness =
      demand < out.nodes ? 1.0 : jain_fairness(space.completions_per_node(0));
  return out;
}

}  // namespace

std::vector<std::string> LockServiceConfig::validate() const {
  std::vector<std::string> errors;
  auto& registry = mutex::Registry::instance();
  if (n_resources == 0) errors.push_back("n_resources must be > 0");
  if (zipf_s < 0.0) errors.push_back("zipf_s must be >= 0");
  if (total_demands == 0) errors.push_back("total_demands must be > 0");
  if (hot_nodes == 0) errors.push_back("hot_nodes must be > 0");
  if (cold_nodes == 0) errors.push_back("cold_nodes must be > 0");
  if (t_msg <= 0.0) errors.push_back("t_msg must be > 0");
  if (t_exec <= 0.0) errors.push_back("t_exec must be > 0");
  if (think_mean <= 0.0) errors.push_back("think_mean must be > 0");
  if (!registry.contains(hot_algorithm)) {
    errors.push_back("hot algorithm not registered: " + hot_algorithm);
  }
  if (!registry.contains(cold_algorithm)) {
    errors.push_back("cold algorithm not registered: " + cold_algorithm);
  }
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
