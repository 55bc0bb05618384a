// Sharded lock service: many independent locks, skewed (hot-key) demand.
//
// A distributed storage system guards each shard with its own lock.  Demand
// is Zipf-ish: shard 0 is hot, the tail is cold.  Each shard runs a full
// instance of the chosen mutual exclusion protocol on a shared virtual
// clock (mutex::LockSpace), so the example shows (a) cross-shard
// parallelism, (b) how each algorithm's message bill scales with per-shard
// load — the arbiter algorithm gets *cheaper* per CS on the hot shard
// (batching!) while permission-based schemes do not.
#include <iostream>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/lock_space.hpp"
#include "sim/rng.hpp"

namespace {

struct ShardReport {
  std::vector<std::uint64_t> completed;
  std::vector<double> msgs_per_cs;
  std::vector<double> mean_wait;
  int max_parallel = 0;
  std::uint64_t violations = 0;
};

ShardReport run(const std::string& algorithm, std::uint64_t total_ops) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  mutex::LockSpaceSpec spec;
  spec.algorithm = algorithm;
  spec.n_nodes = 8;
  spec.n_resources = 4;
  spec.t_exec = 0.05;
  spec.seed = 77;
  mutex::LockSpace space(spec);

  // Skewed shard popularity: 8 : 4 : 2 : 1.
  const std::vector<double> weights = {8.0, 4.0, 2.0, 1.0};
  sim::Rng rng(31);
  double t = 0.0;
  for (std::uint64_t k = 0; k < total_ops; ++k) {
    t += rng.exponential(4.0);  // aggregate demand: 4 ops per time unit
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const std::size_t shard = rng.weighted_index(weights);
    space.simulator().schedule_at(
        sim::SimTime::units(t),
        [&space, node, shard] { space.acquire(node, shard); });
  }
  space.simulator().run();

  ShardReport rep;
  for (std::size_t s = 0; s < 4; ++s) {
    rep.completed.push_back(space.completed(s));
    rep.msgs_per_cs.push_back(
        space.completed(s) > 0
            ? static_cast<double>(space.messages(s)) /
                  static_cast<double>(space.completed(s))
            : 0.0);
    rep.mean_wait.push_back(space.sojourn(s).mean());
  }
  rep.max_parallel = space.max_parallel_grants();
  rep.violations = space.safety_violations();
  return rep;
}

}  // namespace

int main() {
  using namespace dmx;
  const std::uint64_t kOps = 20'000;
  std::cout << "Sharded lock service: 8 nodes, 4 shards with 8:4:2:1 demand "
               "skew, "
            << kOps << " lock operations\n\n";

  for (const std::string algo : {"arbiter-tp", "ricart-agrawala"}) {
    const auto rep = run(algo, kOps);
    std::cout << "algorithm: " << algo
              << "   (max concurrent shard grants: " << rep.max_parallel
              << ", safety violations: " << rep.violations << ")\n";
    harness::Table table({"shard", "ops", "msgs/op", "mean lock wait"});
    for (std::size_t s = 0; s < 4; ++s) {
      table.add_row({harness::Table::integer(s),
                     harness::Table::integer(rep.completed[s]),
                     harness::Table::num(rep.msgs_per_cs[s], 2),
                     harness::Table::num(rep.mean_wait[s], 3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "The arbiter algorithm amortizes its NEW-ARBITER broadcast "
               "over the hot shard's\nbatches (msgs/op falls with load); "
               "Ricart-Agrawala pays 2(N-1) on every shard.\n";
  return 0;
}
