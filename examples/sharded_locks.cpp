// Sharded lock service: many independent locks, skewed (hot-key) demand.
//
// A distributed storage system guards each shard with its own lock.  Demand
// is Zipf-ish: shard 0 is hot, the tail is cold.  Each shard is its own
// mutex::MutexCluster, a full instance of the chosen mutual exclusion
// protocol with its own clock and its own Poisson arrivals, so the example
// shows how each algorithm's message bill scales with per-shard load — the
// arbiter algorithm gets *cheaper* per CS on the hot shard (batching!)
// while permission-based schemes do not.  It exits 1 if a shard breaks
// mutual exclusion or leaves demand unserved.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "sim/rng.hpp"
#include "stats/welford.hpp"

namespace {

constexpr int kNodes = 8;

struct ShardReport {
  std::uint64_t completed = 0;
  double msgs_per_op = 0.0;
  double mean_wait = 0.0;
  std::uint64_t violations = 0;
};

/// One shard: `ops` lock operations from random nodes, arriving as a
/// Poisson stream of `rate` per time unit.
ShardReport run_shard(const std::string& algorithm, std::size_t shard,
                      std::uint64_t ops, double rate) {
  using namespace dmx;
  mutex::MutexCluster mc(
      algorithm, static_cast<std::size_t>(kNodes), {},
      sim::SimTime::units(0.05),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)),
      (77 + shard) * 7919);

  sim::Rng rng(31 + shard);
  double t = 0.0;
  for (std::uint64_t k = 0; k < ops; ++k) {
    t += rng.exponential(rate);
    const auto node = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    mc.simulator().schedule_at(sim::SimTime::units(t),
                               [&mc, node] { mc.driver(node).submit(); });
  }
  mc.simulator().run();

  ShardReport rep;
  rep.completed = mc.total_completed();
  rep.msgs_per_op = rep.completed > 0
                        ? static_cast<double>(mc.network().stats().sent) /
                              static_cast<double>(rep.completed)
                        : 0.0;
  stats::Welford wait;
  for (const mutex::CsDriver* d : mc.drivers()) wait.merge(d->sojourn_time());
  rep.mean_wait = wait.mean();
  rep.violations = mc.monitor().violations();
  return rep;
}

}  // namespace

int main() {
  using namespace dmx;
  harness::register_builtin_algorithms();
  // Skewed shard popularity 8 : 4 : 2 : 1 over an aggregate demand of 4 ops
  // per time unit: shard s gets weight/15 of the operations and the rate.
  const std::vector<std::uint64_t> weights = {8, 4, 2, 1};
  const std::uint64_t kOps = 15'000;
  std::cout << "Sharded lock service: " << weights.size() << " shards of "
            << kNodes << " nodes with 8:4:2:1 demand skew, " << kOps
            << " lock operations\n\n";

  bool sound = true;
  for (const std::string algo : {"arbiter-tp", "ricart-agrawala"}) {
    harness::Table table(
        {"shard", "ops", "msgs/op", "mean lock wait", "safety", "drained"});
    for (std::size_t s = 0; s < weights.size(); ++s) {
      const std::uint64_t ops = kOps * weights[s] / 15;
      const double rate = 4.0 * static_cast<double>(weights[s]) / 15.0;
      const ShardReport rep = run_shard(algo, s, ops, rate);
      const bool drained = rep.completed == ops;
      sound = sound && drained && rep.violations == 0;
      table.add_row({harness::Table::integer(s),
                     harness::Table::integer(rep.completed),
                     harness::Table::num(rep.msgs_per_op, 2),
                     harness::Table::num(rep.mean_wait, 3),
                     rep.violations == 0 ? "ok" : "VIOLATED",
                     drained ? "yes" : "NO"});
    }
    std::cout << "algorithm: " << algo << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "The arbiter algorithm amortizes its NEW-ARBITER broadcast "
               "over the hot shard's\nbatches (msgs/op falls with load); "
               "Ricart-Agrawala pays 2(N-1) on every shard.\n";
  return sound ? 0 : 1;
}
