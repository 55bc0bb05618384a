// §5.1 fairness claims:
//  (1) FCFS service: under equal per-node load, per-node throughput is equal.
//  (2) Load balance: the arbiter role is shared, and the probability of
//      serving as arbiter scales with a node's request rate ("only the nodes
//      that request for the critical section are likely to be assigned the
//      responsibility of being an arbiter").
// Plus the §2.4 sequence-number ordering ablation.
#include <cmath>

#include "bench_common.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace {

// Run arbiter-tp with per-node Poisson rates and report per-node CS counts
// and arbiter-term counts.
struct HeteroResult {
  std::vector<std::uint64_t> completions;
  std::vector<std::uint64_t> arbiter_terms;
};

HeteroResult run_hetero(const std::vector<double>& rates,
                        std::uint64_t total_requests, std::uint64_t seed) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  const std::size_t n = rates.size();
  mutex::MutexCluster mc(
      "arbiter-tp", n, mutex::ParamSet{}, sim::SimTime::units(0.1),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), seed);
  std::vector<std::unique_ptr<workload::ArrivalProcess>> ap;
  for (std::size_t i = 0; i < n; ++i) {
    ap.push_back(std::make_unique<workload::PoissonArrivals>(rates[i]));
  }
  workload::OpenLoopGenerator gen(mc.simulator(), mc.drivers(), std::move(ap),
                                  total_requests, seed);
  gen.start();
  mc.simulator().run();
  HeteroResult out;
  for (std::size_t i = 0; i < n; ++i) {
    out.completions.push_back(mc.driver(i).completed());
    out.arbiter_terms.push_back(
        dynamic_cast<core::ArbiterMutex&>(mc.algorithm(i)).times_arbiter());
  }
  return out;
}

}  // namespace

int main() {
  using namespace dmx;
  bench::print_header(
      "Fairness and load balance (§5.1)",
      "Part A: equal rates — per-node completions and arbiter terms.\n"
      "Part B: heterogeneous rates — arbiter share follows request share.");

  const std::uint64_t total = bench::requests_per_point();

  {
    std::cout << "Part A: 10 nodes, equal lambda = 0.3\n";
    const auto r = run_hetero(std::vector<double>(10, 0.3), total, 11);
    harness::Table table({"node", "completions", "arbiter terms"});
    for (std::size_t i = 0; i < 10; ++i) {
      table.add_row({harness::Table::integer(i),
                     harness::Table::integer(r.completions[i]),
                     harness::Table::integer(r.arbiter_terms[i])});
    }
    table.print(std::cout);
    double mean = 0, var = 0;
    for (auto c : r.completions) mean += static_cast<double>(c) / 10.0;
    for (auto c : r.completions) {
      var += (static_cast<double>(c) - mean) * (static_cast<double>(c) - mean) / 10.0;
    }
    std::cout << "completions mean=" << mean
              << " cv=" << std::sqrt(var) / mean << " (FCFS fairness)\n\n";
  }

  {
    std::cout << "Part B: 10 nodes, lambda_i proportional to (i+1)\n";
    std::vector<double> rates;
    double sum = 0;
    for (int i = 0; i < 10; ++i) {
      rates.push_back(0.02 * (i + 1));
      sum += rates.back();
    }
    const auto r = run_hetero(rates, total, 13);
    std::uint64_t terms_total = 0;
    for (auto t : r.arbiter_terms) terms_total += t;
    harness::Table table(
        {"node", "request share", "completion share", "arbiter share"});
    std::uint64_t comp_total = 0;
    for (auto c : r.completions) comp_total += c;
    for (std::size_t i = 0; i < 10; ++i) {
      table.add_row(
          {harness::Table::integer(i),
           harness::Table::num(rates[i] / sum, 3),
           harness::Table::num(static_cast<double>(r.completions[i]) /
                                   static_cast<double>(comp_total), 3),
           harness::Table::num(static_cast<double>(r.arbiter_terms[i]) /
                                   static_cast<double>(terms_total), 3)});
    }
    table.print(std::cout);
    std::cout << "Expected: arbiter share tracks request share — idle nodes "
                 "do no arbitration work.\n\n";
  }

  {
    std::cout << "Part C: FCFS vs sequence-number ordering (§2.4 ablation), "
                 "lambda = 0.5\n";
    harness::Table table({"order", "msgs/cs", "mean delay", "p?max/mean "
                                                            "completions"});
    for (const char* order : {"fcfs", "sequence"}) {
      harness::ExperimentConfig cfg;
      cfg.algorithm = "arbiter-tp";
      cfg.n_nodes = 10;
      cfg.lambda = 0.5;
      cfg.params.set("order", std::string(order))
          .set("sequenced", order == std::string("sequence") ? 1.0 : 0.0);
      cfg.total_requests = total;
      const auto r = harness::run_experiment(cfg);
      std::uint64_t cmax = 0, csum = 0;
      for (auto c : r.completions_per_node) {
        cmax = std::max(cmax, c);
        csum += c;
      }
      table.add_row(
          {order, harness::Table::num(r.messages_per_cs, 3),
           harness::Table::num(r.service_time.mean(), 3),
           harness::Table::num(static_cast<double>(cmax) * 10.0 /
                                   static_cast<double>(csum), 3)});
    }
    table.print(std::cout);
  }
  return 0;
}
