// A distributed lock service guarding a replicated counter.
//
// The motivating use case of distributed mutual exclusion: N application
// nodes increment a shared counter with a read-modify-write.  Each node
// reads the counter when it enters the critical section and writes back
// read+1 when it leaves; if two nodes ever overlapped, both would read the
// same value and one increment would be lost.  We run the same workload
// over several algorithms, verify the counter is exact, and compare the
// message bill each algorithm paid for the same guarantee.
#include <iostream>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace {

struct LockServiceRun {
  std::uint64_t counter = 0;   ///< Final shared-counter value.
  std::uint64_t increments = 0;
  std::uint64_t messages = 0;
  std::uint64_t violations = 0;
  double mean_latency = 0.0;   ///< Demand arrival -> increment durably applied.
};

LockServiceRun run_lock_service(const std::string& algorithm,
                                std::size_t n_nodes,
                                std::uint64_t increments) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  mutex::MutexCluster mc(
      algorithm, n_nodes, mutex::ParamSet{}, sim::SimTime::units(0.05),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 1234);

  // The application: a read-modify-write under the lock.
  LockServiceRun result;
  std::vector<std::uint64_t> read_register(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    mc.driver(i).set_grant_callback([&, i](const mutex::CsRequest&) {
      read_register[i] = result.counter;  // read at CS entry
    });
    mc.driver(i).set_completion_callback([&, i](const mutex::CsRequest&) {
      result.counter = read_register[i] + 1;  // write at CS exit
      ++result.increments;
    });
  }

  std::vector<std::unique_ptr<workload::ArrivalProcess>> ap;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    ap.push_back(std::make_unique<workload::PoissonArrivals>(0.8));
  }
  workload::OpenLoopGenerator gen(mc.simulator(), mc.drivers(), std::move(ap),
                                  increments, 99);
  gen.start();
  mc.simulator().run();

  result.violations = mc.monitor().violations();
  result.messages = mc.network().stats().sent;
  stats::Welford lat;
  for (const mutex::CsDriver* d : mc.drivers()) lat.merge(d->sojourn_time());
  result.mean_latency = lat.mean();
  return result;
}

}  // namespace

int main() {
  using namespace dmx;
  const std::uint64_t kIncrements = 20'000;
  std::cout << "Replicated counter guarded by distributed mutual exclusion\n"
            << "10 nodes, " << kIncrements
            << " read-modify-write increments, Poisson demand 0.8/unit/node\n\n";

  harness::Table table({"algorithm", "final counter", "lost updates",
                        "messages", "msgs/increment", "mean latency"});
  bool all_exact = true;
  for (const std::string algo :
       {"arbiter-tp", "suzuki-kasami", "raymond", "ricart-agrawala",
        "centralized"}) {
    const auto r = run_lock_service(algo, 10, kIncrements);
    const std::uint64_t lost = kIncrements - r.counter;
    all_exact = all_exact && lost == 0 && r.violations == 0;
    table.add_row({algo, harness::Table::integer(r.counter),
                   harness::Table::integer(lost),
                   harness::Table::integer(r.messages),
                   harness::Table::num(static_cast<double>(r.messages) /
                                           static_cast<double>(kIncrements),
                                       2),
                   harness::Table::num(r.mean_latency, 3)});
  }
  table.print(std::cout);
  std::cout << "\nEvery algorithm reaches counter == " << kIncrements
            << " (no lost updates); they differ only in the message bill "
               "and latency.\n";
  return all_exact ? 0 : 1;
}
