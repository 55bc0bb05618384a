// A tour of every algorithm in the library on one realistic scenario:
// a bursty, heterogeneous workload (some chatty nodes, some quiet, all
// bursty) — closer to production demand than the paper's uniform Poisson.
//
// Prints a one-line-per-algorithm scoreboard: message economy, latency,
// and correctness checks, plus the library's analytic expectations.
#include <iostream>
#include <memory>

#include "analysis/models.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace {

struct TourResult {
  double msgs_per_cs = 0;
  double mean_latency = 0;
  double p99_proxy = 0;  // max observed sojourn as a tail proxy
  std::uint64_t completed = 0;
  bool safe = false;
  bool live = false;
};

TourResult run_tour(const std::string& algorithm, std::uint64_t total) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  constexpr std::size_t kN = 9;  // perfect square: fair to Maekawa

  mutex::MutexCluster mc(
      algorithm, kN, mutex::ParamSet{}, sim::SimTime::units(0.08),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 21);

  // Heterogeneous bursty demand: node i bursts at rate 2.0 during ON
  // periods whose share shrinks with i (node 0 chatty, node 8 nearly idle).
  std::vector<std::unique_ptr<workload::ArrivalProcess>> ap;
  for (std::size_t i = 0; i < kN; ++i) {
    const double mean_on = 2.0;
    const double mean_off = 1.0 + 2.0 * static_cast<double>(i);
    ap.push_back(std::make_unique<workload::BurstyArrivals>(
        2.0, dmx::sim::SimTime::units(mean_on),
        dmx::sim::SimTime::units(mean_off)));
  }
  workload::OpenLoopGenerator gen(mc.simulator(), mc.drivers(), std::move(ap),
                                  total, 55);
  gen.start();
  mc.simulator().run();

  TourResult r;
  stats::Welford lat;
  for (const mutex::CsDriver* d : mc.drivers()) {
    r.completed += d->completed();
    lat.merge(d->sojourn_time());
  }
  r.msgs_per_cs = r.completed > 0
                      ? static_cast<double>(mc.network().stats().sent) /
                            static_cast<double>(r.completed)
                      : 0.0;
  r.mean_latency = lat.mean();
  r.p99_proxy = lat.max();
  r.safe = mc.monitor().violations() == 0;
  r.live = r.completed == gen.submitted();
  return r;
}

}  // namespace

int main() {
  using namespace dmx;
  const std::uint64_t kTotal = 20'000;
  std::cout << "Algorithm tour: 9 nodes, heterogeneous bursty demand, "
            << kTotal << " critical sections\n\n";

  harness::Table table({"algorithm", "msgs/cs", "mean latency", "max latency",
                        "safe", "live"});
  for (const std::string algo :
       {"arbiter-tp", "arbiter-tp-sf", "centralized", "suzuki-kasami",
        "raymond", "maekawa", "singhal", "ricart-agrawala", "lamport"}) {
    const auto r = run_tour(algo, kTotal);
    table.add_row({algo, harness::Table::num(r.msgs_per_cs, 2),
                   harness::Table::num(r.mean_latency, 3),
                   harness::Table::num(r.p99_proxy, 2), r.safe ? "yes" : "NO",
                   r.live ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nReference points at N = 9: Ricart-Agrawala 2(N-1) = "
            << analysis::ricart_agrawala_messages(9)
            << ", Suzuki-Kasami ~N = " << analysis::suzuki_kasami_messages(9)
            << ",\nMaekawa ~3-5 sqrt(N) = " << analysis::maekawa_messages_low(9)
            << ".." << analysis::maekawa_messages_high(9)
            << ", arbiter-tp heavy-load bound 3 - 2/N = "
            << analysis::arbiter_messages_heavy(9) << ".\n";
  return 0;
}
