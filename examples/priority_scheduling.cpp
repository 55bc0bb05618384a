// Prioritized access (§5.2): a mixed fleet of high-priority "alarm" nodes
// and low-priority "batch" nodes contending for one resource.
//
// The paper's design is *incremental* priority: each arbiter orders only
// the batch it collected, so high-priority requests jump the queue within a
// batch but never preempt an already-dispatched Q-list.  The demo measures
// per-class latency under FCFS vs priority ordering and shows that the
// low-priority class still makes progress (no starvation), because nodes
// at the end of the Q-list become arbiters (§5.2's observation).
#include <iostream>
#include <memory>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "stats/welford.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace {

struct ClassStats {
  dmx::stats::Welford high_latency;
  dmx::stats::Welford low_latency;
  std::uint64_t high_done = 0;
  std::uint64_t low_done = 0;
  std::uint64_t arbiter_terms_low = 0;
};

ClassStats run(const std::string& order, std::uint64_t total) {
  using namespace dmx;
  harness::register_builtin_algorithms();
  constexpr std::size_t kN = 10;
  constexpr std::size_t kHighNodes = 3;  // nodes 0..2 are high priority

  mutex::ParamSet params;
  params.set("order", order);
  mutex::MutexCluster mc(
      "arbiter-tp", kN, params, sim::SimTime::units(0.1),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 5);

  ClassStats out;
  for (std::size_t i = 0; i < kN; ++i) {
    mc.driver(i).set_completion_callback([&, i](const mutex::CsRequest& r) {
      // Measure from issuance to the algorithm (not workload arrival):
      // priority ordering acts inside arbitration batches, and under
      // saturation the local open-loop queue would otherwise dominate.
      const double latency =
          mc.simulator().now().to_units() - r.issued_at.to_units();
      if (i < kHighNodes) {
        out.high_latency.add(latency);
        ++out.high_done;
      } else {
        out.low_latency.add(latency);
        ++out.low_done;
      }
    });
  }

  std::vector<std::unique_ptr<workload::ArrivalProcess>> ap;
  for (std::size_t i = 0; i < kN; ++i) {
    ap.push_back(std::make_unique<workload::PoissonArrivals>(0.3));
  }
  workload::OpenLoopGenerator gen(mc.simulator(), mc.drivers(), std::move(ap),
                                  total, 77);
  gen.set_priority_fn([](std::size_t node, std::uint64_t) {
    return node < kHighNodes ? 10 : 0;  // static node priorities (§5.2)
  });
  gen.start();
  mc.simulator().run();

  for (std::size_t i = kHighNodes; i < kN; ++i) {
    out.arbiter_terms_low +=
        dynamic_cast<core::ArbiterMutex&>(mc.algorithm(i)).times_arbiter();
  }
  if (mc.monitor().violations() != 0) {
    std::cerr << "SAFETY VIOLATION\n";
    std::exit(1);
  }
  return out;
}

}  // namespace

int main() {
  using namespace dmx;
  const std::uint64_t kTotal = 30'000;
  std::cout << "Prioritized access (§5.2): 3 high-priority alarm nodes vs "
               "7 low-priority batch nodes\n"
            << "10 nodes, lambda = 0.3/node (contended but unsaturated), " << kTotal
            << " requests\n\n";

  harness::Table table({"ordering", "high-prio latency", "low-prio latency",
                        "high done", "low done", "low-prio arbiter terms"});
  for (const std::string order : {"fcfs", "priority"}) {
    const auto s = run(order, kTotal);
    table.add_row({order, harness::Table::num(s.high_latency.mean(), 3),
                   harness::Table::num(s.low_latency.mean(), 3),
                   harness::Table::integer(s.high_done),
                   harness::Table::integer(s.low_done),
                   harness::Table::integer(s.arbiter_terms_low)});
  }
  table.print(std::cout);
  std::cout
      << "\nUnder 'priority', the alarm class overtakes within each batch "
         "(lower latency),\nyet the batch class keeps completing work and — "
         "as §5.2 predicts — ends up\nserving as arbiter more often, since "
         "low-priority requests sort to the tail.\n";
  return 0;
}
