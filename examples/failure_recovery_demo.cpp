// Failure-recovery demonstration (§6 of the paper).
//
// A five-node cluster runs the arbiter token-passing algorithm with the
// recovery machinery enabled, and the demo injects the paper's three fault
// scenarios one after another, tracing every recovery action:
//   1. a lost PRIVILEGE message (dropped in flight),
//   2. a token holder crashing inside its critical section,
//   3. the newly elected arbiter crashing before collecting anything.
#include <iostream>
#include <memory>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"

int main() {
  using namespace dmx;
  harness::register_builtin_algorithms();

  std::cout
      << "Failure recovery walkthrough — lost token, crashed holder, "
         "crashed arbiter\n"
         "Watch for: WARNING timeouts, the two-phase invalidation "
         "(ENQUIRY/RESUME/INVALIDATE),\ntoken regeneration under a new "
         "epoch, and the previous arbiter's PROBE/takeover.\n\n";

  mutex::ParamSet params;
  params.set("recovery", 1.0)
      .set("token_timeout", 2.0)
      .set("enquiry_timeout", 0.5)
      .set("arbiter_timeout", 4.0)
      .set("probe_timeout", 0.5);
  mutex::MutexCluster mc(
      "arbiter-tp", 5, params, sim::SimTime::units(0.2),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 3,
      obs::Tracer(std::make_shared<obs::TextSink>(std::cout, 0)));
  auto& sim = mc.simulator();

  // --- Scenario 1: the PRIVILEGE to node 1 evaporates -----------------------
  sim.schedule_at(sim::SimTime::units(0.0), [&] {
    std::cout << "\n--- scenario 1: dropping the next PRIVILEGE message ---\n";
    mc.network().faults().drop_next_of_type("PRIVILEGE");
    mc.driver(1).submit();
    mc.driver(2).submit();
  });

  // --- Scenario 2: node 3 dies while inside its critical section ------------
  sim.schedule_at(sim::SimTime::units(15.0), [&] {
    std::cout << "\n--- scenario 2: token holder crashes inside its CS ---\n";
    mc.driver(3).submit();
    mc.driver(4).submit();
  });
  sim.schedule_at(sim::SimTime::units(15.6), [&] {
    mc.cluster().crash_node(net::NodeId{3});
  });
  sim.schedule_at(sim::SimTime::units(30.0), [&] {
    mc.cluster().restart_node(net::NodeId{3});
  });

  // --- Scenario 3: the arbiter-elect crashes holding the idle token ---------
  sim.schedule_at(sim::SimTime::units(35.0), [&] {
    std::cout << "\n--- scenario 3: the current arbiter crashes ---\n";
    mc.driver(2).submit();
  });
  sim.schedule_at(sim::SimTime::units(36.5), [&] {
    // Node 2 is now the arbiter, idle with the token.  Kill it.
    mc.cluster().crash_node(net::NodeId{2});
  });
  sim.schedule_at(sim::SimTime::units(38.0), [&] { mc.driver(0).submit(); });

  sim.run_until(sim::SimTime::units(120.0));

  core::ArbiterStats stats;
  for (std::size_t i = 0; i < mc.size(); ++i) {
    stats.merge(
        dynamic_cast<core::ArbiterMutex&>(mc.algorithm(i)).protocol_stats());
  }
  const std::uint64_t violations = mc.monitor().violations();
  std::cout << "\nSummary: " << mc.total_completed()
            << " critical sections completed, " << violations
            << " safety violations\n"
            << "  warnings=" << stats.warnings_sent
            << " enquiries=" << stats.enquiries_sent
            << " resumes=" << stats.resumes_sent
            << " invalidates=" << stats.invalidates_sent << "\n"
            << "  tokens regenerated=" << stats.tokens_regenerated
            << " probes=" << stats.probes_sent
            << " takeovers=" << stats.arbiter_takeovers << "\n";
  return violations == 0 ? 0 : 1;
}
