// Quickstart: reproduce the paper's Section 2.2 walk-through.
//
// Five nodes, node 0 initially the arbiter (the paper's node 1, renumbered
// from 0).  Nodes 1 and 4 request during the collection window, node 3's
// request arrives during the forwarding phase and is forwarded to the new
// arbiter.  Every protocol step is printed from the trace.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
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

  std::cout << "Arbiter token-passing mutual exclusion — the paper's §2.2 "
               "example\n"
               "(all durations = 1 time unit; node 0 is the initial arbiter "
               "and token holder)\n\n";

  // Five nodes built through the registry exactly as the harness does,
  // printing every protocol event.  Each driver holds the critical section
  // for 1 unit and reports to one global safety monitor.
  mutex::ParamSet params;
  params.set("t_req", 1.0).set("t_fwd", 1.0);
  mutex::MutexCluster mc(
      "arbiter-tp", 5, params, sim::SimTime::units(1.0),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(1.0)), 7,
      obs::Tracer(std::make_shared<obs::TextSink>(std::cout, 0)));

  // The paper's scenario: requests from nodes 1 and 4 land in the first
  // collection window; node 3's request reaches the old arbiter during its
  // forwarding phase.
  auto& sim = mc.simulator();
  sim.schedule_at(sim::SimTime::units(0.0), [&] { mc.driver(1).submit(); });
  sim.schedule_at(sim::SimTime::units(0.2), [&] { mc.driver(4).submit(); });
  sim.schedule_at(sim::SimTime::units(1.9), [&] { mc.driver(3).submit(); });
  sim.run();

  const mutex::SafetyMonitor& monitor = mc.monitor();
  std::cout << "\nDone: " << monitor.entries()
            << " critical sections executed, " << mc.network().stats().sent
            << " messages, " << monitor.violations()
            << " safety violations.\n";
  std::cout << "Final arbiter: node "
            << dynamic_cast<core::ArbiterMutex&>(mc.algorithm(0))
                   .known_arbiter()
            << " (agreed by all nodes).\n";
  return monitor.violations() == 0 ? 0 : 1;
}
