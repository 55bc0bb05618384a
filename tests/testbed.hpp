// Shared fixture for protocol-level tests: a mutex::MutexCluster with a
// memory trace sink, driven manually (no workload generator) so tests can
// script exact scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/arbiter_mutex.hpp"
#include "harness/experiment.hpp"
#include "mutex/mutex_cluster.hpp"
#include "net/delay_model.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"

namespace dmx::testbed {

/// FNV-1a-64 of a trace: a compact pin for a long byte string.
inline std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// What the cluster needs before it is built, as its first base: the
/// registry its algorithms come from and the sink it traces into.
struct Setup {
  Setup() { harness::register_builtin_algorithms(); }
  std::shared_ptr<obs::MemorySink> sink = std::make_shared<obs::MemorySink>();
};

struct MutexCluster : Setup, mutex::MutexCluster {
  /// Build an N-node cluster of the named registered algorithm.  Pass a
  /// ReliableTransportConfig to interpose the sliding-window transport
  /// beneath every process (defaults are scaled to t_msg).
  MutexCluster(const std::string& algorithm, std::size_t n,
               const mutex::ParamSet& params, double t_msg = 0.1,
               double t_exec = 0.1, std::uint64_t seed = 1,
               std::optional<net::ReliableTransportConfig> reliable =
                   std::nullopt)
      : mutex::MutexCluster(
            algorithm, n, params, sim::SimTime::units(t_exec),
            std::make_unique<net::ConstantDelay>(sim::SimTime::units(t_msg)),
            seed, obs::Tracer(sink), reliable) {}

  core::ArbiterMutex& arbiter(std::size_t i) {
    return dynamic_cast<core::ArbiterMutex&>(algorithm(i));
  }

  /// Submit a CS demand at node i at absolute sim time t.
  void submit_at(double t, std::size_t i, int priority = 0) {
    simulator().schedule_at(sim::SimTime::units(t), [this, i, priority] {
      driver(i).submit(priority);
    });
  }

  void crash_at(double t, std::size_t i) {
    simulator().schedule_at(sim::SimTime::units(t), [this, i] {
      cluster().crash_node(net::NodeId{static_cast<std::int32_t>(i)});
    });
  }

  void restart_at(double t, std::size_t i) {
    simulator().schedule_at(sim::SimTime::units(t), [this, i] {
      cluster().restart_node(net::NodeId{static_cast<std::int32_t>(i)});
    });
  }

  core::ArbiterStats protocol_stats() {
    core::ArbiterStats s;
    for (std::size_t i = 0; i < size(); ++i) {
      if (auto* arb = dynamic_cast<core::ArbiterMutex*>(&algorithm(i))) {
        s.merge(arb->protocol_stats());
      }
    }
    return s;
  }
};

}  // namespace dmx::testbed
