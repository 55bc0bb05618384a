#include "harness/parallel.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "net/msg_kind.hpp"
#include "obs/event.hpp"

namespace dmx::harness {

void freeze_registries() {
  // Force every lazy registration that matters before sealing: the builtin
  // algorithm factories intern nothing themselves, but registering them
  // here keeps the "freeze happens after setup" contract in one place.
  // Message and event kinds were interned during static initialization
  // (DMX_REGISTER_MESSAGE / DMX_REGISTER_EVENT), so by the time any code
  // can call this, the tables are complete.
  register_builtin_algorithms();
  net::MsgKindRegistry::instance().freeze();
  obs::EventKindRegistry::instance().freeze();
}

std::uint64_t seed_schedule(std::uint64_t seed, std::size_t replication) {
  return seed + 1000 * static_cast<std::uint64_t>(replication) + 17;
}

std::uint64_t seed_schedule(const ExperimentConfig& cfg,
                            std::size_t replication) {
  return seed_schedule(cfg.seed, replication);
}

std::size_t ParallelRunner::resolve(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ParallelRunner::ParallelRunner(std::size_t jobs) : jobs_(resolve(jobs)) {}

void ParallelRunner::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers = std::min(jobs_, n);
  if (workers <= 1) {
    // Inline serial path: identical to the historical loop, and usable
    // before registries are frozen (e.g. unit tests interning ad hoc).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  freeze_registries();

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<ExperimentResult> ParallelRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  std::vector<ExperimentResult> results(configs.size());
  run_indexed(configs.size(),
              [&](std::size_t i) { results[i] = run_experiment(configs[i]); });
  return results;
}

}  // namespace dmx::harness
