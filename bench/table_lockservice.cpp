// Sharded lock-service scaling ladder: Zipf-skewed demand over hundreds to
// thousands of resources, mixed per-shard protocols, SLO-style reporting.
//
// The paper's evaluation guards ONE critical section; the ROADMAP's
// lock-manager scenario guards thousands.  Each ladder rung Zipf-splits the
// aggregate demand over more resources: hot shards (demand at or above the
// per-shard mean) run the paper's arbiter token-passing with a full client
// population, the long cold tail runs path-reversal over a smaller one.
// Per-shard SLOs come from the obs/span.hpp lifecycle decomposition
// (grant_wait = submit -> granted): the table reports the service-wide
// worst p99 time-to-grant, the hottest shard's p99, and the worst
// per-tenant Jain fairness.
//
// Every rung runs twice — serially and fanned over a worker pool
// (harness::ParallelRunner) — and the two dmx.run.v1 manifests must be
// BYTE-IDENTICAL: shards are independent simulators seeded by shard index,
// so parallelism is an execution knob, not a result knob.  The exit code
// gates on that identity plus zero safety violations and full drains
// (scripts/lockservice_smoke.sh and BENCH_9.json consume it).
//
// Environment knobs (bench_common.hpp conventions):
//   DMX_BENCH_LS_RESOURCES  top-rung resource count      (default 1000)
//   DMX_BENCH_REQUESTS      aggregate demand per rung    (default 100000)
//   DMX_BENCH_LS_ZIPF       Zipf skew                    (default 0.9)
//   DMX_BENCH_JOBS          parallel-leg workers         (default 2;
//                           0 = one per hardware thread)
//   DMX_BENCH_JSONL         per-rung JSON row dump
#include <chrono>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"

namespace {

std::size_t ls_resources() {
  if (const char* env = std::getenv("DMX_BENCH_LS_RESOURCES")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return 1000;
}

double ls_zipf() {
  if (const char* env = std::getenv("DMX_BENCH_LS_ZIPF")) {
    return std::strtod(env, nullptr);
  }
  return 0.9;
}

dmx::harness::LockServiceConfig rung_config(std::size_t resources,
                                            std::uint64_t demands) {
  dmx::harness::LockServiceConfig ls;
  ls.n_resources = resources;
  ls.zipf_s = ls_zipf();
  ls.total_demands = demands;
  ls.hot_algorithm = "arbiter-tp";
  ls.cold_algorithm = "path-reversal";
  ls.hot_nodes = 16;
  ls.cold_nodes = 4;
  ls.think_mean = 1.0;
  ls.batch_size = 16;
  ls.seed = 42;
  return ls;
}

/// Canonical byte-fingerprint of one run: its dmx.run.v1 record with the
/// full per-shard lock_service block, as the CLI writes it.  The manifest
/// does not record jobs, so serial and parallel legs fingerprint over
/// identical inputs.
std::string fingerprint(const dmx::harness::LockServiceConfig& ls,
                        const dmx::harness::LockServiceReport& report) {
  std::ostringstream os;
  dmx::harness::write_run_manifest(
      os, {dmx::harness::lock_service_record({}, ls, report)});
  return os.str();
}

double run_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace dmx;
  const std::size_t top = ls_resources();
  const std::uint64_t demands = bench::requests_per_point();
  std::size_t parallel_jobs = 2;
  if (const char* env = std::getenv("DMX_BENCH_JOBS")) {
    parallel_jobs = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  std::cout << "\n=== Sharded lock service — Zipf(" << ls_zipf()
            << ") demand over a resource ladder ===\n"
               "Hot shards (demand >= mean) run arbiter-tp/16 clients, the "
               "cold tail\npath-reversal/4.  grant p99 is the per-shard "
               "time-to-grant SLO (submit -> granted,\nspan grant_wait "
               "phase); fairness is Jain's index over per-client "
               "completions.\nEach rung runs serial and with "
            << (parallel_jobs == 0 ? std::string("hardware")
                                   : std::to_string(parallel_jobs))
            << " workers; manifests must be byte-identical.\n"
               "(aggregate demand/rung="
            << demands << ", seed 42)\n\n";

  std::vector<std::size_t> ladder;
  for (const std::size_t r : {top / 64, top / 8, top}) {
    if (r >= 2 && (ladder.empty() || r > ladder.back())) ladder.push_back(r);
  }

  const char* jsonl_path = std::getenv("DMX_BENCH_JSONL");
  std::ofstream jsonl;
  if (jsonl_path != nullptr) jsonl.open(jsonl_path);

  harness::Table table({"resources", "hot", "completed", "msgs/cs",
                        "hot0 p99", "worst p99", "min fairness", "safety",
                        "drained", "serial ms", "jobs ms", "identical"});
  bool sound = true;
  harness::LockServiceReport final_report;
  for (const std::size_t resources : ladder) {
    harness::LockServiceConfig ls = rung_config(resources, demands);
    harness::LockServiceReport serial, parallel;
    ls.jobs = 1;
    const double serial_ms = run_ms([&] { serial = run_lock_service(ls); });
    ls.jobs = parallel_jobs;
    const double jobs_ms = run_ms([&] { parallel = run_lock_service(ls); });
    const bool identical =
        fingerprint(ls, serial) == fingerprint(ls, parallel);

    // Mixed per-shard algorithms must actually be exercised: at least one
    // hot and one cold shard per rung (the Zipf head/tail split).
    const bool mixed = serial.hot_shards >= 1 &&
                       serial.hot_shards < serial.shards.size();
    sound = sound && identical && mixed && serial.drained &&
            serial.safety_violations == 0;

    table.add_row({harness::Table::integer(resources),
                   harness::Table::integer(serial.hot_shards),
                   harness::Table::integer(serial.total_completed),
                   harness::Table::num(serial.messages_per_cs, 3),
                   harness::Table::num(serial.shards[0].grant_p99, 3),
                   harness::Table::num(serial.grant_p99_worst, 3),
                   harness::Table::num(serial.fairness_min, 4),
                   serial.safety_violations == 0 ? "ok" : "VIOLATED",
                   serial.drained ? "yes" : "NO",
                   harness::Table::num(serial_ms, 1),
                   harness::Table::num(jobs_ms, 1),
                   identical ? "yes" : "NO"});
    if (jsonl.is_open()) {
      jsonl << "{\"resources\":" << resources << ",\"demands\":" << demands
            << ",\"zipf_s\":" << harness::Table::num(ls_zipf(), 3)
            << ",\"hot_shards\":" << serial.hot_shards
            << ",\"completed\":" << serial.total_completed
            << ",\"messages_per_cs\":"
            << harness::Table::num(serial.messages_per_cs, 6)
            << ",\"grant_p99_hot0\":"
            << harness::Table::num(serial.shards[0].grant_p99, 6)
            << ",\"grant_p99_worst\":"
            << harness::Table::num(serial.grant_p99_worst, 6)
            << ",\"fairness_min\":"
            << harness::Table::num(serial.fairness_min, 6)
            << ",\"safety_violations\":" << serial.safety_violations
            << ",\"drained\":" << (serial.drained ? "true" : "false")
            << ",\"byte_identical\":" << (identical ? "true" : "false")
            << ",\"wall_ms_serial\":" << harness::Table::num(serial_ms, 1)
            << ",\"wall_ms_jobs\":" << harness::Table::num(jobs_ms, 1)
            << "}\n";
    }
    if (resources == ladder.back()) final_report = std::move(serial);
  }
  table.print(std::cout);

  // Drill-down: the head of the Zipf ranking at the top rung.
  std::cout << "\nhottest shards at " << ladder.back() << " resources:\n";
  harness::Table detail({"shard", "algo", "clients", "demand", "completed",
                         "msgs/cs", "grant p50", "grant p99", "fairness"});
  const std::size_t head =
      std::min<std::size_t>(final_report.shards.size(), 8);
  for (std::size_t r = 0; r < head; ++r) {
    const harness::ShardResult& s = final_report.shards[r];
    detail.add_row({harness::Table::integer(s.resource), s.algorithm,
                    harness::Table::integer(s.nodes),
                    harness::Table::integer(s.demand),
                    harness::Table::integer(s.completed),
                    harness::Table::num(s.messages_per_cs, 3),
                    harness::Table::num(s.grant_p50, 3),
                    harness::Table::num(s.grant_p99, 3),
                    harness::Table::num(s.fairness, 4)});
  }
  detail.print(std::cout);

  std::cout << "\nThe ladder is sound when every rung drains with zero "
               "safety violations,\nexercises both shard algorithms, and "
               "serial vs. pooled manifests match byte\nfor byte.\n";
  return sound ? 0 : 1;
}
