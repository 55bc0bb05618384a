// Exhaustive configuration matrix for the paper's algorithm: every
// combination of batch ordering, sequenced mode, starvation-free mode,
// recovery mode and collection/forwarding windows must be safe and live at
// a contended load.  48+ configurations, each a full simulation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/experiment.hpp"
#include "testbed.hpp"

namespace dmx::core {
namespace {

// (order, sequenced, starvation_free, recovery, t_fwd)
using Cfg = std::tuple<std::string, bool, bool, bool, double>;

class ConfigMatrix : public ::testing::TestWithParam<Cfg> {};

TEST_P(ConfigMatrix, SafeAndLive) {
  const auto& [order, sequenced, sf, recovery, t_fwd] = GetParam();
  harness::ExperimentConfig cfg;
  cfg.algorithm = sf ? "arbiter-tp-sf" : "arbiter-tp";
  cfg.n_nodes = 10;
  cfg.lambda = 0.35;
  cfg.total_requests = 4'000;
  cfg.seed = 91;
  cfg.params.set("order", order)
      .set("sequenced", sequenced ? 1.0 : 0.0)
      .set("recovery", recovery ? 1.0 : 0.0)
      .set("t_fwd", t_fwd);
  const auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_TRUE(r.drained) << "completed " << r.completed << "/" << r.submitted;
  EXPECT_GT(r.messages_per_cs, 1.0);
  EXPECT_LT(r.messages_per_cs, 15.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix,
    ::testing::Combine(::testing::Values("fcfs", "sequence", "priority"),
                       ::testing::Bool(),   // sequenced
                       ::testing::Bool(),   // starvation-free
                       ::testing::Bool(),   // recovery
                       ::testing::Values(0.0, 0.1)),
    [](const ::testing::TestParamInfo<Cfg>& pinfo) {
      // NOTE: no structured bindings here — their commas confuse the macro.
      std::string name = std::get<0>(pinfo.param);
      if (std::get<1>(pinfo.param)) name += "_seq";
      if (std::get<2>(pinfo.param)) name += "_sf";
      if (std::get<3>(pinfo.param)) name += "_rec";
      name += std::get<4>(pinfo.param) > 0.0 ? "_fwd" : "_nofwd";
      return name;
    });

// Churn matrix: repeated crash/restart cycles of rotating victim nodes
// while demand keeps flowing.  Every critical section that completes must
// be exclusive, and the demand of nodes alive at the end must drain.
class ChurnMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnMatrix, SurvivesCrashRestartChurn) {
  mutex::ParamSet p;
  p.set("recovery", 1.0)
      .set("token_timeout", 2.0)
      .set("enquiry_timeout", 0.5)
      .set("arbiter_timeout", 4.0)
      .set("probe_timeout", 0.5)
      .set("resubmit_after_misses", 1.0)
      .set("request_retry_timeout", 4.0);
  testbed::MutexCluster tb("arbiter-tp", 6, p, 0.1, 0.1, GetParam());

  sim::Rng rng(GetParam() * 977 + 5);
  // 40 time units of action: a submission roughly every 0.5 units from a
  // random node, and a crash/restart cycle every ~8 units hitting rotating
  // victims (never the same node twice in a row).
  for (int k = 0; k < 80; ++k) {
    tb.submit_at(0.5 * k + rng.uniform(0.0, 0.4),
                 static_cast<std::size_t>(rng.uniform_int(0, 5)));
  }
  for (int c = 0; c < 5; ++c) {
    const auto victim = static_cast<std::size_t>((c * 2 + 1) % 6);
    const double when = 4.0 + 8.0 * c;
    tb.crash_at(when, victim);
    tb.restart_at(when + 3.0, victim);
  }
  tb.simulator().run_until(sim::SimTime::units(400.0));

  EXPECT_EQ(tb.monitor().violations(), 0u);
  // Crashed nodes abort their demand; everything else must be served.
  std::uint64_t aborted = 0;
  for (const mutex::CsDriver* d : tb.drivers()) {
    aborted += d->aborted_by_crash();
  }
  EXPECT_EQ(tb.total_completed() + aborted, tb.total_submitted())
      << "completed=" << tb.total_completed() << " aborted=" << aborted
      << " submitted=" << tb.total_submitted();
  EXPECT_GT(tb.total_completed(), 40u);  // churn must not stall the system
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnMatrix,
                         ::testing::Values<std::uint64_t>(11, 22, 33),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace dmx::core
