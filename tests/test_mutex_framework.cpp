// Tests for the algorithm-agnostic mutex framework: SafetyMonitor, CsDriver
// (serialization, metrics, crash handling) and the registry/params layer.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "mutex/cs_driver.hpp"
#include "mutex/registry.hpp"
#include "mutex/safety_monitor.hpp"
#include "net/delay_model.hpp"
#include "runtime/cluster.hpp"

namespace dmx::mutex {
namespace {

TEST(SafetyMonitor, CleanAlternationHasNoViolations) {
  SafetyMonitor m;
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  m.on_exit(net::NodeId{0}, sim::SimTime::units(2.0));
  m.on_enter(net::NodeId{1}, sim::SimTime::units(3.0));
  m.on_exit(net::NodeId{1}, sim::SimTime::units(4.0));
  EXPECT_EQ(m.violations(), 0u);
  EXPECT_EQ(m.entries(), 2u);
  EXPECT_EQ(m.max_occupancy(), 1);
  EXPECT_TRUE(m.reports().empty());
}

TEST(SafetyMonitor, OverlapIsAViolation) {
  SafetyMonitor m;
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  m.on_enter(net::NodeId{1}, sim::SimTime::units(1.5));
  EXPECT_EQ(m.violations(), 1u);
  EXPECT_EQ(m.max_occupancy(), 2);
  ASSERT_EQ(m.reports().size(), 1u);
  EXPECT_NE(m.reports().front().detail.find("node 1"), std::string::npos);
}

TEST(SafetyMonitor, ExitWithoutEntryIsAViolation) {
  SafetyMonitor m;
  m.on_exit(net::NodeId{3}, sim::SimTime::units(1.0));
  EXPECT_EQ(m.violations(), 1u);
}

/// Grants on explicit demand, to script driver scenarios.
class ScriptedMutex final : public MutexAlgorithm {
 public:
  int requests = 0;
  int releases = 0;
  std::optional<CsRequest> last;

  void request(const CsRequest& req) override {
    ++requests;
    last = req;
  }
  void release() override { ++releases; }
  void grant_now() { grant(*last); }
  void grant_stale(std::uint64_t bogus_id) {
    CsRequest r = *last;
    r.request_id = bogus_id;
    grant(r);
  }
  [[nodiscard]] std::string_view algorithm_name() const override {
    return "scripted";
  }

 protected:
  void handle(const net::Envelope&) override {}
};

struct DriverFixture {
  runtime::Cluster cluster{
      1, std::make_unique<net::ConstantDelay>(sim::SimTime::units(0.1)), 1};
  RequestIdSource ids;
  SafetyMonitor monitor;
  ScriptedMutex* algo;
  std::unique_ptr<CsDriver> driver;

  DriverFixture() {
    auto up = std::make_unique<ScriptedMutex>();
    algo = up.get();
    cluster.install(net::NodeId{0}, std::move(up));
    driver = std::make_unique<CsDriver>(cluster.simulator(), *algo,
                                        sim::SimTime::units(0.5), &monitor,
                                        &ids);
    cluster.start();
  }
};

TEST(CsDriver, SerializesOutstandingRequests) {
  DriverFixture f;
  f.driver->submit();
  f.driver->submit();
  f.driver->submit();
  EXPECT_EQ(f.driver->submitted(), 3u);
  EXPECT_EQ(f.algo->requests, 1);  // only one outstanding
  f.algo->grant_now();
  f.cluster.simulator().run();  // CS completes, next issues, and so on
  EXPECT_EQ(f.algo->requests, 2);
  f.algo->grant_now();
  f.cluster.simulator().run();
  f.algo->grant_now();
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 3u);
  EXPECT_EQ(f.algo->releases, 3);
  EXPECT_TRUE(f.driver->idle());
}

TEST(CsDriver, MeasuresServiceTimes) {
  DriverFixture f;
  f.driver->submit();
  f.algo->grant_now();
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->service_time().count(), 1u);
  EXPECT_DOUBLE_EQ(f.driver->service_time().mean(), 0.5);  // t_exec only
  EXPECT_DOUBLE_EQ(f.driver->response_time().mean(), 0.0);
}

TEST(CsDriver, QueuedDemandKeepsArrivalTimeForSojourn) {
  DriverFixture f;
  f.driver->submit();          // t=0, granted immediately below
  f.driver->submit();          // t=0, queued
  f.algo->grant_now();
  f.cluster.simulator().run();  // first CS done at 0.5; second issues
  f.algo->grant_now();
  f.cluster.simulator().run();  // second CS done at 1.0
  EXPECT_EQ(f.driver->completed(), 2u);
  // Second request: arrival 0, completion 1.0.
  EXPECT_DOUBLE_EQ(f.driver->sojourn_time().max(), 1.0);
  // Service time of the second measured from issuance (0.5) -> 0.5.
  EXPECT_DOUBLE_EQ(f.driver->service_time().max(), 0.5);
}

TEST(CsDriver, SpuriousGrantsIgnoredAndCounted) {
  DriverFixture f;
  f.driver->submit();
  f.algo->grant_stale(999999);  // wrong id: must not enter CS
  EXPECT_EQ(f.driver->spurious_grants(), 1u);
  f.algo->grant_now();
  f.algo->grant_now();  // double grant while already in CS
  EXPECT_EQ(f.driver->spurious_grants(), 2u);
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 1u);
  EXPECT_EQ(f.monitor.violations(), 0u);
}

TEST(CsDriver, CrashInsideCsReleasesOccupancyAndVoidsQueue) {
  DriverFixture f;
  f.driver->submit();
  f.driver->submit();
  f.algo->grant_now();
  EXPECT_EQ(f.monitor.current_occupancy(), 1);
  f.cluster.crash_node(net::NodeId{0});  // reaches the driver via algo
  EXPECT_EQ(f.monitor.current_occupancy(), 0);
  EXPECT_EQ(f.monitor.violations(), 0u);
  EXPECT_EQ(f.driver->aborted_by_crash(), 2u);  // in-CS demand + queued demand
  f.cluster.simulator().run();
  EXPECT_EQ(f.driver->completed(), 0u);
  EXPECT_EQ(f.driver->submitted(), 2u);
}

TEST(CsDriver, CrashedNodeIgnoresNewSubmissions) {
  DriverFixture f;
  f.cluster.crash_node(net::NodeId{0});
  f.driver->submit();
  EXPECT_EQ(f.driver->submitted(), 0u);
  EXPECT_EQ(f.algo->requests, 0);
}

TEST(Registry, UnknownAlgorithmThrows) {
  harness::register_builtin_algorithms();
  ParamSet params;
  FactoryContext ctx{net::NodeId{0}, 4, params};
  EXPECT_THROW((void)Registry::instance().create("no-such-algo", ctx),
               std::invalid_argument);
}

TEST(Registry, AllBuiltinsRegistered) {
  harness::register_builtin_algorithms();
  for (const char* name :
       {"arbiter-tp", "arbiter-tp-sf", "centralized", "suzuki-kasami",
        "ricart-agrawala", "lamport", "raymond", "maekawa", "singhal"}) {
    EXPECT_TRUE(Registry::instance().contains(name)) << name;
  }
}

TEST(Registry, FactoriesProduceWorkingInstances) {
  harness::register_builtin_algorithms();
  ParamSet params;
  for (const auto& name : Registry::instance().names()) {
    FactoryContext ctx{net::NodeId{1}, 9, params};
    auto algo = Registry::instance().create(name, ctx);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_FALSE(algo->algorithm_name().empty()) << name;
  }
}

TEST(ParamSet, TypedAccessAndDefaults) {
  ParamSet p;
  p.set("t_req", 0.2).set("name", std::string("x"));
  EXPECT_DOUBLE_EQ(p.get_num("t_req", 0.5), 0.2);
  EXPECT_DOUBLE_EQ(p.get_num("missing", 0.5), 0.5);
  EXPECT_EQ(p.get_time("t_req", sim::SimTime::zero()),
            sim::SimTime::units(0.2));
  EXPECT_EQ(p.get_str("name", "y"), "x");
  EXPECT_EQ(p.get_str("other", "y"), "y");
  EXPECT_TRUE(p.has("t_req"));
  EXPECT_FALSE(p.has("nope"));
  p.set("flag", 1.0);
  EXPECT_TRUE(p.get_bool("flag", false));
  EXPECT_FALSE(p.get_bool("flag2", false));
  p.set("tau", 4.0);
  EXPECT_EQ(p.get_count("tau", 3), 4u);
  EXPECT_EQ(p.get_count("missing", 3), 3u);

  // A set value of the wrong kind throws, naming its key.
  p.set("recovery", std::string("banana"))
      .set("order", 3.0)
      .set("t_fwd", -1.0)
      .set("neg", -1.0)
      .set("half", 2.5);
  const auto error = [](const auto& read) {
    try {
      (void)read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error([&] { return p.get_bool("recovery", false); }),
            "param recovery must be a number, got 'banana'");
  EXPECT_EQ(error([&] { return p.get_num("recovery", 0.0); }),
            "param recovery must be a number, got 'banana'");
  EXPECT_EQ(error([&] { return p.get_str("order", "fcfs"); }),
            "param order must be a name, got 3");
  EXPECT_EQ(error([&] { return p.get_time("t_fwd", sim::SimTime::zero()); }),
            "param t_fwd must be a time >= 0, got -1");
  EXPECT_EQ(error([&] { return p.get_count("neg", 0); }),
            "param neg must be a whole number >= 0, got -1");
  EXPECT_EQ(error([&] { return p.get_count("half", 0); }),
            "param half must be a whole number >= 0, got 2.5");
}

TEST(ArbiterParams, FromParamSet) {
  ParamSet p;
  p.set("t_req", 0.3)
      .set("t_fwd", 0.4)
      .set("tau", 5.0)
      .set("order", std::string("priority"))
      .set("recovery", 1.0)
      .set("token_timeout", 3.0);
  const auto a = core::ArbiterParams::from_params(p);
  EXPECT_EQ(a.t_req, sim::SimTime::units(0.3));
  EXPECT_EQ(a.t_fwd, sim::SimTime::units(0.4));
  EXPECT_EQ(a.tau, 5u);
  EXPECT_EQ(a.order, core::BatchOrder::kPriority);
  EXPECT_TRUE(a.recovery);
  EXPECT_EQ(a.token_timeout, sim::SimTime::units(3.0));
  ParamSet bad;
  bad.set("order", std::string("bogus"));
  EXPECT_THROW(core::ArbiterParams::from_params(bad), std::invalid_argument);
}

}  // namespace
}  // namespace dmx::mutex
