// Structured-violation tests for the global monitors (satellite of the
// verification PR): SafetyMonitor must emit machine-readable Violation
// reports for overlapping holders and phantom exits, honor the
// collect/fail-fast policy split, and ProgressMonitor must turn a starved
// request into a structured kStarvation report naming the starving nodes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mutex/progress_monitor.hpp"
#include "mutex/safety_monitor.hpp"
#include "mutex/violation.hpp"
#include "testbed.hpp"

namespace dmx::mutex {
namespace {

TEST(SafetyMonitorReports, TwoHoldersYieldStructuredReport) {
  SafetyMonitor m(SafetyMonitor::Policy::kCollect);
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  m.on_enter(net::NodeId{2}, sim::SimTime::units(1.5));
  ASSERT_EQ(m.reports().size(), 1u);
  const Violation& v = m.reports().front();
  EXPECT_EQ(v.kind, Violation::Kind::kMutualExclusion);
  EXPECT_EQ(v.time, sim::SimTime::units(1.5));
  ASSERT_EQ(v.nodes.size(), 2u);
  EXPECT_EQ(v.nodes[0], net::NodeId{0});
  EXPECT_EQ(v.nodes[1], net::NodeId{2});
  // Collect policy keeps going: the run is not torn down.
  m.on_exit(net::NodeId{2}, sim::SimTime::units(2.0));
  EXPECT_EQ(m.violations(), 1u);
}

TEST(SafetyMonitorReports, PhantomExitYieldsStructuredReport) {
  SafetyMonitor m(SafetyMonitor::Policy::kCollect);
  m.on_exit(net::NodeId{3}, sim::SimTime::units(0.5));
  ASSERT_EQ(m.reports().size(), 1u);
  EXPECT_EQ(m.reports().front().kind, Violation::Kind::kPhantomExit);
  EXPECT_EQ(m.reports().front().nodes,
            std::vector<net::NodeId>{net::NodeId{3}});
}

TEST(SafetyMonitorReports, FailFastThrowsWithDescription) {
  SafetyMonitor m(SafetyMonitor::Policy::kFailFast);
  m.on_enter(net::NodeId{0}, sim::SimTime::units(1.0));
  try {
    m.on_enter(net::NodeId{1}, sim::SimTime::units(1.1));
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mutual-exclusion"),
              std::string::npos);
  }
  // The report is recorded even on the throwing path.
  ASSERT_EQ(m.reports().size(), 1u);
  EXPECT_EQ(m.reports().front().kind, Violation::Kind::kMutualExclusion);
}

TEST(SafetyMonitorReports, ReportListIsCappedButCountingContinues) {
  SafetyMonitor m(SafetyMonitor::Policy::kCollect);
  // Alternate phantom exits: every one is a violation.
  for (std::size_t i = 0; i < SafetyMonitor::kMaxReports + 10; ++i) {
    m.on_exit(net::NodeId{0}, sim::SimTime::units(0.1 * double(i + 1)));
  }
  EXPECT_EQ(m.reports().size(), SafetyMonitor::kMaxReports);
  EXPECT_EQ(m.violations(), SafetyMonitor::kMaxReports + 10);
}

TEST(ProgressMonitorReports, StarvedRequestYieldsStructuredReport) {
  // Coordinator crashed before the client's demand: the request can never
  // be served, the event queue runs dry, and the monitor must produce a
  // structured kStarvation violation naming the starving node.
  mutex::ParamSet p;
  testbed::MutexCluster tb("centralized", 3, p);
  ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(1'000.0);
  cfg.check_interval = sim::SimTime::units(5.0);
  ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.crash_at(0.05, 0);
  tb.submit_at(1.0, 2);
  tb.simulator().run_until(sim::SimTime::units(10'000.0));
  ASSERT_TRUE(monitor.stalled());
  ASSERT_TRUE(monitor.violation().has_value());
  const Violation& v = *monitor.violation();
  EXPECT_EQ(v.kind, Violation::Kind::kStarvation);
  EXPECT_EQ(v.nodes, std::vector<net::NodeId>{net::NodeId{2}});
  EXPECT_NE(v.describe().find("starvation"), std::string::npos);
}

TEST(ProgressMonitorReports, HealthyRunHasNoViolation) {
  mutex::ParamSet p;
  testbed::MutexCluster tb("arbiter-tp", 3, p);
  ProgressMonitor::Config cfg;
  cfg.stall_threshold = sim::SimTime::units(10.0);
  ProgressMonitor monitor(tb.simulator(), cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.watch(&tb.driver(i), &tb.algorithm(i));
  }
  monitor.start();
  tb.submit_at(0.5, 1);
  tb.simulator().run();
  EXPECT_FALSE(monitor.stalled());
  EXPECT_FALSE(monitor.violation().has_value());
}

}  // namespace
}  // namespace dmx::mutex
