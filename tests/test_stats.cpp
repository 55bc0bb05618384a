#include <gtest/gtest.h>

#include <cmath>

#include "stats/confidence.hpp"
#include "stats/counter_map.hpp"
#include "stats/histogram.hpp"
#include "stats/moving_window.hpp"
#include "stats/welford.hpp"

namespace dmx::stats {
namespace {

TEST(Welford, KnownValues) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
  EXPECT_DOUBLE_EQ(w.sum(), 40.0);
}

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.std_error(), 0.0);
}

TEST(Welford, SingleSample) {
  Welford w;
  w.add(3.5);
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Welford, MergeEqualsCombinedStream) {
  Welford a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Welford, NumericalStabilityLargeOffset) {
  Welford w;
  for (int i = 0; i < 10'000; ++i) w.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(w.mean(), 1e9, 1e-3);
  EXPECT_NEAR(w.variance(), 0.25, 1e-4);
}

TEST(Confidence, TCriticalValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.96, 1e-3);
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
}

TEST(Confidence, CiCoversTrueMeanTypically) {
  Welford w;
  for (int i = 0; i < 1000; ++i) w.add((i % 10) + 0.5);  // mean 5.0
  const MeanCi ci = mean_ci_95(w);
  EXPECT_TRUE(ci.contains(5.0));
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.5);
}

TEST(Confidence, ToStringFormats) {
  MeanCi ci;
  ci.mean = 1.5;
  ci.half_width = 0.25;
  EXPECT_EQ(ci.to_string(2), "1.50 \xC2\xB1 0.25");
}

TEST(MovingWindow, MeanOverWindowOnly) {
  MovingWindow w(3);
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.mean(7.0), 7.0);  // fallback when empty
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_EQ(w.size(), 3u);
}

TEST(MovingWindow, CapacityOne) {
  MovingWindow w(1);
  w.add(5.0);
  w.add(9.0);
  EXPECT_DOUBLE_EQ(w.mean(), 9.0);
}

TEST(MovingWindow, ZeroCapacityThrows) {
  EXPECT_THROW(MovingWindow w(0), std::invalid_argument);
}

TEST(MovingWindow, Reset) {
  MovingWindow w(4);
  w.add(1.0);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.mean(3.0), 3.0);
}

TEST(Histogram, BinningAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 0.2);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, QuantileValidation) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> lo
}

TEST(Histogram, ConstructionValidation) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderProducesOneLinePerBin) {
  Histogram h(0.0, 1.0, 5);
  h.add(0.1);
  const std::string s = h.render();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(CounterMap, BasicCounting) {
  CounterMap c;
  c.increment("REQUEST");
  c.increment("REQUEST", 2);
  c.increment("PRIVILEGE");
  EXPECT_EQ(c.get("REQUEST"), 3u);
  EXPECT_EQ(c.get("PRIVILEGE"), 1u);
  EXPECT_EQ(c.get("MISSING"), 0u);
  EXPECT_EQ(c.total(), 4u);
}

TEST(CounterMap, Merge) {
  CounterMap a, b;
  a.increment("x", 1);
  b.increment("x", 2);
  b.increment("y", 5);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 5u);
}

}  // namespace
}  // namespace dmx::stats
