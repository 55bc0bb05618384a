#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "sim/rng.hpp"

namespace dmx::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, Uniform01Range) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  std::array<int, 5> seen{};
  for (int i = 0; i < 5'000; ++i) {
    const std::int64_t v = r.uniform_int(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, ExponentialTimeMean) {
  Rng r(13);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += r.exponential_time(SimTime::units(2.0)).to_units();
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100'000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(31);
  Rng a = root.fork();
  Rng b = root.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng r1(5), r2(5);
  Rng c1 = r1.fork();
  Rng c2 = r2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(c1.uniform01(), c2.uniform01());
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng r(37);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(r.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.uniform_int(5, 4), std::invalid_argument);
}

}  // namespace
}  // namespace dmx::sim
