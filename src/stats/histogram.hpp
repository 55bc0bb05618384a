// Fixed-bin histogram with percentile queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dmx::stats {

/// Linear-bin histogram over [lo, hi) with overflow/underflow buckets.
/// Used for per-CS delay distributions and recovery-latency reporting.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Approximate p-quantile (0 <= p <= 1) by linear interpolation inside the
  /// containing bin.  Underflow samples count as `lo`, overflow as `hi`.
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return bins_; }

  /// Multi-line ASCII rendering (for example programs).
  [[nodiscard]] std::string render(std::size_t max_bar = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace dmx::stats
