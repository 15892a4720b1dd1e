// Descriptive statistics used by the benchmark harness and the DES
// validation experiment (violation-rate summaries).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fepia::stats {

/// Summary of a sample: count, mean, unbiased sd, extremes and median.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double sd = 0.0;   // unbiased (n-1) standard deviation; 0 when count < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Arithmetic mean; throws std::invalid_argument on an empty sample.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance; throws when fewer than two observations.
[[nodiscard]] double variance(std::span<const double> xs);

/// Unbiased sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Coefficient of variation sd/mean; throws when mean == 0.
[[nodiscard]] double coefficientOfVariation(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]; throws on empty sample or
/// q outside [0,1].
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Median (quantile 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// One-pass full summary; throws on an empty sample.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// A confidence interval {lo, hi}.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

}  // namespace fepia::stats
