// Empirical CDF of a sample.
#pragma once

#include <span>
#include <vector>

namespace fepia::stats {

/// Empirical cumulative distribution function of a sample.
class Ecdf {
 public:
  /// Builds from a sample (copied and sorted); throws
  /// std::invalid_argument when empty.
  explicit Ecdf(std::span<const double> sample);

  /// F(x) = fraction of observations <= x.
  [[nodiscard]] double operator()(double x) const noexcept;

  /// Number of observations.
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// Smallest / largest observation.
  [[nodiscard]] double min() const noexcept { return sorted_.front(); }
  [[nodiscard]] double max() const noexcept { return sorted_.back(); }

  /// The sorted sample (for quantile-style inspection).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }

 private:
  std::vector<double> sorted_;
};

}  // namespace fepia::stats
