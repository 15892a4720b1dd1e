#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fepia::stats {

namespace {

void requireNonEmpty(std::span<const double> xs, const char* fn) {
  if (xs.empty()) {
    throw std::invalid_argument(std::string("stats::") + fn + ": empty sample");
  }
}

}  // namespace

double mean(std::span<const double> xs) {
  requireNonEmpty(xs, "mean");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) {
    throw std::invalid_argument("stats::variance: need at least 2 observations");
  }
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double coefficientOfVariation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) throw std::domain_error("stats::coefficientOfVariation: mean==0");
  return stddev(xs) / m;
}

double quantile(std::span<const double> xs, double q) {
  requireNonEmpty(xs, "quantile");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("stats::quantile: q outside [0,1]");
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  requireNonEmpty(xs, "summarize");
  Summary s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.sd = xs.size() >= 2 ? stddev(xs) : 0.0;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.median = median(xs);
  return s;
}

}  // namespace fepia::stats
