#include "rng/distributions.hpp"

#include <cmath>
#include <stdexcept>

namespace fepia::rng {

double uniform01(Xoshiro256StarStar& g) noexcept {
  // Top 53 bits -> [0,1) double grid.
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

double uniform(Xoshiro256StarStar& g, double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform01(g);
}

std::size_t uniformIndex(Xoshiro256StarStar& g, std::size_t lo, std::size_t hi) {
  if (lo > hi) throw std::invalid_argument("rng::uniformIndex: lo > hi");
  return lo + static_cast<std::size_t>(IndexSampler(hi - lo + 1)(g));
}

IndexSampler::IndexSampler(std::uint64_t span) : span_(span) {
  if (span == 0) throw std::invalid_argument("rng::IndexSampler: empty span");
  // Rejection sampling to avoid modulo bias.
  limit_ = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
}

double standardNormal(Xoshiro256StarStar& g) noexcept {
  // Marsaglia polar method; one of the pair is discarded for simplicity
  // (statelessness keeps substreams reproducible).
  double u, v, s;
  do {
    u = 2.0 * uniform01(g) - 1.0;
    v = 2.0 * uniform01(g) - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return u * std::sqrt(-2.0 * std::log(s) / s);
}

double normal(Xoshiro256StarStar& g, double mean, double sd) {
  if (sd < 0.0) throw std::invalid_argument("rng::normal: sd < 0");
  return mean + sd * standardNormal(g);
}

double exponential(Xoshiro256StarStar& g, double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("rng::exponential: lambda <= 0");
  // 1 - U avoids log(0).
  return -std::log1p(-uniform01(g)) / lambda;
}

double gamma(Xoshiro256StarStar& g, double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("rng::gamma: shape and scale must be > 0");
  }
  if (shape < 1.0) {
    // Boost: X ~ Gamma(k+1), U^(1/k) correction.
    const double u = uniform01(g);
    return gamma(g, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = standardNormal(g);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform01(g);
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double gammaMeanCov(Xoshiro256StarStar& g, double mean, double cov) {
  if (mean <= 0.0 || cov <= 0.0) {
    throw std::invalid_argument("rng::gammaMeanCov: mean and cov must be > 0");
  }
  const double shape = 1.0 / (cov * cov);
  const double scale = mean * cov * cov;
  return gamma(g, shape, scale);
}

void unitSphere(Xoshiro256StarStar& g, std::span<double> out) {
  if (out.empty()) throw std::invalid_argument("rng::unitSphere: n == 0");
  double norm = 0.0;
  do {
    norm = 0.0;
    for (double& xi : out) {
      xi = standardNormal(g);
      norm += xi * xi;
    }
  } while (norm == 0.0);
  norm = std::sqrt(norm);
  for (double& xi : out) xi /= norm;
}

void unitSphereNonnegative(Xoshiro256StarStar& g, std::span<double> out) {
  unitSphere(g, out);
  for (double& xi : out) xi = std::abs(xi);
}

std::vector<double> unitSphere(Xoshiro256StarStar& g, std::size_t n) {
  std::vector<double> x(n);
  unitSphere(g, std::span<double>(x));
  return x;
}

std::vector<double> unitSphereNonnegative(Xoshiro256StarStar& g, std::size_t n) {
  std::vector<double> x(n);
  unitSphereNonnegative(g, std::span<double>(x));
  return x;
}

}  // namespace fepia::rng
