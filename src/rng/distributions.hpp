// Scalar and vector sampling distributions over Xoshiro256StarStar.
//
// Gamma sampling matters most here: the coefficient-of-variation-based
// (CVB) ETC workload generator of the heterogeneous-computing literature
// (used by the paper's baseline [2]) draws task/machine execution times
// from gamma distributions parameterised by a mean and a CoV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/xoshiro.hpp"

namespace fepia::rng {

/// Uniform double in [0, 1) with 53-bit resolution.
[[nodiscard]] double uniform01(Xoshiro256StarStar& g) noexcept;

/// Uniform double in [lo, hi); throws std::invalid_argument when lo > hi.
[[nodiscard]] double uniform(Xoshiro256StarStar& g, double lo, double hi);

/// Uniform integer in [lo, hi] inclusive; throws when lo > hi.
[[nodiscard]] std::size_t uniformIndex(Xoshiro256StarStar& g, std::size_t lo,
                                       std::size_t hi);

/// Uniform integer in [0, span) for a fixed span: uniformIndex(g, 0,
/// span - 1) with the rejection limit computed once instead of per draw,
/// bit for bit the same sequence. Draws at or above the limit are
/// rejected (to avoid modulo bias) and redrawn.
class IndexSampler {
 public:
  /// Throws std::invalid_argument when span is 0.
  explicit IndexSampler(std::uint64_t span);

  [[nodiscard]] std::uint64_t operator()(Xoshiro256StarStar& g) const noexcept {
    std::uint64_t v;
    do {
      v = g();
    } while (v >= limit_);
    return v % span_;
  }

 private:
  std::uint64_t span_;
  std::uint64_t limit_ = 0;
};

/// Standard normal via the polar (Marsaglia) method.
[[nodiscard]] double standardNormal(Xoshiro256StarStar& g) noexcept;

/// Normal with the given mean and standard deviation (sd >= 0).
[[nodiscard]] double normal(Xoshiro256StarStar& g, double mean, double sd);

/// Exponential with the given rate lambda > 0.
[[nodiscard]] double exponential(Xoshiro256StarStar& g, double lambda);

/// Gamma(shape k > 0, scale theta > 0) via Marsaglia–Tsang squeeze
/// (with the standard boost for k < 1).
[[nodiscard]] double gamma(Xoshiro256StarStar& g, double shape, double scale);

/// Gamma parameterised the way the CVB ETC generator needs it:
/// `mean > 0` and coefficient of variation `cov > 0`
/// (shape = 1/cov², scale = mean·cov²).
[[nodiscard]] double gammaMeanCov(Xoshiro256StarStar& g, double mean, double cov);

/// Writes a point uniformly distributed on the unit sphere in R^n,
/// n = out.size() >= 1, into `out`. Used to probe random perturbation
/// directions; allocates nothing. Throws std::invalid_argument on an
/// empty `out`.
void unitSphere(Xoshiro256StarStar& g, std::span<double> out);

/// unitSphere into `out`, folded onto the *nonnegative* part of the
/// sphere (all coordinates >= 0) — perturbation increases only, as in
/// Figure 1 where loads can only grow from the assumed operating point.
void unitSphereNonnegative(Xoshiro256StarStar& g, std::span<double> out);

/// The span overloads into a new vector of length n: the same draws and
/// the same values.
[[nodiscard]] std::vector<double> unitSphere(Xoshiro256StarStar& g, std::size_t n);
[[nodiscard]] std::vector<double> unitSphereNonnegative(Xoshiro256StarStar& g,
                                                        std::size_t n);

}  // namespace fepia::rng
