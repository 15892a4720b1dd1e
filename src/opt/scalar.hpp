// One-dimensional root finding and minimisation.
//
// The ray-shooting boundary probe reduces "where does the ray from
// pi_orig in direction d cross the boundary f(pi) = beta?" to a scalar
// root problem, solved here with bracketing + Brent's method.
#pragma once

#include <functional>
#include <optional>
#include <utility>

namespace fepia::opt {

using ScalarFn = std::function<double(double)>;

/// Result of a scalar root search.
struct RootResult {
  double x = 0.0;        ///< abscissa of the root
  double fx = 0.0;       ///< residual at `x`
  int iterations = 0;    ///< iterations consumed
  bool converged = false;
};

/// Expands an interval [t0, t0·factor, ...] (geometric growth, capped at
/// tMax) until `f` changes sign; returns the bracketing interval or
/// nullopt when no sign change is found.
/// Requires t0 >= 0 and factor > 1.
[[nodiscard]] std::optional<std::pair<double, double>> bracketRoot(
    const ScalarFn& f, double t0, double tMax, double factor = 2.0);

/// Brent's method (inverse quadratic interpolation + secant + bisection)
/// on a bracketing interval [a, b] with f(a)·f(b) <= 0.
/// Throws std::invalid_argument when the interval does not bracket.
[[nodiscard]] RootResult brent(const ScalarFn& f, double a, double b,
                               double xtol = 1e-13, int maxIter = 200);

}  // namespace fepia::opt
