#include "opt/scalar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fepia::opt {

std::optional<std::pair<double, double>> bracketRoot(const ScalarFn& f,
                                                     double t0, double tMax,
                                                     double factor) {
  if (t0 < 0.0 || factor <= 1.0 || tMax <= t0) {
    throw std::invalid_argument("opt::bracketRoot: bad search parameters");
  }
  double a = t0;
  double fa = f(a);
  if (!std::isfinite(fa)) return std::nullopt;  // origin outside the domain
  if (fa == 0.0) return std::make_pair(a, a);

  // When expansion steps onto a point where f is undefined (NaN/inf —
  // the edge of the field's domain, e.g. a pole of a bandwidth
  // degradation feature), bisect toward the edge from the last finite
  // point: a root may hide arbitrarily close to it (f typically blows up
  // there, so the sign flips at finite evaluable points).
  const auto probeTowardEdge = [&](double aGood, double faGood,
                                   double bBad) -> std::optional<std::pair<double, double>> {
    for (int it = 0; it < 80; ++it) {
      const double mid = 0.5 * (aGood + bBad);
      if (mid == aGood || mid == bBad) break;
      const double fm = f(mid);
      if (!std::isfinite(fm)) {
        bBad = mid;
        continue;
      }
      if (fm == 0.0) return std::make_pair(mid, mid);
      if ((faGood < 0.0) != (fm < 0.0)) return std::make_pair(aGood, mid);
      aGood = mid;
      faGood = fm;
    }
    return std::nullopt;
  };

  double b = t0 == 0.0 ? std::min(1.0, tMax) : std::min(t0 * factor, tMax);
  for (;;) {
    const double fb = f(b);
    if (!std::isfinite(fb)) return probeTowardEdge(a, fa, b);
    if (fb == 0.0) return std::make_pair(b, b);
    if ((fa < 0.0) != (fb < 0.0)) return std::make_pair(a, b);
    if (b >= tMax) return std::nullopt;
    a = b;
    fa = fb;
    b = std::min(b * factor, tMax);
  }
}

RootResult brent(const ScalarFn& f, double a, double b, double xtol,
                 int maxIter) {
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};
  if ((fa < 0.0) == (fb < 0.0)) {
    throw std::invalid_argument("opt::brent: interval does not bracket a root");
  }
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  double d = b - a;  // step of the previous iteration
  double e = d;      // step before that
  RootResult res;
  for (res.iterations = 0; res.iterations < maxIter; ++res.iterations) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol = 2.0 * std::numeric_limits<double>::epsilon() *
                           std::abs(b) + 0.5 * xtol;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0) {
      res.x = b;
      res.fx = fb;
      res.converged = true;
      return res;
    }
    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb)) {
      // Attempt interpolation.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        // Secant.
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        // Inverse quadratic.
        const double qa = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0));
        q = (qa - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q), std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    } else {
      d = m;
      e = m;
    }
    a = b;
    fa = fb;
    b += std::abs(d) > tol ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if ((fb < 0.0) == (fc < 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  res.x = b;
  res.fx = fb;
  res.converged = false;
  return res;
}

}  // namespace fepia::opt
