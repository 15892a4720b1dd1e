#include "la/geometry.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace fepia::la {

Hyperplane::Hyperplane(Vector normal, double offset)
    : normal_(std::move(normal)), offset_(offset), normalNorm_(norm2(normal_)) {
  if (normalNorm_ <= 0.0 || !std::isfinite(normalNorm_)) {
    throw std::invalid_argument("la::Hyperplane: normal must be nonzero/finite");
  }
}

double Hyperplane::signedDistance(const Vector& point) const {
  return residual(point) / normalNorm_;
}

double Hyperplane::distance(const Vector& point) const {
  return std::abs(signedDistance(point));
}

Vector Hyperplane::closestPoint(const Vector& point) const {
  // x* = x − ((a·x − b)/‖a‖²) a
  const double scale = residual(point) / (normalNorm_ * normalNorm_);
  return point - scale * normal_;
}

double Hyperplane::residual(const Vector& x) const {
  return dot(normal_, x) - offset_;
}

double distanceToNonnegativeOrthantBoundary(const Vector& point) {
  // The boundary facets are {x_r = 0}; the nearest one is at distance
  // min_r |x_r| for a point inside the orthant, and the distance for an
  // outside point is the distance back to the orthant's surface.
  double inside = std::numeric_limits<double>::infinity();
  double outsideSq = 0.0;
  bool isOutside = false;
  for (std::size_t r = 0; r < point.size(); ++r) {
    if (point[r] < 0.0) {
      isOutside = true;
      outsideSq += point[r] * point[r];
    }
    inside = std::min(inside, std::abs(point[r]));
  }
  return isOutside ? std::sqrt(outsideSq) : inside;
}

}  // namespace fepia::la
