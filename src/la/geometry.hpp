// Affine geometry used by the closed-form robustness-radius engines.
//
// Equation (4) of the paper: for a hyperplane a·x = b in R^n and a point
// x0, the minimum Euclidean distance is |a·x0 − b| / ‖a‖₂. The linear
// boundary set of a performance feature is exactly such a hyperplane, so
// the robustness radius of a linear feature is a hyperplane distance.
#pragma once

#include "la/vector.hpp"

namespace fepia::la {

/// Hyperplane `{x : normal · x = offset}` in R^n.
///
/// Invariant: `normal` is not the zero vector (enforced at construction).
class Hyperplane {
 public:
  /// Throws std::invalid_argument when `normal` is (numerically) zero.
  Hyperplane(Vector normal, double offset);

  [[nodiscard]] const Vector& normal() const noexcept { return normal_; }
  [[nodiscard]] double offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t dimension() const noexcept { return normal_.size(); }

  /// Signed distance from `point`: positive on the side `normal` points to.
  /// `|signedDistance|` is the paper's Eq. (4) distance.
  [[nodiscard]] double signedDistance(const Vector& point) const;

  /// Minimum Euclidean distance from `point` to the plane (Eq. 4).
  [[nodiscard]] double distance(const Vector& point) const;

  /// The closest point on the plane to `point` — the π*(φ_i) / P*(φ_i)
  /// boundary element of Eqs. (1)/(2) for a linear feature.
  [[nodiscard]] Vector closestPoint(const Vector& point) const;

  /// Residual `normal · x − offset` (zero exactly on the plane).
  [[nodiscard]] double residual(const Vector& x) const;

 private:
  Vector normal_;
  double offset_;
  double normalNorm_;  // cached ‖normal‖₂
};

/// Distance from a point to the boundary of the axis-aligned nonnegative
/// orthant `{x : x_r >= 0}` — the β_i^min boundary of Figure 1, where the
/// boundary set is the union of the coordinate axes' facets.
[[nodiscard]] double distanceToNonnegativeOrthantBoundary(const Vector& point);

}  // namespace fepia::la
