// Hyperplane geometry — the paper's Eq. (4) distance and the boundary
// structures of Figure 1.
#include "la/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace la = fepia::la;

TEST(LaGeometry, HyperplaneRejectsZeroNormal) {
  EXPECT_THROW(la::Hyperplane(la::Vector{0.0, 0.0}, 1.0), std::invalid_argument);
}

TEST(LaGeometry, DistanceMatchesEq4) {
  // Eq. (4): d = |a·x0 − b| / ‖a‖. Plane x + y = 2, point (0, 0).
  const la::Hyperplane plane(la::Vector{1.0, 1.0}, 2.0);
  EXPECT_NEAR(plane.distance(la::Vector{0.0, 0.0}), std::sqrt(2.0), 1e-15);
  // Signed distance is negative on the origin side.
  EXPECT_LT(plane.signedDistance(la::Vector{0.0, 0.0}), 0.0);
  EXPECT_GT(plane.signedDistance(la::Vector{3.0, 3.0}), 0.0);
}

TEST(LaGeometry, DistanceIsInvariantToNormalScaling) {
  const la::Vector x0{1.0, -2.0, 0.5};
  const la::Hyperplane p1(la::Vector{2.0, -1.0, 3.0}, 4.0);
  const la::Hyperplane p2(la::Vector{4.0, -2.0, 6.0}, 8.0);
  EXPECT_NEAR(p1.distance(x0), p2.distance(x0), 1e-14);
}

TEST(LaGeometry, ClosestPointLiesOnPlaneAndRealizesDistance) {
  const la::Hyperplane plane(la::Vector{3.0, 4.0}, 10.0);
  const la::Vector x0{-1.0, 2.0};
  const la::Vector star = plane.closestPoint(x0);
  EXPECT_NEAR(plane.residual(star), 0.0, 1e-12);
  EXPECT_NEAR(la::distance(star, x0), plane.distance(x0), 1e-12);
  // No other plane point can be closer: check the foot is the projection
  // (star − x0 parallel to the normal).
  const la::Vector d = star - x0;
  const double cross = d[0] * 4.0 - d[1] * 3.0;
  EXPECT_NEAR(cross, 0.0, 1e-12);
}

TEST(LaGeometry, PointOnPlaneHasZeroDistance) {
  const la::Hyperplane plane(la::Vector{1.0, 2.0}, 5.0);
  const la::Vector on{1.0, 2.0};  // 1 + 4 = 5
  EXPECT_NEAR(plane.distance(on), 0.0, 1e-15);
  EXPECT_TRUE(la::approxEqual(plane.closestPoint(on), on, 1e-14));
}

TEST(LaGeometry, OrthantBoundaryDistanceInside) {
  // Figure 1: the beta_min boundary set is the union of the axes; for an
  // interior point the nearest facet is the smallest coordinate.
  EXPECT_DOUBLE_EQ(
      la::distanceToNonnegativeOrthantBoundary(la::Vector{3.0, 1.5, 2.0}), 1.5);
}

TEST(LaGeometry, OrthantBoundaryDistanceOutside) {
  // For a point with negative coordinates, the distance back to the
  // orthant surface combines the violating coordinates.
  EXPECT_NEAR(
      la::distanceToNonnegativeOrthantBoundary(la::Vector{-3.0, -4.0, 1.0}),
      5.0, 1e-15);
}

